import profint


def test_every_export_resolves():
    for name in profint.__all__:
        assert hasattr(profint, name), name
