"""The comparison of tools/stream_hashes.py, on small dicts: the full
streams take the benchmark's code and are not run here."""
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stream_hashes.py"


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("stream_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def document(**streams):
    return {"outputs": {"streams": {
        stream: {"parent_sha256": "old", "change_sha256": sha} for stream, sha in streams.items()
    }}}


def test_differences_name_each_stream_that_moved(tool):
    recorded = document(**{"reduce/11/0": "aa", "reduce/12/0": "bb", "equality/11/0": "cc"})
    assert tool.differences({"reduce/11/0": "aa", "reduce/12/0": "bb", "equality/11/0": "cc"},
                            recorded) == []
    assert tool.differences({"reduce/11/0": "aa", "reduce/12/0": "xx", "equality/11/0": "cc"},
                            recorded) == [("reduce/12/0", "xx", "bb")]
    # a stream on one side only differs too
    assert tool.differences({"reduce/11/0": "aa", "reduce/12/0": "bb", "sigma/11/0": "dd"},
                            recorded) == [("equality/11/0", None, "cc"), ("sigma/11/0", "dd", None)]
    assert tool.differences({"reduce/11/0": "aa"}, {}) == [("reduce/11/0", "aa", None)]


def test_against_exits_1_on_a_difference(tool, tmp_path, monkeypatch, capsys):
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(document(**{"reduce/11/0": "aa", "reduce/12/0": "bb"})))
    monkeypatch.setattr(tool, "stream_hashes", lambda: {"reduce/11/0": "aa", "reduce/12/0": "bb"})
    assert tool.main(["--against", str(path)]) == 0
    assert capsys.readouterr().out == f"all 2 streams match {path}\n"
    monkeypatch.setattr(tool, "stream_hashes", lambda: {"reduce/11/0": "aa", "reduce/12/0": "zz"})
    assert tool.main(["--against", str(path)]) == 1
    assert capsys.readouterr().out == "reduce/12/0: zz differs from the recorded bb\n"


class CountingWorkload:
    """Requests are the stream's random draws; each answer is a 1-tuple."""

    @staticmethod
    def requests(rng):
        while True:
            yield rng.randrange(1000)

    @staticmethod
    def execute(request):
        return (request * 2,)


def test_stream_hash_hashes_the_stream_answers(tool):
    answers = list(tool.stream_answers(CountingWorkload, "reduce/11/0", 5))
    assert len(answers) == 5 and all(len(answer) == 1 for answer in answers)
    assert answers == list(tool.stream_answers(CountingWorkload, "reduce/11/0", 5))
    assert answers != list(tool.stream_answers(CountingWorkload, "reduce/12/0", 5))
    expected = hashlib.sha256("".join(map(repr, answers)).encode()).hexdigest()
    assert tool.stream_hash(CountingWorkload, "reduce/11/0", 5) == expected
