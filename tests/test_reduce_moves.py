"""The comparisons of tools/reduce_moves.py, on small hand-built answers of
``reduce`` and of the solve workloads, and its reading of answers from
another checkout, here a stand-in one: the real streams take the
benchmark's code and are not run here."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reduce_moves.py"


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("reduce_moves", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solved(branches, **witness):
    return json.dumps({"solvable": True, "witness": witness, "branches": branches,
                       "coefficients": {}})


def refuted(*quotients):
    moduli = [n for _, n in quotients]
    combined = max(moduli, default=1)  # the moduli below divide the largest
    return json.dumps({
        "solvable": False,
        "refuting_quotients": [{"branches": list(b), "modulus": n} for b, n in quotients],
        "combined_modulus": combined,
    })


def test_compare_counts_each_kind_of_move(tool):
    parent = [
        solved({"x": 0}, x=["1"]),
        solved({"x": 0, "y": 1}, x=["1 - 2*[2^(w-1)]"], y=["3"]),
        solved({"x": 0, "y": 0}, x=["1"], y=["2"]),
        solved({"x": 0}, x=["1"]),
        refuted(((0, 0), 2), ((0, 1), 4), ((1, 0), 2), ((1, 1), 2)),
        refuted(((0,), 9), ((1,), 9)),
    ]
    change = [
        parent[0],
        solved({"x": 0, "y": 1}, x=["1"], y=["3"]),  # shorter
        solved({"x": 0, "y": 0}, x=["1 + [3^(w-1)]"], y=["2"]),  # longer
        solved({"x": 1}, x=["1"]),  # branch moved
        refuted(((0, 0), 2), ((0, 1), 4), ((1, 0), 2), ((1, 1), 4)),
        refuted(((0,), 3), ((1,), 3)),
    ]
    assert tool.compare(parent, change) == {
        "unchanged": 1, "verdicts_moved": 0, "branches_moved": 1,
        "witnesses_changed": 2, "witnesses_shorter": 1, "witnesses_longer": 1,
        "quotients_moved": 3, "quotients_grown": 1, "quotients_shrunk": 2,
        "combined_grown": 0, "combined_shrunk": 1,
    }
    counts = tool.compare([parent[0], parent[4]], [parent[4], parent[0]])
    assert counts["verdicts_moved"] == 2 and counts["unchanged"] == 0
    with pytest.raises(ValueError):
        tool.compare(parent, change[:-1])


def test_compare_solves_counts_each_kind_of_move(tool):
    parent = [
        ["solvable", "True", "1", "2"],
        ["solvable", "True", "1 - 2*[2^(w-1)]", "3"],
        ["solvable", "True", "1", "2"],
        ["unsolvable", "4", "congruence system unsolvable"],
        ["unsolvable", "4", "congruence system unsolvable"],
        ["unsolvable", "5", "diagonal equation unsolvable"],
        ["solvable", "True", "7"],
    ]
    change = [
        parent[0],
        ["solvable", "True", "-1", "3"],  # shorter
        ["solvable", "True", "1 + [3^(w-1)]", "2"],  # longer
        ["unsolvable", "2", "congruence system unsolvable"],  # modulus moved
        ["unsolvable", "4", "diagonal equation unsolvable"],  # reason moved
        ["solvable", "True", "0"],  # verdict moved
        ["solvable", "True", "8"],  # changed, same length
    ]
    assert tool.compare_solves(parent, change) == {
        "unchanged": 1, "verdicts_moved": 1, "moduli_moved": 2,
        "witnesses_changed": 3, "witnesses_shorter": 1, "witnesses_longer": 1,
    }
    with pytest.raises(ValueError):
        tool.compare_solves(parent, change[:-1])


REDUCE = {
    "parent": [solved({"x": 0}, x=["1"]), refuted(((0,), 4))],
    "same": [solved({"x": 0}, x=["1"]), refuted(((0,), 2))],
    "moved": [solved({"x": 1}, x=["1"]), refuted(((0,), 2))],
}
SOLVES = {
    "parent": [["solvable", "True", "1 - 2*[2^(w-1)]"], ["unsolvable", "4", "r"]],
    "same": [["solvable", "True", "-1"], ["unsolvable", "4", "r"]],
    "moved": [["solvable", "True", "-1"], ["unsolvable", "2", "r"]],
}


def test_main_exits_1_when_a_verdict_or_branch_moves(tool, monkeypatch, capsys):
    def answers(checkout, workload, seed):
        return (REDUCE if workload == "reduce" else SOLVES)[str(checkout)]

    monkeypatch.setattr(tool, "answers", answers)
    monkeypatch.setattr(tool, "ROOT", "same")
    assert tool.main(["parent"]) == 0
    counts = json.loads(capsys.readouterr().out)  # one pair of answers per seed
    assert list(counts) == ["reduce", "sigma_systems", "integer_systems"]
    assert counts["reduce"]["quotients_shrunk"] == 2 and counts["reduce"]["combined_shrunk"] == 2
    assert counts["integer_systems"]["witnesses_shorter"] == 2
    monkeypatch.setattr(tool, "ROOT", "moved")
    assert tool.main(["parent"]) == 1
    counts = json.loads(capsys.readouterr().out)
    assert counts["reduce"]["branches_moved"] == 2
    assert counts["sigma_systems"]["moduli_moved"] == 2
    # a moved solve modulus alone is enough
    monkeypatch.setattr(tool, "answers", lambda checkout, workload, seed: (
        REDUCE["parent"] if workload == "reduce" else SOLVES[str(checkout)]
    ))
    assert tool.main(["parent"]) == 1


FAKE_WORKLOADS = """
class Reduce:
    def requests(rng):
        while True:
            yield rng.randrange(10**6)

    def execute(request):
        return ('{"request": %d}' % request,)


class Solve(Reduce):
    def execute(request):
        return ("solvable", "True", str(request))


WORKLOADS = {"reduce": Reduce, "sigma_systems": Solve, "integer_systems": Solve}
"""


def test_answers_read_each_stream_answer_of_a_checkout(tool, tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text(FAKE_WORKLOADS)
    texts = tool.answers(tmp_path, "reduce", 11)
    assert len(texts) == tool.REQUESTS["reduce"]
    requests = [json.loads(text)["request"] for text in texts]
    assert len(set(requests)) > 1
    assert tool.answers(tmp_path, "reduce", 11) == texts != tool.answers(tmp_path, "reduce", 12)
    solves = tool.answers(tmp_path, "sigma_systems", 11)
    assert len(solves) == tool.REQUESTS["sigma_systems"]
    assert all(answer[:2] == ["solvable", "True"] for answer in solves)
