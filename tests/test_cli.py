import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from profint.cli import main


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_decide_equal(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["decide", "--pi", "3^1,5^inf;default=0", "9*[3^(w-1)]", "3"],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "equal"


def test_decide_not_equal(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["decide", "--pi", "3^inf;default=0", "1", "2"], capsys=capsys
    )
    assert code == 1 and "modulus 3" in out


def test_decide_signature_error(capsys, monkeypatch):
    code, _, err = run_cli(
        ["decide", "--pi", "3^inf;default=0", "[3^(w-1)]", "0"], capsys=capsys
    )
    assert code == 2 and "error" in err


def test_decide_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["decide", "--pi", "3^inf;default=0", "--format", "json", "1", "2"],
        capsys=capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload == {
        "equal": False,
        "witness_modulus": 3,
        "residue_lhs": 1,
        "residue_rhs": 2,
    }


def test_solve_solvable(capsys, monkeypatch):
    doc = {"pi": "3^1,5^inf;default=0", "matrix": [["2"]], "rhs": ["[3^(w-1)]"]}
    code, out, _ = run_cli(
        ["solve", "--format", "json"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] and payload["verified"]
    # the witness round-trips through decide against the known solution
    code, out, _ = run_cli(
        [
            "decide",
            "--pi",
            "3^1,5^inf;default=0",
            payload["witness"][0],
            "[6^(w-1)]",
        ],
        capsys=capsys,
    )
    assert code == 0


def test_solve_unsolvable(capsys, monkeypatch):
    doc = {"pi": "3^inf;default=0", "matrix": [["3"]], "rhs": ["1"]}
    code, out, _ = run_cli(
        ["solve", "--format", "json"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1 and json.loads(out)["refuting_modulus"] == 3


def test_solve_malformed(capsys, monkeypatch):
    code, _, err = run_cli(
        ["solve"],
        stdin_text='{"pi": "3^inf;default=0", "matrix": [["3"], ["1", "2"]], "rhs": ["1"]}',
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2 and "error" in err
    code, _, err = run_cli(
        ["solve"], stdin_text="not json", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2


def test_solve_non_text_ambient(capsys, monkeypatch):
    doc = {"pi": 3, "matrix": [["1"]], "rhs": ["1"]}
    code, out, err = run_cli(
        ["solve"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_decide_overlong_literal(capsys, monkeypatch):
    # longer than the interpreter's default int/str limit of 4300 digits
    code, out, err = run_cli(
        ["decide", "--pi", "3^inf;default=0", "1" * 5000, "1"], capsys=capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_closure(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["closure", "--pi", "2^inf;default=0", "--constraint", "(1,0)+(2,1)N"],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "(1,0)+(2,1)Z"


def test_member(capsys, monkeypatch):
    doc = {
        "pi": "3^1,5^inf;default=0",
        "constraint": "(1,0)+(2,1)N",
        "vector": ["1", "0"],
    }
    code, out, _ = run_cli(
        ["member", "--format", "json"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0 and json.loads(out)["member"] is True
    doc["vector"] = ["0", "0"]
    code, out, _ = run_cli(
        ["member"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1


REDUCE_DOC = {
    "alphabet": ["a"],
    "variables": ["x", "y"],
    "equations": ["x = y*y"],
    "constraints": {"x": "(1)+(2)N", "y": "(1)+(1)N"},
}


def test_reduce_solvable(capsys, monkeypatch):
    doc = dict(REDUCE_DOC, pi="3^inf;default=0")
    code, out, _ = run_cli(
        ["reduce", "--format", "json"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"]
    # x must be 2 in every admissible quotient
    code, _, _ = run_cli(
        ["decide", "--pi", "3^inf;default=0", payload["witness"]["x"][0], "2"],
        capsys=capsys,
    )
    assert code == 0


def test_reduce_refuted(capsys, monkeypatch):
    doc = dict(REDUCE_DOC, pi="2^inf;default=0")
    code, out, _ = run_cli(
        ["reduce", "--format", "json"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["combined_modulus"] == 2


def test_reduce_unconstrained_variable(capsys, monkeypatch):
    doc = dict(REDUCE_DOC, pi="2^inf;default=0")
    doc["constraints"] = {"x": "(1)+(2)N"}
    code, _, err = run_cli(
        ["reduce"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2 and "error" in err


PI3 = "3^inf;default=0"
MALFORMED_INPUTS = {
    "member-constraint-number": (
        ["member"],
        json.dumps({"pi": PI3, "constraint": 3, "vector": ["1"]}),
    ),
    "member-alphabet-number": (
        ["member"],
        json.dumps({"pi": PI3, "constraint": "(1)+(2)N", "vector": ["1"], "alphabet": [1]}),
    ),
    "solve-matrix-text": (["solve"], json.dumps({"pi": PI3, "matrix": "12", "rhs": ["1", "2"]})),
    "solve-rhs-text": (["solve"], json.dumps({"pi": PI3, "matrix": [["1"]], "rhs": "1"})),
    "solve-overlong-integer": (
        ["solve"],
        '{"pi": "%s", "matrix": [[%s]], "rhs": ["1"]}' % (PI3, "1" * 5000),
    ),
    "reduce-constraint-number": (
        ["reduce"],
        json.dumps(dict(REDUCE_DOC, pi=PI3, constraints={"x": 5, "y": "(1)+(1)N"})),
    ),
    "reduce-equation-number": (["reduce"], json.dumps(dict(REDUCE_DOC, pi=PI3, equations=[5]))),
    "reduce-variables-text": (["reduce"], json.dumps(dict(REDUCE_DOC, pi=PI3, variables="xy"))),
    "member-overlong-tuple-entry": (
        ["member"],
        json.dumps({"pi": PI3, "constraint": "(%s)+(2)N" % ("1" * 5000), "vector": ["1"]}),
    ),
    "decide-prime-with-underscore": (["decide", "--pi", "2_3^1;default=0", "1", "1"], None),
    "decide-exponent-with-underscore": (["decide", "--pi", "3^1_0;default=0", "1", "1"], None),
    "reduce-equation-two-equals": (
        ["reduce"],
        json.dumps(dict(REDUCE_DOC, pi=PI3, equations=["x = y = x"])),
    ),
    "reduce-equation-bad-power": (
        ["reduce"],
        json.dumps(dict(REDUCE_DOC, pi=PI3, equations=["x = y^(w-2)"])),
    ),
    "oracle-term-bad-residue": (
        ["oracle", "term", "--pi", PI3, "--modulus", "3", "--variables", "x",
         "--assign", "x=abc", "--expr", "x"],
        None,
    ),
}


@pytest.mark.parametrize("argv, stdin_text", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_exits_2(argv, stdin_text, capsys, monkeypatch):
    code, out, err = run_cli(argv, stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unexpected_failure_exits_2(capsys, monkeypatch):
    # the witness is an integer past the int/str digit limit, so printing it
    # raises an exception no input check names
    nines = "9" * 3000
    doc = {"pi": "default=inf", "matrix": [["1"]], "rhs": [f"{nines}*{nines}"]}
    code, out, err = run_cli(
        ["solve"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("internal error:") and "Traceback" not in err


def test_oracle_eval_and_term(capsys, monkeypatch):
    code, out, _ = run_cli(
        [
            "oracle",
            "eval",
            "--pi",
            "3^1,5^inf;default=0",
            "--modulus",
            "15",
            "--expr",
            "[3^(w-1)]",
        ],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "12"
    code, out, _ = run_cli(
        [
            "oracle",
            "term",
            "--pi",
            "3^1,5^inf;default=0",
            "--modulus",
            "5",
            "--variables",
            "x",
            "--assign",
            "x=1",
            "--expr",
            "(x)^(3^(w-1))",
        ],
        capsys=capsys,
    )
    assert code == 0 and out.strip() == "2"


def test_oracle_divisors_deterministic(capsys, monkeypatch):
    argv = [
        "oracle",
        "divisors",
        "--pi",
        "2^inf;default=0",
        "--bound",
        "10",
        "--count",
        "8",
        "--seed",
        "3",
    ]
    code, out1, _ = run_cli(argv, capsys=capsys)
    assert code == 0
    _, out2, _ = run_cli(argv, capsys=capsys)
    assert out1 == out2 == "1 2 4 8\n"


def test_oracle_divisors_of_large_bound_finish():
    # random draws up to 10^18 are made divisors without factoring them
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    bound = 10**18
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from profint.cli import main; sys.exit(main())",
         "oracle", "divisors", "--pi", "2^1;default=inf",
         "--bound", str(bound), "--count", "300"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    values = [int(x) for x in proc.stdout.split()]
    assert len(set(values)) == len(values) == 300
    assert all(1 <= n <= bound and n % 4 for n in values)


def test_oracle_divisors_of_many_infinite_primes_finish():
    # the largest divisor under a bound the ambient does not divide is found
    # by a pruned search, not by listing every divisor below the bound
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    pi = ",".join(f"{p}^inf" for p in primes) + ";default=0"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from profint.cli import main; sys.exit(main())",
         "oracle", "divisors", "--pi", pi, "--bound", str(10**18 + 1), "--count", "5"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    values = [int(x) for x in proc.stdout.split()]
    assert values[-1] == 10**18


def test_oracle_search(capsys, monkeypatch):
    doc = dict(REDUCE_DOC, pi="2^inf;default=0")
    code, out, _ = run_cli(
        ["oracle", "search", "--pi", "2^inf;default=0", "--modulus", "2"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    code, out, _ = run_cli(
        ["oracle", "search", "--pi", "2^inf;default=0", "--modulus", "4"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1  # still refuted: the failure is already at the 2-part


def test_witness_reverifies_through_oracle(capsys, monkeypatch):
    # print a solver witness, then confirm it with oracle eval on both sides
    doc = {"pi": "3^1,5^inf;default=0", "matrix": [["2"]], "rhs": ["[3^(w-1)]"]}
    code, out, _ = run_cli(
        ["solve", "--format", "json"],
        stdin_text=json.dumps(doc),
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    witness = json.loads(out)["witness"][0]
    for modulus in ("3", "15", "75"):
        code, lhs_out, _ = run_cli(
            ["oracle", "eval", "--pi", "3^1,5^inf;default=0", "--modulus", modulus,
             "--expr", f"2*({witness})" if "(" not in witness else "2*" + witness],
            capsys=capsys,
        )
        assert code == 0
        code, rhs_out, _ = run_cli(
            ["oracle", "eval", "--pi", "3^1,5^inf;default=0", "--modulus", modulus,
             "--expr", "[3^(w-1)]"],
            capsys=capsys,
        )
        assert lhs_out == rhs_out
