"""Count what moved between two checkouts' answers on the benchmark's
``reduce``, ``sigma_systems`` and ``integer_systems`` streams.

    python3 tools/reduce_moves.py PARENT_CHECKOUT

Runs those streams of ``tools/stream_hashes.py`` (the first 300, 150 and 30
requests of ``<workload>/<seed>/0`` for seeds 11 and 12) through
``bench/workloads.py``'s ``execute``, once with the ``src/`` and ``bench/`` of
the checkout this script sits in and once with those of PARENT_CHECKOUT, each
in its own process, and prints one JSON object, keyed by workload, that
counts over all pairs of answers:

- ``unchanged``: identical printed answers;
- ``verdicts_moved``: a different verdict;
- ``witnesses_changed``, ``witnesses_shorter``, ``witnesses_longer``: solvable
  requests (with the same branches, for ``reduce``) whose printed answer
  changed, and by how it changed in length (the bytes the benchmark counts
  as witness size);
- for ``reduce``, ``branches_moved``: a solvable request with a different
  branch choice; ``quotients_moved``, ``quotients_grown``,
  ``quotients_shrunk``: refuting quotients of the same branch combination
  whose modulus changed; ``combined_grown``, ``combined_shrunk``: refuted
  requests whose combined modulus changed;
- for the two solve workloads, ``moduli_moved``: refuted requests whose
  refuting modulus or reason changed.

Exits 1 if any verdict, ``reduce`` branch choice or solve modulus moved, 0
otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stream_hashes import REQUESTS, SEEDS, stream_answers

ROOT = Path(__file__).resolve().parent.parent
COUNTS = (
    "unchanged", "verdicts_moved", "branches_moved",
    "witnesses_changed", "witnesses_shorter", "witnesses_longer",
    "quotients_moved", "quotients_grown", "quotients_shrunk",
    "combined_grown", "combined_shrunk",
)
SOLVE_COUNTS = (
    "unchanged", "verdicts_moved", "moduli_moved",
    "witnesses_changed", "witnesses_shorter", "witnesses_longer",
)
WORKLOADS = ("reduce", "sigma_systems", "integer_systems")


def emit(checkout: str, workload: str, seed: int):
    """Print the answer of each request of stream <workload>/<seed>/0, one
    JSON line each, with the checkout's profint and workloads: the printed
    text of a ``reduce`` answer, the list of printed fields of a solve."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    stream = f"{workload}/{seed}/0"
    for printed in stream_answers(workloads.WORKLOADS[workload], stream, REQUESTS[workload]):
        print(json.dumps(printed[0] if workload == "reduce" else list(printed)))


def answers(checkout, workload: str, seed: int) -> list:
    """The answers of one checkout's stream, from a process of its own."""
    run = subprocess.run(
        [sys.executable, __file__, str(checkout), "--emit", workload, str(seed)],
        check=True, capture_output=True, text=True,
    )
    return [json.loads(line) for line in run.stdout.splitlines()]


def _count_length(counts, old_size, new_size):
    counts["witnesses_changed"] += 1
    if new_size < old_size:
        counts["witnesses_shorter"] += 1
    elif new_size > old_size:
        counts["witnesses_longer"] += 1


def _count_direction(counts, prefix, old, new):
    if new > old:
        counts[prefix + "grown"] += 1
    elif new < old:
        counts[prefix + "shrunk"] += 1


def compare(parent: list[str], change: list[str]) -> dict:
    """The counts the module docstring lists, over pairs of ``reduce``
    answer texts."""
    counts = dict.fromkeys(COUNTS, 0)
    for old_text, new_text in zip(parent, change, strict=True):
        if old_text == new_text:
            counts["unchanged"] += 1
            continue
        old, new = json.loads(old_text), json.loads(new_text)
        if old["solvable"] != new["solvable"]:
            counts["verdicts_moved"] += 1
        elif old["solvable"]:
            if old["branches"] != new["branches"]:
                counts["branches_moved"] += 1
                continue
            _count_length(counts, len(old_text), len(new_text))
        else:
            moduli = {tuple(q["branches"]): q["modulus"] for q in old["refuting_quotients"]}
            for q in new["refuting_quotients"]:
                before = moduli.get(tuple(q["branches"]))
                if before is not None and before != q["modulus"]:
                    counts["quotients_moved"] += 1
                    _count_direction(counts, "quotients_", before, q["modulus"])
            _count_direction(counts, "combined_", old["combined_modulus"], new["combined_modulus"])
    return counts


def compare_solves(parent: list[list[str]], change: list[list[str]]) -> dict:
    """The counts the module docstring lists, over pairs of solve answers:
    ``["solvable", verified, *witness]`` or ``["unsolvable", modulus,
    reason]``."""
    counts = dict.fromkeys(SOLVE_COUNTS, 0)
    for old, new in zip(parent, change, strict=True):
        if old == new:
            counts["unchanged"] += 1
        elif old[0] != new[0]:
            counts["verdicts_moved"] += 1
        elif old[0] == "solvable":
            _count_length(counts, sum(map(len, old)), sum(map(len, new)))
        else:
            counts["moduli_moved"] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_CHECKOUT")
    parser.add_argument("--emit", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.parent, args.emit[0], int(args.emit[1]))
        return 0
    counts = {}
    for workload in WORKLOADS:
        parent, change = [], []
        for seed in SEEDS:
            parent += answers(args.parent, workload, seed)
            change += answers(ROOT, workload, seed)
        counts[workload] = (compare if workload == "reduce" else compare_solves)(parent, change)
    print(json.dumps(counts))
    moved = ("verdicts_moved", "branches_moved", "moduli_moved")
    return 1 if any(c.get(name) for c in counts.values() for name in moved) else 0


if __name__ == "__main__":
    sys.exit(main())
