"""Count what moved between two checkouts' answers on the benchmark's
``reduce`` streams.

    python3 tools/reduce_moves.py PARENT_CHECKOUT

Runs the ``reduce`` streams of ``tools/stream_hashes.py`` (the first 300
requests of ``reduce/<seed>/0`` for seeds 11 and 12) through
``bench/workloads.py``'s ``execute``, once with the ``src/`` and ``bench/`` of
the checkout this script sits in and once with those of PARENT_CHECKOUT, each
in its own process, and prints one JSON object that counts, over all pairs of
answers:

- ``unchanged``: identical printed answers;
- ``verdicts_moved`` and ``branches_moved``: a different verdict, or on a
  solvable request a different branch choice;
- ``witnesses_changed``, ``witnesses_shorter``, ``witnesses_longer``: solvable
  requests with the same branches whose printed answer changed, and by how it
  changed in length (the bytes the benchmark counts as witness size);
- ``quotients_moved``, ``quotients_grown``, ``quotients_shrunk``: refuting
  quotients of the same branch combination whose modulus changed;
- ``combined_grown``, ``combined_shrunk``: refuted requests whose combined
  modulus changed.

Exits 1 if any verdict or branch choice moved, 0 otherwise.
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


def emit(checkout: str, seed: int):
    """Print the answer text of each request of stream reduce/<seed>/0, one
    JSON string per line, with the checkout's profint and workloads."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    stream = f"reduce/{seed}/0"
    for (printed,) in stream_answers(workloads.WORKLOADS["reduce"], stream, REQUESTS["reduce"]):
        print(json.dumps(printed))


def answers(checkout, seed: int) -> list[str]:
    """The answer texts of one checkout, from a process of its own."""
    run = subprocess.run(
        [sys.executable, __file__, str(checkout), "--emit", str(seed)],
        check=True, capture_output=True, text=True,
    )
    return [json.loads(line) for line in run.stdout.splitlines()]


def _count_direction(counts, prefix, old, new):
    if new > old:
        counts[prefix + "grown"] += 1
    elif new < old:
        counts[prefix + "shrunk"] += 1


def compare(parent: list[str], change: list[str]) -> dict:
    """The counts the module docstring lists, over pairs of answer texts."""
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
            counts["witnesses_changed"] += 1
            if len(new_text) < len(old_text):
                counts["witnesses_shorter"] += 1
            elif len(new_text) > len(old_text):
                counts["witnesses_longer"] += 1
        else:
            moduli = {tuple(q["branches"]): q["modulus"] for q in old["refuting_quotients"]}
            for q in new["refuting_quotients"]:
                before = moduli.get(tuple(q["branches"]))
                if before is not None and before != q["modulus"]:
                    counts["quotients_moved"] += 1
                    _count_direction(counts, "quotients_", before, q["modulus"])
            _count_direction(counts, "combined_", old["combined_modulus"], new["combined_modulus"])
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_CHECKOUT")
    parser.add_argument("--emit", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.parent, args.emit)
        return 0
    parent, change = [], []
    for seed in SEEDS:
        parent += answers(args.parent, seed)
        change += answers(ROOT, seed)
    counts = compare(parent, change)
    print(json.dumps(counts))
    return 1 if counts["verdicts_moved"] or counts["branches_moved"] else 0


if __name__ == "__main__":
    sys.exit(main())
