"""Hash the benchmark's answer streams, to show which printed outputs moved.

    python3 tools/stream_hashes.py
    python3 tools/stream_hashes.py --against BENCH_<n>.json

For seeds 11 and 12 of every workload in ``bench/workloads.py``, runs the
first requests of stream ``<workload>/<seed>/0`` (2000 equality, 150
sigma_systems, 30 integer_systems, 300 reduce) through the workload's
``execute`` and prints, as one JSON object keyed ``<workload>/<seed>/0``, the
sha256 over the concatenated ``repr`` of every result.  The profint it runs is
the one in ``src/`` of the checkout this script sits in, so running it in two
checkouts and comparing the output tells whether any verdict, witness, branch
or modulus changed.

With ``--against``, it compares each hash with the file's
``outputs.streams.<stream>.change_sha256`` instead, prints each stream that
differs (or that only one side has), and exits 1 on any difference, 0 when
all match.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUESTS = {"equality": 2000, "sigma_systems": 150, "integer_systems": 30, "reduce": 300}
SEEDS = (11, 12)


def stream_answers(workload, stream: str, count: int):
    """The ``execute`` results of the first ``count`` requests of a stream."""
    requests = workload.requests(random.Random(stream))
    for _ in range(count):
        yield workload.execute(next(requests))


def stream_hash(workload, stream: str, count: int) -> str:
    digest = hashlib.sha256()
    for result in stream_answers(workload, stream, count):
        digest.update(repr(result).encode())
    return digest.hexdigest()


def stream_hashes() -> dict:
    """Every stream's hash, keyed ``<workload>/<seed>/0``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    hashes = {}
    for name, count in REQUESTS.items():
        for seed in SEEDS:
            stream = f"{name}/{seed}/0"
            hashes[stream] = stream_hash(workloads.WORKLOADS[name], stream, count)
    return hashes


def differences(hashes: dict, document: dict) -> list:
    """(stream, hash, recorded hash) for each stream whose hash differs from
    the ``change_sha256`` that a BENCH_<n>.json document records for it; a
    stream that only one side has differs, with None for the missing hash."""
    recorded = {
        stream: entry.get("change_sha256")
        for stream, entry in document.get("outputs", {}).get("streams", {}).items()
    }
    return [
        (stream, hashes.get(stream), recorded.get(stream))
        for stream in sorted(hashes.keys() | recorded.keys())
        if hashes.get(stream) != recorded.get(stream)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="BENCH_JSON",
                        help="compare with the change_sha256 hashes recorded in this file")
    args = parser.parse_args(argv)
    hashes = stream_hashes()
    if args.against is None:
        print(json.dumps(hashes, indent=1))
        return 0
    differing = differences(hashes, json.loads(Path(args.against).read_text()))
    for stream, ours, recorded in differing:
        print(f"{stream}: {ours} differs from the recorded {recorded}")
    if not differing:
        print(f"all {len(hashes)} streams match {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
