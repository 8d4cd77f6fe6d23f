"""Hash the benchmark's answer streams, to show which printed outputs moved.

    python3 tools/stream_hashes.py

For seeds 11 and 12 of every workload in ``bench/workloads.py``, runs the
first requests of stream ``<workload>/<seed>/0`` (2000 equality, 150
sigma_systems, 30 integer_systems, 300 reduce) through the workload's
``execute`` and prints, as one JSON object keyed ``<workload>/<seed>/0``, the
sha256 over the concatenated ``repr`` of every result.  The profint it runs is
the one in ``src/`` of the checkout this script sits in, so running it in two
checkouts and comparing the output tells whether any verdict, witness, branch
or modulus changed.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUESTS = {"equality": 2000, "sigma_systems": 150, "integer_systems": 30, "reduce": 300}
SEEDS = (11, 12)


def stream_hash(workload, stream: str, count: int) -> str:
    requests = workload.requests(random.Random(stream))
    digest = hashlib.sha256()
    for _ in range(count):
        digest.update(repr(workload.execute(next(requests))).encode())
    return digest.hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    hashes = {}
    for name, count in REQUESTS.items():
        for seed in SEEDS:
            stream = f"{name}/{seed}/0"
            hashes[stream] = stream_hash(workloads.WORKLOADS[name], stream, count)
    print(json.dumps(hashes, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
