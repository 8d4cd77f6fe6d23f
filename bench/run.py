"""Benchmark of profint: four seeded, closed-loop workloads.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client sends one request at a time;
each request is timed on its own and every answer is checked outside the
timed region.  The last line of standard output is one JSON object (for
``all``, one per workload, keyed by name).

``--trace 0`` prints the end-to-end metrics.  A run is PASSES fresh
processes (``worker.py``) one after another, each with its own share of the
inputs drawn from the seed and S/PASSES seconds inside requests; the
metrics pool their requests.

Times are CPU time of the worker (a request is single-threaded and never
waits, so this is its wall time less any time the host took the CPU away),
expressed at one reference speed of the machine.  A shared host runs its
CPUs faster or slower by a third and more, in phases from a fraction of a
second to minutes long.  So each worker also times a fixed kernel
(``reference.py``) between its requests, and scales each request's time by
``REFERENCE_MS`` over the mean of the kernel times just before and after it;
the kernel slows down with the requests, the scaled times do not.
``setup_s`` is the median of the PASSES scaled set-up times.

``--trace 1`` prints the per-layer metrics of one traced process, next to
one untraced process over the same requests for the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import monotonic

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175  # a whole run, all workloads included, must end within 180 s
PASSES = 4

#: Per workload: warm-up requests (part of set-up), the least number of
#: requests in a pass (the size metrics cover exactly these), requests of the
#: traced run, and the percentile reported as latency_tail_ms.  The
#: percentile is fixed so that runs stay comparable, and low enough that at
#: least ten requests of a run lie beyond it and that it moves little from
#: seed to seed.
SETTINGS = {
    "equality": {"warmup": 500, "count": 2000, "trace_count": 3000, "tail": 95},
    "sigma_systems": {"warmup": 12, "count": 100, "trace_count": 60, "tail": 90},
    "integer_systems": {"warmup": 3, "count": 100, "trace_count": 22, "tail": 90},
    "reduce": {"warmup": 40, "count": 400, "trace_count": 200, "tail": 90},
}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("witness_bytes_p50", "bytes"),
    ("peak_rss_mb", "MB"),
)


class Worker:
    """Starts worker processes one at a time against the run's deadline."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name, self.seed, self.deadline = name, seed, deadline

    def __call__(self, *flags, part=0, seconds=0.0, count=None) -> dict:
        s = SETTINGS[self.name]
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.name, "--seed", str(self.seed), "--part", str(part),
            "--seconds", str(seconds), "--count", str(s["count"] if count is None else count),
            "--warmup", str(s["warmup"]), *flags,
        ]
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - monotonic()),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: {self.name} worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> dict:
    worker = Worker(name, seed, deadline)
    passes = [worker(part=k, seconds=seconds / PASSES) for k in range(PASSES)]
    values = end_to_end_values(name, passes)
    sizes = size_values(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    tail = SETTINGS[name]["tail"]
    print(f"# {name}: {attempted} requests in {PASSES} processes, latency_tail_ms is "
          f"p{tail:g} ({attempted - ceil(tail / 100 * attempted)} beyond), "
          f"failed_ratio {failed / attempted:g}, "
          f"witness_bytes_max {sizes['witness_bytes_max']} bytes, "
          f"max_int_bits {sizes['max_int_bits']} bits, "
          f"refuting_modulus_bits_p50 {sizes['refuting_modulus_bits_p50']:g} bits, "
          f"reference kernel {statistics.median(p['setup_reference_ms'] for p in passes):.4f} ms")
    return result(attempted, failed, values, END_TO_END)


def scaled(one_pass: dict) -> list:
    """The request times of a pass at the reference speed."""
    return [
        t * reference.REFERENCE_MS / r
        for t, r in zip(one_pass["latencies_ms"], one_pass["reference_ms"])
    ]


def end_to_end_values(name: str, passes) -> dict:
    latencies = sorted(t for p in passes for t in scaled(p))
    ok_share = 1 - sum(p["failed"] for p in passes) / len(latencies)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * reference.REFERENCE_MS / p["setup_reference_ms"] for p in passes
        ),
        "throughput_ops": ok_share * len(latencies) / (sum(latencies) / 1e3),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, SETTINGS[name]["tail"]),
        "witness_bytes_p50": size_values(passes)["witness_bytes_p50"],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def size_values(passes) -> dict:
    """Output sizes over the first `count` requests of each pass, which are
    exactly repeatable for a seed."""
    sizes = [b for p in passes for b in p["witness_bytes"]]
    refuting = [b for p in passes for b in p["refuting_bits"]]
    return {
        "witness_bytes_p50": statistics.median(sizes) if sizes else 0,
        "witness_bytes_max": max(sizes, default=0),
        "max_int_bits": max(p["max_int_bits"] for p in passes),
        "refuting_modulus_bits_p50": statistics.median(refuting) if refuting else 0,
    }


def per_layer(name: str, seed: int, deadline: float) -> dict:
    worker = Worker(name, seed, deadline)
    count = SETTINGS[name]["trace_count"]
    plain = worker(count=count)
    traced = worker("--trace", count=count)
    values = per_layer_values(plain, traced)
    busy_ms = traced["busy_s"] * 1e3
    shares = sorted(
        ((v / busy_ms, k[: -len(".self_ms")]) for k, v in values.items() if k.endswith(".self_ms")),
        reverse=True,
    )
    print(f"# {name}: self-time shares of traced request time: "
          + ", ".join(f"{k} {share:.1%}" for share, k in shares if share >= 0.005))
    return result(
        plain["attempted"] + traced["attempted"],
        plain["failed"] + traced["failed"],
        values,
        tracing.per_layer_names(),
    )


def per_layer_values(plain: dict, traced: dict) -> dict:
    values = dict(traced["layers"], **size_values([traced]))
    values["numutil.perfect_root.hit_ratio"] = traced["perfect_root_hit_ratio"]
    values["bench.trace_overhead_ratio"] = sum(scaled(traced)) / sum(scaled(plain))
    return values


def result(attempted, failed, values, names) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SETTINGS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "profint" / "__init__.py").is_file():
        print(f"error: no profint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(SETTINGS) if args.workload == "all" else [args.workload]
    deadline = monotonic() + DEADLINE_S
    results = {}
    for name in names:
        if args.trace:
            results[name] = per_layer(name, args.seed, deadline)
        else:
            results[name] = end_to_end(name, args.seed, args.seconds, deadline)
        for key, metric in results[name]["metrics"].items():
            print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
