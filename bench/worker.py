"""One measuring process of the benchmark (started by run.py).

    python3 bench/worker.py --workload NAME --seed N --part K --seconds S
        --count C --warmup W [--trace]

The process imports profint from ``src/`` of the checkout it sits in, runs
the warm-up pass (set-up time ends there), then runs requests one at a time
in a closed loop until at least C requests are done and S seconds have been
spent inside requests.  Its requests are part K of the run: each part of a
run draws its own inputs from the seed.  Every answer is checked outside the
timed region.  Request times and set-up time are CPU time of this process,
with the reference kernel timed in between (see run.py).  The last line of
standard output is a JSON summary.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import process_time, thread_time

import arith
import reference

ROOT = Path(__file__).resolve().parent.parent
WARMUP_SEED = "warm-up"  # never a timed seed: timed seeds are integers
REFERENCE_EVERY_S = 0.02  # request time between two timings of the reference kernel


def load(workload: str):
    """Import profint from this checkout and return the named workload."""
    sys.path.insert(0, str(ROOT / "src"))
    import profint
    import workloads

    if Path(profint.__file__).resolve().parent != ROOT / "src" / "profint":
        raise SystemExit(f"error: imported profint from {profint.__file__}, not this checkout")
    return workloads.WORKLOADS[workload]


def warm_up(workload, count: int):
    requests = workload.requests(random.Random(WARMUP_SEED))
    for _ in range(count):
        workload.execute(next(requests))


def run_pass(workload, name, seed, part, seconds, count, tracer=None) -> dict:
    """Closed loop of single requests until at least `count` are done and
    `seconds` have been spent inside them; each answer is checked right after
    its own request, outside the timed region.  Size metrics cover the first
    `count` requests."""
    from profint import _numutil

    requests = workload.requests(random.Random(f"{name}/{seed}/{part}"))
    check_rng = random.Random(f"{name}/check/{seed}/{part}")
    latencies, sizes, int_bits, refuting_bits = [], [], [], []
    failed, busy, hits, misses = 0, 0.0, 0, 0
    samples, marks, next_sample, peak_rss = [], [], 0.0, 0
    while len(latencies) < count or busy < seconds:
        if busy >= next_sample:
            samples.append(reference.reference_ms())
            next_sample = busy + REFERENCE_EVERY_S
        marks.append(len(samples) - 1)
        req = next(requests)
        before = _numutil.perfect_root.cache_info()
        if tracer:
            tracer.request, tracer.active = len(latencies), True
        start = thread_time()
        try:
            printed = workload.execute(req)
        except Exception as exc:  # a failed request is counted, not fatal
            printed = exc
        elapsed = thread_time() - start
        if tracer:
            tracer.active = False
        after = _numutil.perfect_root.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        busy += elapsed
        latencies.append(elapsed)
        ok, modulus = False, None
        if isinstance(printed, Exception):
            report(name, req, printed)
        else:
            try:
                ok, modulus = workload.check(req, printed, check_rng)
            except Exception as exc:  # an unreadable answer fails its check
                report(name, req, exc)
            if not ok:
                print(f"{name}: wrong answer {printed!r:.300} for {req!r:.300}", file=sys.stderr)
        failed += not ok
        if len(latencies) <= count and not isinstance(printed, Exception):
            sizes.append(sum(len(s) for s in printed))
            int_bits.append(arith.max_int_bits(printed))
            if modulus is not None:
                refuting_bits.append(modulus.bit_length())
        if len(latencies) == count:
            peak_rss = peak_rss_mb()
    samples.append(reference.reference_ms())
    return {
        "attempted": len(latencies),
        "failed": failed,
        "busy_s": busy,
        # the kernel's time around each request: the samples before and after it
        "reference_ms": [(samples[k] + samples[k + 1]) / 2 for k in marks],
        "first_reference_ms": samples[0],
        "latencies_ms": [x * 1e3 for x in latencies],
        "witness_bytes": sizes,
        "max_int_bits": max(int_bits, default=0),
        "refuting_bits": refuting_bits,
        "perfect_root_hit_ratio": hits / (hits + misses) if hits + misses else 0,
        "peak_rss_mb": peak_rss,
    }


def peak_rss_mb() -> float:
    """The peak resident set of this process so far.  On Linux this is VmHWM:
    ru_maxrss would also count the parent's resident set at the fork that
    started this process, which grows as run.py collects results."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(name, req, exc):
    print(f"{name}: request {req!r:.300} failed:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def main(argv=None):
    before = reference.reference_ms()
    start = process_time()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = load(args.workload)
    warm_up(workload, args.warmup)
    setup_s = process_time() - start
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_pass(
        workload, args.workload, args.seed, args.part, args.seconds, args.count, tracer
    )
    result["setup_s"] = setup_s
    # set-up ran between this kernel sample and the first one of the pass
    result["setup_reference_ms"] = (before + result.pop("first_reference_ms")) / 2
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
