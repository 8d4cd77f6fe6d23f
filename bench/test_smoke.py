"""Smoke check of the benchmark, so that it cannot rot: each workload runs a
few requests in-process, untraced and traced, with every answer checked.

    python3 -m pytest -q bench/test_smoke.py
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.SETTINGS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()


@pytest.mark.parametrize("name", list(run.SETTINGS))
def test_workload_reports_every_metric_and_fails_nothing(name):
    workload = worker.load(name)
    worker.warm_up(workload, 1)
    plain = [
        dict(worker.run_pass(workload, name, seed=0, part=k, seconds=0, count=2),
             setup_s=0.1, setup_reference_ms=2.0)
        for k in range(2)
    ]
    import profint.solver

    untraced = profint.solver.solve_system
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_pass(workload, name, seed=0, part=0, seconds=0, count=2, tracer=tracer)
    finally:
        tracer.uninstall()
    assert profint.solver.solve_system is untraced
    traced["layers"] = tracer.summary()
    e2e = run.result(sum(p["attempted"] for p in plain), sum(p["failed"] for p in plain),
                     run.end_to_end_values(name, plain), run.END_TO_END)
    layers = run.result(traced["attempted"], traced["failed"],
                        run.per_layer_values(plain[0], traced), tracing.per_layer_names())
    for out, spec, attempted in ((e2e, SPEC["end_to_end"], 4), (layers, SPEC["per_layer"], 2)):
        assert out["correct"] and out["attempted"] == attempted
        assert out["failed"] / out["attempted"] == 0  # failed_ratio
        assert set(out["metrics"]) == {m["name"] for m in spec}
    assert layers["metrics"]["pseudonumber.Pseudonumber.init.calls"]["value"] > 0
