"""The benchmark's traced mode (``perfbench/run.py --trace 1``) still hooks
the package: every module its tracer names imports, and the methods behind
the per-layer metrics of BENCHMARK.json are there to be wrapped."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from fespulse import ModelParams, PulseTrain, build_m_approx, truncated_cn
from fespulse.approx import ForceApprox, TruncatedConcentration

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (class, method, span name) behind approx.force_table.*, approx.force_eval.*
# and approx.truncated_cn.s.
HOOKS = (
    (ForceApprox, "__init__", "approx.force_table.build"),
    (ForceApprox, "values", "approx.force_eval"),
    (TruncatedConcentration, "__call__", "approx.truncated_cn"),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_the_package_and_restores_it():
    tracing = _load_tracing()
    for entry in tracing.FUNCTIONS + tracing.METHODS:
        importlib.import_module(entry[1])
    originals = [cls.__dict__[attr] for cls, attr, _ in HOOKS]
    params = ModelParams()
    train = PulseTrain((0.0, 30.0, 70.0), (1.0, 0.6, 0.9), 150.0, 20.0)
    approx = build_m_approx(train, params)
    ts = np.linspace(0.0, train.horizon, 50)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (cls, attr, _), original in zip(HOOKS, originals):
            assert cls.__dict__[attr].__wrapped__ is original
        ForceApprox(approx).values(ts, params.a_rest)
        truncated_cn(train, params, 2)(ts)
    finally:
        tracer.uninstall()
    assert [cls.__dict__[attr] for cls, attr, _ in HOOKS] == originals
    table = tracing.SpanTable(tracer)
    assert [table.calls(span) for _, _, span in HOOKS] == [1, 1, 1]
    metrics = tracing.layer_metrics(table, 1, 0.0, 0.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["approx.force_eval.ns_per_point"] > 0.0
