"""Layer spans for traced benchmark runs.

A :class:`Tracer` replaces the package's layer entry points by timing
wrappers, at every name under which a fespulse module looks them up (so
``fespulse.optimize.objective_value`` and the copy that ``fespulse.cli``
imports are both traced). Each call records a span: name, start, end and
the index of the enclosing span. Spans stay in memory, in flat arrays, and
are written out once the run ends. Nothing is patched unless a traced run
calls :meth:`Tracer.install`; :meth:`Tracer.uninstall` restores every name.

A name the package no longer defines is skipped, so the per-layer figures
of a missing layer read 0 instead of stopping the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _sim_ms_train(acc, args, kwargs, result):
    acc["simulate.simulate_force.sim_ms"] += float(args[0].horizon)


def _sim_ms_program(acc, args, kwargs, result):
    acc["simulate.simulate_force_fatigue.sim_ms"] += sum(
        float(getattr(seg, "horizon", None) or seg.duration) for seg in args[0]
    )


def _solve_iterations(acc, args, kwargs, result):
    acc["optimize.solve.iterations"] += result.iterations


def _points(acc, args, kwargs, result):
    acc["approx.force_eval.points"] += np.size(args[1])


# (span name, defining module, attribute, work hook)
FUNCTIONS = (
    ("model.eval_cn", "fespulse.model", "eval_cn", None),
    ("approx.build_m_approx", "fespulse.approx", "build_m_approx", None),
    ("approx.eval_f_tilde", "fespulse.approx", "eval_f_tilde", None),
    ("approx.force_approximator", "fespulse.approx", "force_approximator", None),
    ("approx.interval_average_cn", "fespulse.approx", "interval_average_cn", None),
    ("simulate.simulate_force", "fespulse.simulate", "simulate_force", _sim_ms_train),
    ("simulate.simulate_force_fatigue", "fespulse.simulate", "simulate_force_fatigue",
     _sim_ms_program),
    ("optimize.solve", "fespulse.optimize", "solve", _solve_iterations),
    ("optimize.objective_value", "fespulse.optimize", "objective_value", None),
    ("optimize.fd_gradient", "fespulse.optimize", "fd_gradient", None),
    ("planner.plan_endurance", "fespulse.planner", "plan_endurance", None),
    ("cli.main", "fespulse.cli", "main", None),
)

# (span name, defining module, class, attribute, work hook)
METHODS = (
    ("exppoly.piecewise_poly", "fespulse.exppoly", "ExpPoly", "piecewise_poly", None),
    # Every ForceApprox construction is a miss of the force-table cache.
    ("approx.force_table.build", "fespulse.approx", "ForceApprox", "__init__", None),
    ("approx.force_eval", "fespulse.approx", "ForceApprox", "values", _points),
    ("approx.truncated_cn", "fespulse.approx", "TruncatedConcentration", "__call__", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.work, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fespulse" or name.startswith("fespulse."))]
        for span, module, attr, hook in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original, hook)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for span, module, cls_name, attr, hook in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(span, raw.__func__, hook)))
            else:
                self._patch(cls, attr, self._wrap(span, raw, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class SpanTable:
    """Per-name totals of a recorded trace: calls, inclusive and self time."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self.dur = dur
        self.self_time = dur - child
        self.work = dict(tracer.work)

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def seconds(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        if ancestor not in self.names:
            return 0
        anc = self.names.index(ancestor)
        count = 0
        for idx in np.flatnonzero(self._mask(name)):
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != anc:
                p = self.parent[p]
            count += p >= 0
        return count


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# Per-layer metrics: name -> (unit, better). Values are per operation.
LAYER_METRICS = {
    "model.eval_cn.calls": ("count", "lower"),
    "model.eval_cn.s": ("s", "lower"),
    "exppoly.piecewise_poly.calls": ("count", "lower"),
    "exppoly.piecewise_poly.s": ("s", "lower"),
    "approx.build_m_approx.calls": ("count", "lower"),
    "approx.build_m_approx.self_s": ("s", "lower"),
    "approx.force_table.builds": ("count", "lower"),
    "approx.force_table.s": ("s", "lower"),
    "approx.force_table.hit_ratio": ("ratio", "higher"),
    "approx.force_eval.s": ("s", "lower"),
    "approx.force_eval.ns_per_point": ("ns", "lower"),
    "approx.truncated_cn.s": ("s", "lower"),
    "approx.interval_average_cn.calls": ("count", "lower"),
    "approx.interval_average_cn.s": ("s", "lower"),
    "simulate.simulate_force.calls": ("count", "lower"),
    "simulate.simulate_force.self_s": ("s", "lower"),
    "simulate.simulate_force.us_per_sim_ms": ("us", "lower"),
    "simulate.simulate_force_fatigue.calls": ("count", "lower"),
    "simulate.simulate_force_fatigue.s": ("s", "lower"),
    "simulate.simulate_force_fatigue.sim_ms": ("ms", "lower"),
    "simulate.simulate_force_fatigue.us_per_sim_ms": ("us", "lower"),
    "optimize.solve.calls": ("count", "lower"),
    "optimize.solve.self_s": ("s", "lower"),
    "optimize.solve.iterations": ("count", "lower"),
    "optimize.objective_value.calls": ("count", "lower"),
    "optimize.objective_value.s": ("s", "lower"),
    "optimize.fd_gradient.calls": ("count", "lower"),
    "optimize.fd_gradient.s": ("s", "lower"),
    "optimize.evals_per_iteration": ("ratio", "lower"),
    "planner.plan_endurance.self_s": ("s", "lower"),
    "planner.template_solves": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def layer_metrics(table: SpanTable, n_ops: int, artifact_bytes: float, overhead: float) -> dict:
    """Every per-layer metric of LAYER_METRICS, averaged per traced operation."""
    t = table
    w = t.work
    lookups = t.calls("approx.eval_f_tilde") + t.calls("approx.force_approximator")
    builds = t.calls("approx.force_table.build")
    iterations = w.get("optimize.solve.iterations", 0.0)
    sim_ms = w.get("simulate.simulate_force.sim_ms", 0.0)
    fat_ms = w.get("simulate.simulate_force_fatigue.sim_ms", 0.0)
    totals = {
        "model.eval_cn.calls": t.calls("model.eval_cn"),
        "model.eval_cn.s": t.seconds("model.eval_cn"),
        "exppoly.piecewise_poly.calls": t.calls("exppoly.piecewise_poly"),
        "exppoly.piecewise_poly.s": t.seconds("exppoly.piecewise_poly"),
        "approx.build_m_approx.calls": t.calls("approx.build_m_approx"),
        "approx.build_m_approx.self_s": t.self_seconds("approx.build_m_approx"),
        "approx.force_table.builds": builds,
        "approx.force_table.s": t.seconds("approx.force_table.build"),
        "approx.force_eval.s": t.seconds("approx.force_eval"),
        "approx.truncated_cn.s": t.seconds("approx.truncated_cn"),
        "approx.interval_average_cn.calls": t.calls("approx.interval_average_cn"),
        "approx.interval_average_cn.s": t.seconds("approx.interval_average_cn"),
        "simulate.simulate_force.calls": t.calls("simulate.simulate_force"),
        "simulate.simulate_force.self_s": t.self_seconds("simulate.simulate_force"),
        "simulate.simulate_force_fatigue.calls": t.calls("simulate.simulate_force_fatigue"),
        "simulate.simulate_force_fatigue.s": t.seconds("simulate.simulate_force_fatigue"),
        "simulate.simulate_force_fatigue.sim_ms": fat_ms,
        "optimize.solve.calls": t.calls("optimize.solve"),
        "optimize.solve.self_s": t.self_seconds("optimize.solve"),
        "optimize.solve.iterations": iterations,
        "optimize.objective_value.calls": t.calls("optimize.objective_value"),
        "optimize.objective_value.s": t.seconds("optimize.objective_value"),
        "optimize.fd_gradient.calls": t.calls("optimize.fd_gradient"),
        "optimize.fd_gradient.s": t.seconds("optimize.fd_gradient"),
        "planner.plan_endurance.self_s": t.self_seconds("planner.plan_endurance"),
        "planner.template_solves": t.calls_under("optimize.solve", "planner.plan_endurance"),
        "cli.main.self_s": t.self_seconds("cli.main"),
        "cli.artifact_bytes": artifact_bytes,
    }
    out = {name: value / n_ops for name, value in totals.items()}
    out["approx.force_table.hit_ratio"] = _ratio(lookups - builds, lookups)
    out["approx.force_eval.ns_per_point"] = 1e9 * _ratio(
        t.seconds("approx.force_eval"), w.get("approx.force_eval.points", 0.0))
    out["simulate.simulate_force.us_per_sim_ms"] = 1e6 * _ratio(
        t.seconds("simulate.simulate_force"), sim_ms)
    out["simulate.simulate_force_fatigue.us_per_sim_ms"] = 1e6 * _ratio(
        t.seconds("simulate.simulate_force_fatigue"), fat_ms)
    out["optimize.evals_per_iteration"] = _ratio(
        t.calls("optimize.objective_value"), iterations)
    out["trace.overhead"] = overhead
    return {name: out[name] for name in LAYER_METRICS}
