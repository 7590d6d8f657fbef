"""The benchmark's output checks accept correct artifacts and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import fespulse.cli  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fespulse.cli import main as cli_main  # noqa: E402


def _scenario(tmp_path: Path, op: workloads.Operation) -> Path:
    path = tmp_path / "scenario.ini"
    path.write_text(op.config)
    return path


def _edit_csv(path: Path, column: str, row: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[first].split(",").index(column)
    cells = lines[first + 1 + row].split(",")
    cells[col] = format(float(cells[col]) + delta, ".9g")
    lines[first + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def approximate_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("approx")
    train = workloads.long_train(np.random.default_rng(5), 12)
    op = workloads.approximate_op("N12", *train, p=2)
    assert cli_main(["approximate", "--config", str(_scenario(tmp, op)), "--out", str(tmp)]) == 0
    return op.spec, tmp


@pytest.fixture(scope="module")
def optimize_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("optimize")
    op = next(o for o in workloads.track_force_ops() if o.spec["n"] == 3)
    assert cli_main(["optimize", "--config", str(_scenario(tmp, op)), "--out", str(tmp)]) == 0
    return op.spec, tmp


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_approximate_artifact_passes(approximate_out):
    spec, out = approximate_out
    problems, facts = checks.check_approximate(spec, out)
    assert problems == []
    assert facts["f_tilde_gap"] > 0.0


@pytest.mark.parametrize("column,delta,message", [
    ("f_oracle_kN", 1e-4, "f_oracle_kN differs"),
    ("c_n", 1e-6, "c_n differs"),
    ("c_n_truncated", 0.5, "c_n_truncated"),
])
def test_approximate_rejects_perturbed_csv(approximate_out, tmp_path, column, delta, message):
    spec, out = approximate_out
    bad = _copy(out, tmp_path / "bad")
    _edit_csv(bad / "approximation.csv", column, 400, delta)
    problems, _ = checks.check_approximate(spec, bad)
    assert any(message in p for p in problems), problems


def test_refinement_check():
    assert checks.check_refinement({2: 0.08, 8: 0.01}, "N30") == []
    assert checks.check_refinement({2: 0.01, 8: 0.01}, "N30") != []


def test_optimized_train_passes(optimize_out):
    spec, out = optimize_out
    problems, facts = checks.check_track_force(spec, out)
    assert problems == []
    assert facts["cost"] < facts["start_cost"]


def test_optimized_train_rejects_pulse_under_i_min(optimize_out, tmp_path):
    spec, out = optimize_out
    bad = _copy(out, tmp_path / "bad")
    sol = json.loads((bad / "solution.json").read_text())
    sol["times_ms"][2] = sol["times_ms"][1] + spec["i_min"] - 0.5
    (bad / "solution.json").write_text(json.dumps(sol))
    problems, _ = checks.check_track_force(spec, bad)
    assert any("under i_min" in p for p in problems), problems


def test_optimized_train_rejects_perturbed_oracle(optimize_out, tmp_path):
    spec, out = optimize_out
    bad = _copy(out, tmp_path / "bad")
    _edit_csv(bad / "response.csv", "oracle", 100, 1e-5)
    problems, _ = checks.check_track_force(spec, bad)
    assert any("oracle differs" in p for p in problems), problems


def _c_n_for_force(f_ref: float) -> float:
    """Independent inverse of A m1/m2 = f_ref: a quadratic in m1."""
    m = ref.MODEL
    a = m["a_rest"] * 1e-3
    m1 = (-a * m["tau_1"] + math.sqrt((a * m["tau_1"]) ** 2 + 4 * a * m["tau_2"] * f_ref)) / (
        2 * a * m["tau_2"])
    return m["k_m"] * m1 / (1.0 - m1)


def _write_program(out: Path, spec: dict, c_n_ref: float, breach) -> None:
    """A one-train session with its trajectory taken from the reference."""
    times, amps, horizon = [0.0, 40.0, 85.0], [0.9, 0.7, 1.0], 120.0
    t_f = spec["t_f"]
    out.mkdir()
    segments = [
        {"kind": "train", "start_ms": 0.0, "duration_ms": horizon, "times_ms": times,
         "amplitudes": amps},
        {"kind": "rest", "start_ms": horizon, "duration_ms": t_f - horizon},
    ]
    prog = {"f_ref_kN": spec["f_ref"], "c_n_ref": c_n_ref,
            "a_threshold": ref.MODEL["a_rest"] / spec["k_fatigue"],
            "fatigue_breach_time_ms": breach, "segments": segments, "train_summaries": []}
    (out / "program.json").write_text(json.dumps(prog))
    grid = np.linspace(0.0, t_f, 1001)
    sol = ref.solve(times, amps, t_f, grid, fatigue=True, boundaries=[horizon])
    rows = ["# synthetic", "t_ms,c_n,force_kN,a"] + [
        ",".join(format(v, ".9g") for v in row) for row in zip(grid, sol.c_n, sol.force, sol.a)]
    (out / "program_trajectory.csv").write_text("\n".join(rows) + "\n")


PLAN_SPEC = {"f_ref": 0.15, "t_f": 500.0, "rest": 380.0, "k_fatigue": 1.1, "i_min": 20.0}


def test_plan_check_accepts_consistent_program(tmp_path):
    _write_program(tmp_path / "ok", PLAN_SPEC, _c_n_for_force(0.15), None)
    assert checks.check_plan(PLAN_SPEC, tmp_path / "ok")[0] == []


def test_plan_check_rejects_wrong_c_n_ref(tmp_path):
    _write_program(tmp_path / "bad", PLAN_SPEC, 1.001 * _c_n_for_force(0.15), None)
    problems, _ = checks.check_plan(PLAN_SPEC, tmp_path / "bad")
    assert any("c_n_ref" in p for p in problems), problems


def test_plan_check_rejects_invented_breach(tmp_path):
    _write_program(tmp_path / "bad", PLAN_SPEC, _c_n_for_force(0.15), 250.0)
    problems, _ = checks.check_plan(PLAN_SPEC, tmp_path / "bad")
    assert any("fatigue_breach_time_ms" in p for p in problems), problems


def test_plan_check_rejects_perturbed_force(tmp_path):
    _write_program(tmp_path / "bad", PLAN_SPEC, _c_n_for_force(0.15), None)
    _edit_csv(tmp_path / "bad" / "program_trajectory.csv", "force_kN", 300, 1e-5)
    problems, _ = checks.check_plan(PLAN_SPEC, tmp_path / "bad")
    assert any("force_kN differs" in p for p in problems), problems


def test_plan_check_rejects_train_past_session(tmp_path):
    _write_program(tmp_path / "bad", dict(PLAN_SPEC, t_f=500.0), _c_n_for_force(0.15), None)
    problems, _ = checks.check_plan(dict(PLAN_SPEC, t_f=600.0), tmp_path / "bad")
    assert any("not t_f" in p for p in problems), problems


def test_tracer_records_layers_and_restores_names(tmp_path):
    train = workloads.long_train(np.random.default_rng(7), 8)
    op = workloads.approximate_op("N8", *train, p=2)
    argv = ["approximate", "--config", str(_scenario(tmp_path, op)), "--out", str(tmp_path)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fespulse.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert fespulse.cli.main is cli_main
    table = tracing.SpanTable(tracer)
    assert table.calls("cli.main") == 1
    assert table.calls("simulate.simulate_force") == 1
    assert table.calls("model.eval_cn") > 1
    assert 0.0 < table.self_seconds("cli.main") < table.seconds("cli.main")
    assert set(tracing.layer_metrics(table, 1, 0.0, 0.0)) == set(tracing.LAYER_METRICS)
