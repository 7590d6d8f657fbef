import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fespulse.optimize
import fespulse.planner
from fespulse import (
    ModelParams,
    OptOutcome,
    ProgramSpec,
    QuadratureNoConvergence,
    StepCollision,
    plan_endurance,
    steady_state_root,
)
from fespulse.checks import fatigue_response
from fespulse.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    _CSV_CHUNK_ROWS,
    _write_csv,
    load_config,
    main,
    parse_config,
)

from conftest import traced_peak

NOMINAL = """\
[model]
k_m = 0.103

[train]
times = 0
amplitudes = 1
horizon = 200.0

[sim]
step = 0.4
"""


def edited(text: str, old: str, new: str) -> str:
    """``text`` with ``old`` replaced by ``new``; ``old`` must occur in it."""
    assert old in text, f"{old!r} not in the scenario"
    return text.replace(old, new)


def write(tmp_path: Path, text: str, name: str = "scenario.ini") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_round_trip_identity():
    cfg = parse_config(NOMINAL)
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.sha256() == cfg.sha256()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("[model]\nk_m = 0.1\nbogus = 3\n")
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\ntau_c = abc\n")


def test_config_requires_k_m():
    cfg = parse_config("[model]\ntau_c = 20.0\n")
    with pytest.raises(ConfigError):
        cfg.model_params()


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_single_pulse_peak(tmp_path):
    cfg = write(tmp_path, NOMINAL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["peak_c_n"] - 1.0 / math.e) < 1e-9
    assert summary["peak_c_n_time_ms"] == pytest.approx(20.0)
    header = (out / "trajectory.csv").read_text().splitlines()[:4]
    assert header[0].startswith("# artifact_version=")
    assert header[1].startswith("# config_sha256=")


def test_simulate_zero_amplitude_train(tmp_path):
    cfg = write(tmp_path, NOMINAL.replace("amplitudes = 1", "amplitudes = 0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [
        line.split(",")
        for line in (out / "trajectory.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("t_ms")
    ]
    assert all(float(r[2]) == 0.0 for r in rows)


def _file_body(path: Path, columns) -> bytes:
    raw = path.read_bytes()
    head = (",".join(columns) + "\n").encode()
    return raw[raw.index(head) + len(head):]


def _g9_cases(rng: np.random.Generator) -> np.ndarray:
    """Values that probe every branch of the CSV formatter, shuffled."""
    special = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310,
               2.2250738585072009e-308, 1e-300, 1e-290, 1e290, 1.7976931348623157e308,
               1e16, 0.1, 1.0 / 3.0, -123456789.987654321, 12345678950.0, 99999.99995,
               1e-4, 9.99999999e-5, 1e9, 999999999.5, 123456789.5]
    bits = rng.integers(0, 2**64, size=420_000, dtype=np.uint64).view(float)
    log_uniform = 10.0 ** rng.uniform(-320.0, 308.0, size=420_000)
    # (k + 1/2)·10^e with k of 9 digits: the double nearest to it and both
    # of its neighbours.
    k = rng.integers(10**8, 10**9, size=30_000)
    e = rng.integers(-300, 290, size=k.size)
    ties = np.array([float(f"{kk}.5e{ee}") for kk, ee in zip(k.tolist(), e.tolist())])
    # 10^p(1 - d·5e-10): d = 1 is the carry boundary 999999999.5·10^(p-9),
    # and below 10^p log10 may round up to p.
    carries = np.array([
        float(Decimal(f"1e{p}") * (1 - Decimal(d) * Decimal("5e-10")))
        for p in range(-300, 301) for d in ("0", "0.1", "0.5", "1", "1.5", "2", "3")
    ])
    # Exact ties m·10^j / 2 with m odd and of 10 digits: doubles for
    # j = -3..6 when 5^-j divides m.
    j = rng.integers(-3, 7, size=20_000)
    f = 5 ** np.maximum(-j, 0)
    m = f * (2 * rng.integers(10**8 // f, 10**9 // f) + 1)
    dyadic = np.array([float(Fraction(int(mm)) * Fraction(10) ** int(jj) / 2)
                       for mm, jj in zip(m, j)])
    subnormal = rng.integers(1, 2**52, size=10_000, dtype=np.uint64).view(float)
    short = rng.integers(-10**6, 10**6, size=60_000) / 10.0 ** rng.integers(0, 12, size=60_000)
    values = np.concatenate([
        special, bits, log_uniform, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        carries, np.nextafter(carries, 0.0), np.nextafter(carries, np.inf), dyadic, subnormal,
        short,
    ])
    values.view(np.uint64)[len(special):] ^= rng.integers(0, 2, size=values.size - len(special),
                                                          dtype=np.uint64) << np.uint64(63)
    return rng.permutation(values)


def test_csv_writer_matches_format_9g(tmp_path):
    values = _g9_cases(np.random.default_rng(20260))
    assert values.size >= 1_000_000
    # Tables of 1-5 columns whose row counts are not whole chunks.
    shapes = [(100_003, 2), (50_007, 3), (40_009, 4), (22_223, 5)]
    shapes.insert(0, (values.size - sum(r * c for r, c in shapes), 1))
    cfg, start = parse_config(NOMINAL), 0
    for n_rows, n_cols in shapes:
        assert n_rows % _CSV_CHUNK_ROWS != 0
        table = values[start:start + n_rows * n_cols].reshape(n_rows, n_cols)
        start += table.size
        columns = [f"c{i}" for i in range(n_cols)]
        path = tmp_path / f"x{n_cols}.csv"
        _write_csv(path, cfg, "simulate", 0, columns, list(table.T))
        expected = "".join(",".join(format(v, ".9g") for v in row) + "\n" for row in table.tolist())
        assert _file_body(path, columns) == expected.encode()


@pytest.mark.parametrize("n_rows", [50_000, 400_000])
def test_csv_writer_memory_stays_at_one_block(tmp_path, n_rows):
    # Beyond the table, the writer holds one block's temporaries (about
    # 1.5 MB for 4 columns), not the body: writing it whole took 5 MB at
    # 50 000 rows and 40 MB at 400 000.
    rng = np.random.default_rng(n_rows)
    data = [np.linspace(0.0, 1e4, n_rows), rng.uniform(0.0, 1.0, n_rows),
            rng.lognormal(-3.0, 2.0, n_rows), rng.uniform(2e-3, 4e-3, n_rows)]
    cfg = parse_config(NOMINAL)
    peak, _ = traced_peak(
        lambda: _write_csv(tmp_path / "x.csv", cfg, "simulate", 0, ["t", "c", "f", "a"], data)
    )
    assert peak - n_rows * len(data) * 8 < 3_000_000


def test_csv_writer_holds_no_copy_of_the_table(tmp_path):
    # Each block is interleaved from the columns' rows: the whole write,
    # the 12.8 MB table of 400 000 x 4 values not excluded, peaks at one
    # block's temporaries. A copy of the table would add 12.8 MB.
    n_rows = 400_000
    rng = np.random.default_rng(n_rows)
    data = [np.linspace(0.0, 1e4, n_rows), rng.uniform(0.0, 1.0, n_rows),
            rng.lognormal(-3.0, 2.0, n_rows), rng.uniform(2e-3, 4e-3, n_rows)]
    cfg = parse_config(NOMINAL)
    peak, _ = traced_peak(
        lambda: _write_csv(tmp_path / "x.csv", cfg, "simulate", 0, ["t", "c", "f", "a"], data)
    )
    assert peak < 3_000_000


def test_simulate_outputs_byte_identical(tmp_path):
    cfg = write(tmp_path, NOMINAL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("trajectory.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_artifacts_are_written_in_binary_mode(tmp_path, monkeypatch):
    # Text mode would turn "\n" into os.linesep and encode with the locale.
    def text_mode(*args, **kwargs):
        raise AssertionError("an artifact was written in text mode")

    real_open = Path.open

    def binary_open(self, mode="r", *args, **kwargs):
        if "b" not in mode and set(mode) & set("wax+"):
            raise AssertionError("an artifact was opened in text mode")
        return real_open(self, mode, *args, **kwargs)

    cfg = write(tmp_path, NOMINAL)
    monkeypatch.setattr(Path, "write_text", text_mode)
    monkeypatch.setattr(Path, "open", binary_open)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


# ---------------------------------------------------------------------------
# approximate / optimize
# ---------------------------------------------------------------------------


def test_approximate_writes_columns(tmp_path):
    cfg = write(
        tmp_path,
        """\
[model]
k_m = 0.103

[train]
times = 0, 25, 55
amplitudes = 1, 0.7, 0.9
horizon = 160.0
i_min = 20.0

[approx]
scheme = affine-constant
p = 2
""",
    )
    out = tmp_path / "out"
    assert main(["approximate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    head = (out / "approximation.csv").read_text().splitlines()[4]
    assert head == "t_ms,c_n,c_n_truncated,f_tilde_kN,f_oracle_kN"
    summary = json.loads((out / "approx_summary.json").read_text())
    assert summary["max_abs_force_gap_kN"] < 0.05


OPT_SMALL = """\
[model]
k_m = 0.103

[objective]
kind = max_cn_terminal

[solver]
n = 2
i_min = 20.0
init_horizon = 300.0
freeze_amplitudes = true
"""


def test_optimize_small_scenario(tmp_path):
    cfg = write(tmp_path, OPT_SMALL)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    assert sol["status"] == "converged"
    assert sol["kkt"]["residual"] < 1e-6
    assert sol["objective"] < sol["objective_at_init"]
    assert len(sol["multipliers"]) == 3 * 2 + 4
    lines = (out / "response.csv").read_text().splitlines()
    assert lines[4] == "t_ms,approx,oracle"


def test_optimize_unconverged_solve_is_solver_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fespulse.optimize, "_INNER_MAX_ITER", 1)
    cfg, out = write(tmp_path, OPT_SMALL), tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("solver did not converge: status=max_iterations\n")
    assert not (out / "solution.json").exists()


def test_optimize_terminal_force_figure_scenario(tmp_path):
    cfg = write(
        tmp_path,
        """\
[model]
k_m = 0.103

[objective]
kind = max_force_terminal
backend = approx

[solver]
n = 7
i_min = 20.0
init_horizon = 1000.0
freeze_amplitudes = true
""",
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    assert len(sol["times_ms"]) == 8 and sol["times_ms"][0] == 0.0
    assert len(sol["multipliers"]) == 3 * 7 + 4  # spacing constraints reported
    assert sol["kkt"]["residual"] < 1e-6
    assert sol["horizon_ms"] > sol["times_ms"][-1]


def test_optimize_reports_the_horizon_cap_multiplier_last(tmp_path):
    # A weak target pushes T against t_max = 1500 ms, and solution.json
    # reports the cap's active multiplier after the other 3n+3.
    params = ModelParams(k_m=0.103)
    _, c_ref = steady_state_root(params, params.a_rest, 0.05)
    text = edited(OPT_SMALL, "kind = max_cn_terminal", f"kind = track_cn\nc_ref = {c_ref!r}")
    text = edited(text, "init_horizon = 300.0", "init_horizon = 400.0")
    out = tmp_path / "out"
    assert main(["optimize", "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    assert sol["status"] == "converged"
    assert sol["horizon_ms"] > 1499.99
    assert len(sol["multipliers"]) == 3 * 2 + 4
    assert sol["multipliers"][-1] > 1e-4


def test_validate_default_suite_passes(tmp_path):
    cfg = write(tmp_path, NOMINAL + "\n[validate]\nn_trains = 2\n")
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out), "--seed", "9"]) == EXIT_OK
    report = json.loads((out / "validation.json").read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"lobe-peak-value", "sim-vs-quadrature", "truncation-bound-dominates",
            "force-error-bound-dominates", "nu-upper-envelope",
            "fatigue-recovery-rate"} <= names


def test_optimize_infeasible_config_clean_error(tmp_path):
    bad = OPT_SMALL.replace("\nn = 2\n", "\nn = 40\n").replace("i_min = 20.0", "i_min = 60.0")
    assert "\nn = 40\n" in bad and "i_min = 60.0" in bad
    cfg = write(tmp_path, bad)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_optimize_init_horizon_needs_room_for_n_plus_one_gaps(tmp_path):
    # n = 3 pulses after t_0 split a 70 ms horizon into four 17.5 ms gaps,
    # below i_min = 20: a config error, not a solver failure.
    tight = OPT_SMALL.replace("\nn = 2\n", "\nn = 3\n")
    tight = tight.replace("init_horizon = 300.0", "init_horizon = 70")
    assert "i_min = 20.0" in tight
    out = tmp_path / "out"
    assert main(["optimize", "--config", write(tmp_path, tight), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_optimize_init_horizon_must_stay_below_t_max(tmp_path):
    long = OPT_SMALL.replace("init_horizon = 300.0", "init_horizon = 300.0\nt_max = 300.0")
    out = tmp_path / "out"
    assert main(["optimize", "--config", write(tmp_path, long), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("error", [QuadratureNoConvergence])
def test_numerical_failure_is_solver_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("first line\nsecond line")

    monkeypatch.setattr("fespulse.cli.simulate_force", fail)
    cfg = write(tmp_path, NOMINAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == f"numerical failure: {error.__name__}: first line second line\n"


# ---------------------------------------------------------------------------
# validate / bench / plan
# ---------------------------------------------------------------------------


def test_validate_lobe_suite_passes(tmp_path):
    cfg = write(tmp_path, NOMINAL + "\n[validate]\nn_trains = 3\n")
    out = tmp_path / "out"
    args = ["--out", str(out), "--suite", "lobe", "--seed", "1"]
    assert main(["validate", "--config", cfg, *args]) == EXIT_OK
    report = json.loads((out / "validation.json").read_text())
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_validate_unknown_suite_is_config_error(tmp_path):
    cfg = write(tmp_path, NOMINAL)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o"), "--suite", "bogus"]) == EXIT_CONFIG


def test_validate_unknown_suite_is_config_error_whatever_the_model(tmp_path):
    # An invalid [model] (no k_m) is a failed check of a known suite; an
    # unknown suite name is rejected before the model is read.
    cfg = write(tmp_path, edited(NOMINAL, "k_m = 0.103\n", ""))
    out = tmp_path / "o"
    assert main(["validate", "--config", cfg, "--out", str(out), "--suite", "bogus"]) == EXIT_CONFIG
    assert not out.exists()
    assert main(["validate", "--config", cfg, "--out", str(out), "--suite", "lobe"]) == EXIT_VALIDATION
    assert not json.loads((out / "validation.json").read_text())["all_passed"]


def test_validate_wrong_fatigue_sign_fails(tmp_path):
    cfg = write(tmp_path, NOMINAL.replace("[train]", "[model2]").replace("[model2]", "[train]") +
                "\n[validate]\nn_trains = 2\n", name="bad_alpha.ini")
    # inject the wrong sign directly in the scenario text
    text = Path(cfg).read_text().replace("k_m = 0.103", "k_m = 0.103\nalpha_a = 0.4")
    Path(cfg).write_text(text)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out), "--suite", "fatigue"]) == EXIT_VALIDATION
    report = json.loads((out / "validation.json").read_text())
    assert not report["all_passed"]
    assert report["checks"][0]["name"] == "model-invariants"


def test_fatigue_check_negative_control_direct():
    # Bypass the dataclass invariant to exercise the check's failure path:
    # with the forcing sign flipped, A rises under load and the check fails.
    params = ModelParams()
    object.__setattr__(params, "alpha_a", 0.4)
    declined, _, rate_err = fatigue_response(params, 1.0)
    assert not declined
    assert not rate_err < 0.02


def test_bench_reports_speedup(tmp_path):
    cfg = write(tmp_path, NOMINAL + "\n[bench]\nn_points = 4000\n")
    out = tmp_path / "out"
    code = main(["bench", "--config", cfg, "--out", str(out)])
    report = json.loads((out / "bench.json").read_text())
    assert code == (EXIT_OK if report["passed"] else EXIT_VALIDATION)
    assert report["speedup"] > 1.0
    assert report["f_tilde_eval_seconds"] > 0.0
    assert report["n_points"] == 4000


def test_bench_below_threshold_exits_validation(tmp_path):
    cfg = write(tmp_path, NOMINAL + "\n[bench]\nn_points = 4000\nthreshold = 1000\n")
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    report = json.loads((out / "bench.json").read_text())
    assert report["passed"] is False
    assert report["threshold"] == 1000


PLAN_SMALL = """\
[model]
k_m = 0.103

[program]
f_ref = 0.1
n = 3
i_min = 20.0
train_horizon = 250.0
rest = 300.0
t_f = 1100.0

[sim]
step = 1.0
"""


OPT_APPROX = edited(OPT_SMALL, "kind = max_cn_terminal", "kind = max_force_terminal")
OPT_FATIGUE = "kind = track_force_fatigue\nf_ref = 0.1\nbackend = oracle\na_s = 1.5\nt_f = 1200\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("plan", PLAN_SMALL.replace("rest = 300.0", "rest = 0")),
        ("plan", PLAN_SMALL.replace("step = 1.0", "step = -1")),
        ("optimize", OPT_APPROX.replace("[solver]", "p = 0\n\n[solver]")),
        ("optimize", OPT_APPROX.replace("[solver]", "nu = -1\n\n[solver]")),
        ("optimize", OPT_APPROX.replace("[solver]", "scheme = bogus\n\n[solver]")),
        ("optimize", OPT_APPROX.replace("[solver]", "backend = oracle\n\n[sim]\nstep = -1\n\n[solver]")),
        ("approximate", NOMINAL + "\n[approx]\ntrunc_p = 0\n"),
        ("validate", NOMINAL.replace("step = 0.4", "step = -1")),
        ("validate", NOMINAL + "\n[validate]\nn_trains = 0\n"),
        ("bench", NOMINAL + "\n[bench]\nn_points = 0\n"),
        ("bench", NOMINAL + "\n[bench]\nn_points = -1\n"),
        ("bench", NOMINAL + "\n[bench]\nthreshold = 0\n"),
        ("optimize", edited(OPT_SMALL, "kind = max_cn_terminal",
                            "kind = track_force\nf_ref = 0.1\nbackend = exact")),
        ("optimize", edited(OPT_SMALL, "\nn = 2\n", "\nn = -1\n")),
        ("optimize", edited(OPT_SMALL, "[solver]\n", "[solver]\nkkt_tol = 0\n")),
        ("optimize", edited(OPT_SMALL, "i_min = 20.0", "i_min = -5")),
        ("optimize", edited(OPT_SMALL, "[solver]\n", "[solver]\namplitude = 2\n")),
        ("plan", edited(PLAN_SMALL, "f_ref = 0.1", "f_ref = 0")),
        ("plan", edited(PLAN_SMALL, "f_ref = 0.1", "f_ref = -1")),
        ("plan", edited(PLAN_SMALL, "\nn = 3\n", "\nn = -1\n")),
        ("plan", edited(PLAN_SMALL, "i_min = 20.0", "i_min = -1")),
        ("plan", edited(PLAN_SMALL, "train_horizon = 250.0", "train_horizon = 0")),
        ("simulate", edited(NOMINAL, "horizon = 200.0", "horizon = 200.0\ni_min = -5")),
        ("optimize", edited(OPT_SMALL, "kind = max_cn_terminal", OPT_FATIGUE + "rest = -5.0")),
        ("optimize", edited(OPT_SMALL, "kind = max_cn_terminal", OPT_FATIGUE + "rest = 0")),
        ("simulate", edited(NOMINAL, "times = 0\n", "")),
        ("simulate", edited(NOMINAL, "horizon = 200.0\n", "")),
        ("optimize", edited(OPT_SMALL, "kind = max_cn_terminal\n", "")),
        ("optimize", edited(OPT_SMALL, "\nn = 2\n", "\n")),
        ("simulate", "k_m = 0.103\n" + NOMINAL),
        ("optimize", edited(OPT_SMALL, "freeze_amplitudes = true", "freeze_amplitudes = maybe")),
        ("optimize", edited(OPT_SMALL, "[solver]\n", "[solver]\nn_starts = 0\n")),
        ("simulate", NOMINAL.replace("step = 0.4", "step = 0")),
        ("approximate", NOMINAL.replace("step = 0.4", "step = 0")),
    ],
    ids=["plan-rest", "plan-sim_step", "optimize-p", "optimize-nu",
         "optimize-scheme", "optimize-oracle-sim_step", "approximate-trunc_p",
         "validate-sim_step", "validate-n_trains", "bench-n_points-0", "bench-n_points-neg",
         "bench-threshold-0", "optimize-backend-exact", "solver-n-neg", "solver-kkt_tol-0",
         "solver-i_min-neg", "solver-amplitude-2", "program-f_ref-0",
         "program-f_ref-neg", "program-n-neg", "program-i_min-neg", "program-train_horizon-0",
         "train-i_min-neg", "optimize-rest-neg", "optimize-rest-0", "train-no-times",
         "train-no-horizon", "objective-no-kind", "solver-no-n", "ini-unparsable",
         "solver-freeze_amplitudes-not-bool", "solver-n_starts-0", "simulate-sim_step-0",
         "approximate-sim_step-0"],
)
def test_invalid_setting_is_config_error(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", NOMINAL.replace("k_m = 0.103", "k_m = 0.103\ntau_c = nan")),
        ("simulate", NOMINAL.replace("horizon = 200.0", "horizon = inf")),
        ("simulate", NOMINAL.replace("horizon = 200.0", "horizon = nan")),
        ("simulate", NOMINAL.replace("times = 0", "times = 0, nan")),
        ("simulate", NOMINAL.replace("amplitudes = 1", "amplitudes = -inf")),
        ("optimize", OPT_SMALL.replace("i_min = 20.0", "i_min = 20.0\nt_max = inf")),
        ("plan", PLAN_SMALL.replace("f_ref = 0.1", "f_ref = nan")),
    ],
    ids=["tau_c-nan", "horizon-inf", "horizon-nan", "times-nan", "amplitudes-minus-inf",
         "t_max-inf", "f_ref-nan"],
)
def test_non_finite_value_is_config_error(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad value for [") and err.count("\n") == 1
    assert "not a finite number" in err
    assert not out.exists()


def test_plan_template_longer_than_session_is_config_error(tmp_path, capsys):
    # A weak target stretches the optimized train far past the 400 ms start.
    text = (
        "[model]\nk_m = 0.103\n\n[program]\n"
        "f_ref = 0.05\nt_f = 420\ntrain_horizon = 400\nn = 3\n"
    )
    out = tmp_path / "out"
    assert main(["plan", "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: optimized train span ") and err.count("\n") == 1
    assert "exceeds the session t_f=420.0 ms" in err
    assert not out.exists()


def test_plan_writes_program(tmp_path):
    cfg = write(tmp_path, PLAN_SMALL)
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == EXIT_OK
    prog = json.loads((out / "program.json").read_text())
    total = sum(s["duration_ms"] for s in prog["segments"])
    assert total == pytest.approx(1100.0, abs=1e-6)
    assert prog["c_n_ref"] > 0.0
    assert (out / "program_trajectory.csv").exists()


def test_plan_passes_the_benchmark_check_on_its_sessions(tmp_path, monkeypatch):
    # The two sessions of the endurance-plan benchmark workload, run and
    # checked as the benchmark does, against its independent reference.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    for op in workloads.endurance_ops():
        out = tmp_path / op.label
        cfg = write(tmp_path, op.config, f"{op.label}.ini")
        assert main([op.command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        problems, _ = checks.check_plan(op.spec, out)
        assert problems == [], op.label


def _percent_body(table: np.ndarray) -> str:
    """The CSV body as one ``%`` format of the row pattern repeated per row."""
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    return (row * len(table)) % tuple(table.ravel().tolist())


def _long_train_scenario(seed: int, pulses: int) -> str:
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(20.0 + rng.exponential(25.0, pulses - 1))])
    amps = rng.uniform(0.3, 1.0, pulses)
    return (
        "[model]\nk_m = 0.103\n\n[train]\n"
        f"times = {', '.join(map(repr, times.tolist()))}\n"
        f"amplitudes = {', '.join(map(repr, amps.tolist()))}\n"
        f"horizon = {float(times[-1]) + 100.0!r}\ni_min = 20.0\n\n[approx]\np = 8\n"
    )


@pytest.mark.parametrize(
    "command, text",
    [
        ("approximate", _long_train_scenario(60, 60)),
        # Rests of 2 s take c_N down to about 1e-47, printed in e-notation.
        ("plan", PLAN_SMALL.replace("rest = 300.0", "rest = 2000.0")
                           .replace("t_f = 1100.0", "t_f = 5000.0")
                           .replace("\n[sim]\nstep = 1.0\n", "")),
    ],
    ids=["approximate-60-pulses", "plan-long-rests"],
)
def test_csv_bodies_of_runs_equal_the_percent_format(tmp_path, monkeypatch, command, text):
    written = []

    def keep(path, cfg, cmd, seed, columns, data):
        written.append((path, columns, np.column_stack([np.asarray(c, dtype=float) for c in data])))
        _write_csv(path, cfg, cmd, seed, columns, data)

    monkeypatch.setattr("fespulse.cli._write_csv", keep)
    assert main([command, "--config", write(tmp_path, text), "--out", str(tmp_path / "out")]) == EXIT_OK
    (path, columns, table), = written
    assert len(table) > 3 * _CSV_CHUNK_ROWS
    body = _file_body(path, columns)
    assert body == _percent_body(table).encode()
    assert b"e-" in body


def test_plan_unreachable_force_is_config_error(tmp_path, capsys):
    # The saturated steady force is a_rest (tau_1 + tau_2) = 0.528 kN.
    cfg = write(tmp_path, PLAN_SMALL.replace("f_ref = 0.1", "f_ref = 1.0"))
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: f_ref=1.0 kN") and err.count("\n") == 1
    assert not out.exists()


def test_plan_unconverged_template_is_solver_failure(tmp_path, monkeypatch, capsys):
    def unconverged(objective, init, params, opts):
        return OptOutcome(
            sigma_star=init, objective=0.0, multipliers=(), kkt_residual=0.5,
            stationarity=0.5, complementarity=0.0, feasibility=0.0,
            iterations=400, status="max_iterations", options=opts,
        )

    monkeypatch.setattr("fespulse.planner.solve", unconverged)
    out = tmp_path / "out"
    assert main(["plan", "--config", write(tmp_path, PLAN_SMALL), "--out", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: template solve") and err.count("\n") == 1
    assert "status=max_iterations" in err
    assert not out.exists()


PLAN_K_RATIO = edited(PLAN_SMALL, "f_ref = 0.1", "k_ratio = 2.0")


def test_plan_f_max_solve_starts_from_the_train_horizon(tmp_path):
    # Four gaps of at least 260 ms do not fit under a 1000 ms start.
    text = edited(PLAN_K_RATIO, "i_min = 20.0\ntrain_horizon = 250.0\nrest = 300.0\nt_f = 1100.0",
                  "i_min = 260.0\ntrain_horizon = 1100.0\nt_f = 2000.0")
    out = tmp_path / "out"
    assert main(["plan", "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_OK
    prog = json.loads((out / "program.json").read_text())
    assert sum(s["duration_ms"] for s in prog["segments"]) == pytest.approx(2000.0, abs=1e-6)


def test_plan_f_max_is_simulated_at_the_sim_step(tmp_path, monkeypatch):
    seen = []
    simulate = fespulse.planner.simulate_force

    def recording(train, params, step=None):
        seen.append(step)
        return simulate(train, params, step)

    monkeypatch.setattr(fespulse.planner, "simulate_force", recording)
    out = tmp_path / "out"
    assert main(["plan", "--config", write(tmp_path, PLAN_K_RATIO), "--out", str(out)]) == EXIT_OK
    assert seen == [1.0]


def test_plan_unconverged_f_max_solve_is_solver_failure(tmp_path, monkeypatch, capsys):
    solve = fespulse.planner.solve

    def unconverged_f_max(objective, init, params, opts):
        outcome = solve(objective, init, params, opts)
        if objective.kind == "max_force_terminal":
            return replace(outcome, status="max_iterations")
        return outcome

    monkeypatch.setattr(fespulse.planner, "solve", unconverged_f_max)
    out = tmp_path / "out"
    assert main(["plan", "--config", write(tmp_path, PLAN_K_RATIO), "--out", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: template solve of max_force_terminal ended with "
                          "status=max_iterations") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, section, key",
    [
        ("simulate", NOMINAL.replace("times = 0\n", "n = 3\n"), "train", "n"),
        ("simulate", NOMINAL.replace("amplitudes = 1", "amplitude = 1"), "train", "amplitude"),
        ("optimize", edited(OPT_SMALL, "kind = max_cn_terminal",
                            "kind = max_cn_terminal\nbackend = oracle\nsim_step = 1.0"),
         "objective", "sim_step"),
        ("plan", PLAN_SMALL.replace("t_f = 1100.0", "t_f = 1100.0\nsim_step = 1.0"),
         "program", "sim_step"),
        ("validate", NOMINAL + "\n[validate]\nseed = 9\n", "validate", "seed"),
        ("validate", NOMINAL + "\n[validate]\nsuite = lobe\n", "validate", "suite"),
        ("validate", NOMINAL + "\n[validate]\nsim_step = 0.4\n", "validate", "sim_step"),
        ("plan", edited(PLAN_SMALL, "rest = 300.0", "rest_cap = 300.0"), "program", "rest_cap"),
        ("bench", NOMINAL + "\n[bench]\nn = 5\n", "bench", "n"),
        ("bench", NOMINAL + "\n[bench]\nhorizon = 360.0\n", "bench", "horizon"),
        ("bench", NOMINAL + "\n[bench]\nnu = 0.95\n", "bench", "nu"),
        ("simulate", NOMINAL + "method = adaptive\n", "sim", "method"),
        ("simulate", NOMINAL + "abs_tol = 1e-10\n", "sim", "abs_tol"),
        ("approximate", NOMINAL + "rel_tol = 1e-8\n", "sim", "rel_tol"),
        ("optimize", edited(OPT_SMALL, "[solver]\n", "[solver]\ninner_max_iter = 120\n"),
         "solver", "inner_max_iter"),
    ],
    ids=["train-n", "train-amplitude", "objective-sim_step", "program-sim_step",
         "validate-seed", "validate-suite", "validate-sim_step", "program-rest_cap",
         "bench-n", "bench-horizon", "bench-nu", "sim-method", "sim-abs_tol", "sim-rel_tol",
         "solver-inner_max_iter"],
)
def test_removed_key_is_unknown(tmp_path, capsys, command, text, section, key):
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: unknown key {key!r} in section [{section}]\n"
    assert not out.exists()


def test_plan_integrates_at_the_sim_step(tmp_path):
    columns = ["t_ms", "c_n", "force_kN", "a"]
    out, out_default = tmp_path / "out", tmp_path / "out_default"
    assert main(["plan", "--config", write(tmp_path, PLAN_SMALL), "--out", str(out)]) == EXIT_OK
    default = write(tmp_path, PLAN_SMALL.replace("\n[sim]\nstep = 1.0\n", ""), "default.ini")
    assert main(["plan", "--config", default, "--out", str(out_default)]) == EXIT_OK
    spec = ProgramSpec(f_ref=0.1, n=3, i_min=20.0, train_horizon=250.0, rest_duration=300.0,
                       t_f=1100.0, sim_step=1.0)
    traj = plan_endurance(spec, ModelParams(k_m=0.103)).trajectory
    table = np.column_stack([traj.grid, traj.channel("c_n"), traj.channel("force"),
                             traj.channel("a")])
    body = _file_body(out / "program_trajectory.csv", columns)
    assert body == _percent_body(table).encode()
    assert body != _file_body(out_default / "program_trajectory.csv", columns)


def test_optimize_step_collision_is_solver_failure(tmp_path, monkeypatch, capsys):
    def collide(*args, **kwargs):
        raise StepCollision("probe broke the time ordering")

    monkeypatch.setattr("fespulse.cli.solve", collide)
    out = tmp_path / "out"
    assert main(["optimize", "--config", write(tmp_path, OPT_SMALL), "--out", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == "solver failure: probe broke the time ordering\n"
    assert not out.exists()


def test_optimize_fatigue_start_longer_than_session_is_config_error(tmp_path, capsys):
    text = (
        "[model]\nk_m = 0.103\n\n[objective]\nkind = track_force_fatigue\nf_ref = 0.1\n"
        "backend = oracle\na_s = 1.5\nt_f = 900\nrest = 200\n\n"
        "[solver]\nn = 2\ni_min = 20.0\ninit_horizon = 1000.0\n"
    )
    out = tmp_path / "out"
    assert main(["optimize", "--config", write(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: train span 1000.0 ms exceeds the session t_f=900.0 ms\n"
    assert not out.exists()


_NO_SCIPY_RUN = """\
import json, sys
import fespulse.cli
codes = [fespulse.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_default_runs_do_not_import_scipy(tmp_path):
    # scipy loads only in the four functions that call it. Tests that run
    # those paths, and so load it, include:
    # - the quadrature oracle and the reparameterized check:
    #   test_simulate.py::test_quadrature_oracle_vs_sim_random_trains and
    #   ::test_reparam_single_pulse_and_random;
    # - the constant-average scheme and the force error bound:
    #   test_approx.py::test_constant_average_with_constant_m2_is_exact and
    #   ::test_error_bound_dominates_two_pulse_case;
    # - validate: test_validate_default_suite_passes above.
    approximate = NOMINAL.replace("times = 0\namplitudes = 1\n",
                                  "times = 0, 25, 55\namplitudes = 1, 0.7, 0.9\n")
    runs = [
        ["simulate", "--config", write(tmp_path, NOMINAL, "s.ini"), "--out", str(tmp_path / "s")],
        ["approximate", "--config", write(tmp_path, approximate, "a.ini"),
         "--out", str(tmp_path / "a")],
        ["plan", "--config", write(tmp_path, PLAN_SMALL, "p.ini"), "--out", str(tmp_path / "p")],
        ["optimize", "--config", write(tmp_path, OPT_APPROX, "o.ini"),
         "--out", str(tmp_path / "o")],
    ]
    path = [str(Path(fespulse.planner.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * 4
    assert scipy_modules == []
    assert (tmp_path / "o" / "solution.json").exists()
