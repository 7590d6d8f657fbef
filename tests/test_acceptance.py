"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured figure so the run doubles as a report."""

import time

import numpy as np
import pytest

from fespulse import (
    DecisionVector,
    ModelParams,
    ObjectiveSpec,
    PulseTrain,
    SolveOptions,
    eval_m1,
    eval_m2,
    persistence_order,
    simulate_force,
    solve,
    steady_state_root,
)
from fespulse import checks
from fespulse.checks import random_train
from fespulse.optimize import objective_value

from conftest import rk4_cn_max_error

P = ModelParams()


def report(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS {detail}")


@pytest.fixture(scope="module")
def ocp1_outcome():
    spec = ObjectiveSpec(kind="max_force_terminal", backend="approx")
    init = DecisionVector.regular(7, 1000.0, amplitude=1.0, freeze_amplitudes=True)
    t0 = time.perf_counter()
    out = solve(spec, init, P, SolveOptions(i_min=20.0))
    return out, init, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ocp2a_outcome():
    spec = ObjectiveSpec(kind="track_force", f_ref=0.1, backend="approx", nu=0.95)
    init = DecisionVector.regular(5, 1000.0, amplitude=1.0)
    out = solve(spec, init, P, SolveOptions(i_min=20.0))
    return spec, init, out


@pytest.fixture(scope="module")
def ocp2b_outcome():
    spec = ObjectiveSpec(kind="track_force", f_ref=0.2, backend="approx")
    init = DecisionVector.regular(7, 1000.0, amplitude=1.0)
    out = solve(spec, init, P, SolveOptions(i_min=20.0))
    return spec, init, out


def test_criterion_01_closed_form_concentration_vs_ode():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        train = random_train(rng, n_max=10)
        worst = max(worst, rk4_cn_max_error(train, P, step=0.2))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    report("ACCEPT-01", f"closed-form c_N vs RK4: max err {worst:.3e} over 50 trains in {elapsed:.1f}s")


def test_criterion_02_lobe_law():
    worst_peak, worst_mass, inflection_ok = checks.lobe_law(P, np.random.default_rng(202), 50)
    assert inflection_ok  # inflection at t_k + 2 tau_c
    assert worst_peak < 1e-10
    assert worst_mass >= 0.95
    report("ACCEPT-02", f"lobe law: peak rel err {worst_peak:.2e}, min 5tau mass fraction {worst_mass:.4f}")


def test_criterion_03_oracle_concordance():
    worst_sq, worst_rq = checks.oracle_concordance(P, np.random.default_rng(303), 50, 0.2)
    assert worst_sq < 1e-6 and worst_rq < 1e-6
    assert worst_sq + worst_rq < 1e-6  # covers the third pair by triangle bound
    report(
        "ACCEPT-03",
        f"oracle concordance: sim-vs-quad {worst_sq:.2e}, reparam-vs-quad {worst_rq:.2e} (50 trains)",
    )


def _persistent_train(rng: np.random.Generator, p: int, i_min: float = 20.0) -> PulseTrain:
    window = 5.0 * P.tau_c
    gaps: list[float] = []
    if p == 1:
        for _ in range(int(rng.integers(2, 6))):
            gaps.append(window + rng.uniform(5.0, 90.0))
    else:
        for run in range(int(rng.integers(2, 4))):
            if run > 0:
                gaps.append(window + rng.uniform(5.0, 90.0))
            gaps.extend(rng.uniform(i_min, min(window, 95.0), size=p - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    horizon = float(times[-1] + rng.uniform(40.0, 120.0))
    amps = rng.uniform(0.3, 1.0, size=len(times))
    return PulseTrain(tuple(times), tuple(amps), horizon, i_min)


def test_criterion_04_truncation_bound():
    rng = np.random.default_rng(404)
    trains = []
    for p in (1, 2, 3):
        for _ in range(34):
            train = _persistent_train(rng, p)
            assert persistence_order(train, P) == p
            trains.append(train)
    cases, violations, min_margin = checks.truncation_bound(P, trains)
    assert violations == 0
    report(
        "ACCEPT-04",
        f"truncation bound: 0 violations over {cases} intervals of 102 trains, min margin {min_margin:.3e}",
    )


def test_criterion_05_force_error_bound_and_refinement():
    n_cases = 12
    nodes_checked, violations, refine_ok = checks.force_bound(
        P, np.random.default_rng(505), n_cases, 0.2
    )
    assert violations == 0
    assert nodes_checked > 3 * n_cases
    assert refine_ok >= 0.9 * n_cases
    report(
        "ACCEPT-05",
        f"force error bound: 0/{nodes_checked} node violations; refinement monotone on "
        f"{refine_ok}/{n_cases} cases",
    )


def test_criterion_06_nu_envelope_on_ocp2_grid(ocp2a_outcome):
    _, _, out = ocp2a_outcome
    worst, _, points = checks.envelope_margins(P, out.sigma_star.to_train(20.0), 0.2)
    assert worst >= -1e-9
    report(
        "ACCEPT-06",
        f"nu=0.95 upper envelope on the tracking scenario grid: min margin {worst:.3e} kN "
        f"({points} grid points)",
    )


def test_criterion_07_terminal_force_scenario(ocp1_outcome):
    out, init, elapsed = ocp1_outcome
    assert out.status == "converged"
    assert out.kkt_residual < 1e-6
    assert elapsed < 60.0
    f_init = simulate_force(init.to_train(20.0), P).terminal("force")
    f_star = simulate_force(out.sigma_star.to_train(20.0), P).terminal("force")
    assert f_star > f_init
    report(
        "ACCEPT-07",
        f"terminal-force program: kkt {out.kkt_residual:.2e}, F(T) {f_init:.4f} -> {f_star:.4f} kN "
        f"in {elapsed:.1f}s",
    )


def test_criterion_08_tracking_scenarios(ocp2a_outcome, ocp2b_outcome):
    details = []
    for spec, init, out in (ocp2a_outcome, ocp2b_outcome):
        init_cost = objective_value(spec, init, P)
        assert out.objective < init_cost
        assert out.feasibility <= 1e-8
        details.append(f"n={init.n}: cost {init_cost:.4f} -> {out.objective:.6f}")
    report("ACCEPT-08", "tracking scenarios: " + "; ".join(details))


def test_criterion_09_single_interior_time_vs_grid_search():
    tau = P.tau_c
    r_gain = P.r_bar - 1.0

    # Terminal-concentration maximization, amplitudes pinned at one.
    spec = ObjectiveSpec(kind="max_cn_terminal")
    init = DecisionVector.regular(1, 200.0, freeze_amplitudes=True)
    out_max = solve(spec, init, P, SolveOptions(i_min=20.0, n_starts=3, seed=11))
    t1g = np.arange(20.0, 200.0 + 1e-9, 0.1)
    tg = np.arange(20.1, 260.0 + 1e-9, 0.1)
    t1m, tm = np.meshgrid(t1g, tg, indexing="ij")
    r1 = 1.0 + r_gain * np.exp(-t1m / tau)
    u0, u1 = tm / tau, (tm - t1m) / tau
    cn = u0 * np.exp(-u0) + r1 * np.where(u1 > 0, u1 * np.exp(-np.maximum(u1, 0.0)), 0.0)
    cn[tm <= t1m] = -1.0
    i, j = np.unravel_index(int(np.argmax(cn)), cn.shape)
    assert abs(t1g[i] - out_max.sigma_star.times[0]) <= 0.1 + 1e-9
    assert abs(tg[j] - out_max.sigma_star.horizon) <= 0.1 + 1e-9

    # Mean-concentration tracking with the same layout.
    c_ref = 0.5
    spec = ObjectiveSpec(kind="track_cn", c_ref=c_ref)
    init = DecisionVector((1.0, 1.0), (100.0,), 200.0, freeze_amplitudes=True)
    out_trk = solve(spec, init, P, SolveOptions(i_min=20.0, n_starts=3, seed=5))

    def chi(t, ti):
        return np.exp(-(t - ti) / tau) * (tau + t - ti)

    t1g = np.arange(20.0, 150.0 + 1e-9, 0.1)
    tg = np.arange(20.1, 250.0 + 1e-9, 0.1)
    t1m, tm = np.meshgrid(t1g, tg, indexing="ij")
    valid = tm > t1m + 1e-9
    r1 = 1.0 + r_gain * np.exp(-t1m / tau)
    mean0 = (tau - chi(t1m, 0.0)) / t1m
    with np.errstate(divide="ignore", invalid="ignore"):
        mean1 = ((chi(t1m, 0.0) - chi(tm, 0.0)) + r1 * (tau - chi(tm, t1m))) / (tm - t1m)
        cost = (mean0 - c_ref) ** 2 * t1m + (mean1 - c_ref) ** 2 * (tm - t1m)
    cost[~valid] = np.inf
    i, j = np.unravel_index(int(np.argmin(cost)), cost.shape)
    assert abs(t1g[i] - out_trk.sigma_star.times[0]) <= 0.1 + 1e-9
    assert abs(tg[j] - out_trk.sigma_star.horizon) <= 0.1 + 1e-9

    report(
        "ACCEPT-09",
        "n=1 grid equivalence: terminal-max at "
        f"(t1={out_max.sigma_star.times[0]:.2f}, T={out_max.sigma_star.horizon:.2f}), tracking at "
        f"(t1={out_trk.sigma_star.times[0]:.2f}, T={out_trk.sigma_star.horizon:.2f}), both within one 0.1 ms cell",
    )


def test_criterion_10_planner_self_consistency():
    f_ref = 0.1
    m1p, c_ref = steady_state_root(P, P.a_rest, f_ref)
    m1v, m2v = float(eval_m1(c_ref, P)), float(eval_m2(c_ref, P))
    resid = abs(m1v * P.a_rest_ms / m2v - f_ref)
    assert resid < 1e-9

    # Hold the concentration at the reference and integrate the force.
    h = 0.05
    t_end = 6.5 / m2v
    steps = int(t_end / h)
    f = 0.0
    band_entry = None
    inside = True
    for j in range(steps):
        k1 = -m2v * f + m1v * P.a_rest_ms
        k2 = -m2v * (f + 0.5 * h * k1) + m1v * P.a_rest_ms
        k3 = -m2v * (f + 0.5 * h * k2) + m1v * P.a_rest_ms
        k4 = -m2v * (f + h * k3) + m1v * P.a_rest_ms
        f += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (j + 1) * h
        if band_entry is None and abs(f - f_ref) <= 0.005 * f_ref:
            band_entry = t
        if band_entry is not None and abs(f - f_ref) > 0.005 * f_ref:
            inside = False
    assert band_entry is not None and inside
    # The 0.5% band opens at ln(200)/m2 = 5.3/m2, i.e. just past 5/m2.
    assert 5.0 / m2v <= band_entry <= 5.6 / m2v
    report(
        "ACCEPT-10",
        f"planner root: equilibrium residual {resid:.2e} kN; settling into the 0.5% band at "
        f"{band_entry * m2v:.2f}/m2",
    )


def test_criterion_11_precomputed_evaluation_speedup():
    _, eval_s, oracle_s = checks.evaluation_speedup(P, 10_000)
    speedup = oracle_s / eval_s
    threshold = 5.0
    assert speedup >= threshold
    report(
        "ACCEPT-11",
        f"precomputed evaluation at 1e4 points: {eval_s * 1e3:.2f} ms vs re-simulation "
        f"{oracle_s * 1e3:.2f} ms, speedup {speedup:.1f}x (threshold {threshold}x)",
    )


def test_criterion_12_fatigue_dynamics():
    declined, drop, rate_err = checks.fatigue_response(P, 1.0)
    assert declined
    assert rate_err < 0.02
    report(
        "ACCEPT-12",
        f"fatigue: A drops by {drop:.4f} kN/s under load, recovery rate within "
        f"{rate_err * 100:.3f}% of 1/tau_fat",
    )
