import math
from dataclasses import replace

import numpy as np
import pytest

from fespulse import (
    DecisionVector,
    InfeasibleSigma,
    ModelParams,
    ObjectiveSpec,
    PulseTrain,
    Rest,
    SolveOptions,
    StepCollision,
    compute_scaling,
    eval_constraints,
    fd_gradient,
    force_error_bound,
    interval_averages,
    kkt_check,
    objective_value,
    simulate_force_fatigue,
    solve,
)
from fespulse import optimize
from fespulse.approx import ForceApprox, build_m_approx
from fespulse.model import steady_state_root
from fespulse.optimize import (
    OptOutcome,
    _next_rest,
    _track_cn_residuals,
    constraint_matrix,
    horizon_gap,
)

P = ModelParams()


# ---------------------------------------------------------------------------
# decision vectors and constraints
# ---------------------------------------------------------------------------


def test_decision_vector_layout():
    sig = DecisionVector((1.0, 0.5, 0.8), (30.0, 70.0), 120.0)
    assert sig.n == 2 and sig.dimension == 6
    assert tuple(sig.flat()) == (1.0, 0.5, 0.8, 30.0, 70.0, 120.0)
    frozen = DecisionVector((1.0, 1.0), (50.0,), 100.0, freeze_amplitudes=True)
    assert list(frozen.free_mask()) == [False, False, True, True]


def test_constraint_vector_count_and_values():
    sig = DecisionVector.regular(3, 400.0, amplitude=0.999)
    xi = eval_constraints(sig, SolveOptions(i_min=20.0))
    assert len(xi) == 3 * 3 + 4
    assert np.all(xi < 0.0)  # strictly feasible


def test_constraint_active_cases():
    # Spacing at the floor and amplitude at the ceiling sit exactly on zero.
    sig = DecisionVector((1.0, 0.5), (20.0,), 100.0)
    xi = eval_constraints(sig, SolveOptions(i_min=20.0))
    assert xi[0] == 0.0          # t_0 - t_1 + i_min
    n = sig.n
    assert xi[2 * n + 2] == 0.0  # eta_0 - 1 with eta_0 = 1


def test_constraint_map_equals_written_out_rows():
    rng = np.random.default_rng(7)
    i_min = 20.0
    opts = SolveOptions(i_min=i_min)
    for n in range(7):
        for gap in (0.0, i_min):
            for overshoot in (False, True):
                t = np.cumsum(i_min + rng.uniform(0.5, 60.0, size=n + 1))
                lo, hi = (-0.04, 1.04) if overshoot else (0.0, 1.0)
                amps = rng.uniform(lo, hi, size=n + 1)
                sig = DecisionVector(tuple(amps), tuple(t[:-1]), float(t[-1]) + gap)
                times = (0.0,) + sig.times
                expected = (
                    [times[i - 1] - times[i] + i_min for i in range(1, n + 1)]
                    + [times[n] - sig.horizon + gap]
                    + [-a for a in sig.amplitudes]
                    + [a - 1.0 for a in sig.amplitudes]
                    + [sig.horizon - opts.t_max]
                )
                xi = eval_constraints(sig, opts, gap)
                assert xi.shape == (3 * n + 4,)
                assert all(x == e for x, e in zip(xi.tolist(), expected)), (n, gap, overshoot)


def test_constraint_jacobian_matches_fd():
    n = 3
    jac = constraint_matrix(n)
    sig = DecisionVector.regular(n, 400.0, amplitude=0.7)
    base = sig.flat()
    h = 1e-6
    opts = SolveOptions(i_min=20.0)
    for col in range(len(base)):
        hi = base.copy()
        hi[col] += h
        lo = base.copy()
        lo[col] -= h
        fd = (eval_constraints(sig.with_flat(hi), opts) - eval_constraints(sig.with_flat(lo), opts)) / (2 * h)
        assert np.allclose(jac[:, col], fd, atol=1e-9)


def test_horizon_gap_shifts_only_the_horizon_row():
    n = 3
    sig = DecisionVector.regular(n, 400.0, amplitude=0.7)
    plain = eval_constraints(sig, SolveOptions(i_min=20.0))
    gapped = eval_constraints(sig, SolveOptions(i_min=20.0), horizon_gap=20.0)
    assert len(gapped) == 3 * n + 4
    assert gapped[n] == pytest.approx(sig.times[-1] - sig.horizon + 20.0, abs=1e-12)
    others = np.arange(len(plain)) != n
    assert np.array_equal(gapped[others], plain[others])


def test_horizon_gap_depends_on_objective_kind():
    for kind, extra in (("track_cn", {"c_ref": 0.1}), ("track_force", {"f_ref": 0.1})):
        assert horizon_gap(ObjectiveSpec(kind=kind, **extra), 20.0) == 20.0
    for kind in ("max_force_terminal", "max_cn_terminal"):
        assert horizon_gap(ObjectiveSpec(kind=kind), 20.0) == 0.0
    assert horizon_gap(lambda sig: 0.0, 20.0) == 0.0


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="nope")
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="track_force")  # missing f_ref
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="track_force_fatigue", f_ref=0.1, backend="approx")
    with pytest.raises(ValueError, match="unknown backend 'exact'"):
        ObjectiveSpec(kind="track_force", f_ref=0.1, backend="exact")
    fatigue = {"kind": "track_force_fatigue", "f_ref": 0.1, "backend": "oracle", "a_s": 1.5,
               "t_f": 1200.0, "rest_duration": 250.0}
    for fields, message in [
        ({"kind": "track_cn"}, "track_cn needs c_ref"),
        ({**fatigue, "t_f": None}, "needs t_f, rest_duration and a_s"),
        ({**fatigue, "rest_duration": None}, "needs t_f, rest_duration and a_s"),
        ({**fatigue, "a_s": None}, "needs t_f, rest_duration and a_s"),
        ({**fatigue, "rest_duration": -5.0}, "rest_duration must be positive"),
        ({**fatigue, "rest_duration": 0.0}, "rest_duration must be positive"),
        ({**fatigue, "w1": -1.0}, "w1 must be >= 0"),
        ({**fatigue, "sim_step": 0.0}, "sim_step must be positive"),
        ({"kind": "track_force", "f_ref": 0.1, "sim_step": -1.0}, "sim_step must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            ObjectiveSpec(**fields)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SolveOptions(i_min=-5.0), "i_min must be >= 0"),
        (lambda: SolveOptions(kkt_tol=0.0), "kkt_tol must be positive"),
        (lambda: SolveOptions(n_starts=-4), "n_starts must be at least 1"),
        (lambda: DecisionVector.regular(-1, 1000.0), "n must be >= 0"),
        (lambda: DecisionVector.regular(3, 1000.0, amplitude=2.0), "amplitude must lie in"),
        (lambda: DecisionVector.regular(3, 1000.0, amplitude=-0.1), "amplitude must lie in"),
    ],
    ids=["i_min", "kkt_tol", "n_starts", "regular-n",
         "regular-amplitude-high", "regular-amplitude-low"],
)
def test_solver_settings_reject_out_of_range_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_track_cn_zero_reference_zero_amplitudes():
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.0)
    sig = DecisionVector((0.0, 0.0), (40.0,), 120.0)
    assert objective_value(spec, sig, P) == 0.0


def test_max_cn_terminal_single_pulse_peak():
    spec = ObjectiveSpec(kind="max_cn_terminal")
    sig = DecisionVector((1.0,), (), P.tau_c, freeze_amplitudes=True)
    assert objective_value(spec, sig, P) == pytest.approx(-1.0 / math.e, rel=1e-14)


def test_track_force_backends_agree_within_bound():
    spec_a = ObjectiveSpec(kind="track_force", f_ref=0.08, backend="approx",
                           scheme="constant-average")
    spec_o = ObjectiveSpec(kind="track_force", f_ref=0.08, backend="oracle", sim_step=0.2)
    sig = DecisionVector((0.9, 0.8, 0.85), (25.0, 52.0), 85.0)
    cost_a = objective_value(spec_a, sig, P)
    cost_o = objective_value(spec_o, sig, P)
    # Tolerance derived from the per-node force error bound:
    # |a^2 - b^2| <= |a-b| (|a-b| + 2|b|) summed with interval weights.
    train = sig.to_train()
    ap = build_m_approx(train, P, scheme="constant-average", p=2)
    nodes = (25.0, 52.0, 85.0)
    tol = 0.0
    for k, node in enumerate(nodes, start=1):
        rep = force_error_bound(train, P, ap, k)
        assert rep.hypotheses_ok, rep.violated
        e_k = P.a_rest_ms * rep.bound
        f_t = ForceApprox(ap).values(node, P.a_rest)
        width = node - (0.0, *nodes)[k - 1]
        tol += width * e_k * (e_k + 2.0 * abs(f_t - 0.08))
    assert abs(cost_a - cost_o) <= tol + 1e-9


def test_objective_rejects_unordered_times():
    spec = ObjectiveSpec(kind="max_cn_terminal")
    sig = DecisionVector((1.0, 1.0), (150.0,), 120.0)  # t_1 past horizon
    with pytest.raises(InfeasibleSigma):
        objective_value(spec, sig, P)


def _random_sigmas(seed: int, gap_lo: float, amp_slack: float, count: int = 60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 8))
        t = np.cumsum(rng.uniform(gap_lo, 80.0, size=n + 1))
        amps = rng.uniform(-amp_slack, 1.0 + amp_slack, size=n + 1)
        yield DecisionVector(tuple(amps), tuple(t[:-1]), float(t[-1]))


def test_track_cn_cost_equals_train_formula_bitwise():
    # The cost reads the flat sigma; it must give the very floats of the
    # interval means of the evaluation train.
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.3)
    for sig in _random_sigmas(11, 1.0, 0.04):
        train = sig.eval_train()
        widths = np.diff(train.times + (train.horizon,))
        means = interval_averages(train, P)
        expected = float(((means - spec.c_ref) ** 2 @ widths))
        assert objective_value(spec, sig, P) == expected


def test_track_cn_cost_rejects_the_probes_the_train_rejects():
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.3)
    rejected = 0
    for sig in _random_sigmas(12, -15.0, 0.1, count=200):
        try:
            sig.eval_train()
            train_error = None
        except InfeasibleSigma as exc:
            train_error = str(exc)
            rejected += 1
        if train_error is None:
            objective_value(spec, sig, P)
        else:
            with pytest.raises(InfeasibleSigma) as info:
                objective_value(spec, sig, P)
            assert str(info.value) == train_error
    assert 0 < rejected < 200


def test_fatigue_objective_runs_and_penalizes():
    spec = ObjectiveSpec(
        kind="track_force_fatigue", f_ref=0.1, backend="oracle",
        w1=1.0, a_s=P.a_rest / 2.0, t_f=900.0, rest_duration=200.0, sim_step=1.0,
    )
    sig = DecisionVector((1.0, 1.0, 1.0), (40.0, 80.0), 300.0)
    cost = objective_value(spec, sig, P)
    assert cost > 0.0
    # The fatigue penalty is active: removing it lowers the cost.
    spec0 = ObjectiveSpec(
        kind="track_force_fatigue", f_ref=0.1, backend="oracle",
        w1=0.0, a_s=P.a_rest / 2.0, t_f=900.0, rest_duration=200.0, sim_step=1.0,
    )
    assert objective_value(spec0, sig, P) < cost


def _fatigue_cost_with_masks(spec, train, params):
    """The fatigue cost with each interval's A mean taken over a full-grid
    boolean mask of the points in [a, b] (±1e-9), on the planner's session
    layout (`_next_rest`)."""
    segments, elapsed = [], 0.0
    while elapsed + train.horizon <= spec.t_f + 1e-9:
        segments.append(train)
        elapsed += train.horizon
        r = _next_rest(spec.t_f - elapsed, spec.rest_duration, train.horizon)
        if r:
            segments.append(Rest(r))
            elapsed += r
    traj = simulate_force_fatigue(segments, params, spec.sim_step)
    edges, cur = [0.0], 0.0
    for seg in segments:
        if isinstance(seg, PulseTrain):
            edges.extend(cur + t for t in seg.times[1:])
            edges.append(cur + seg.horizon)
            cur += seg.horizon
        else:
            cur += seg.duration
            edges.append(cur)
    grid, a_ch, cost = traj.grid, traj.channel("a"), 0.0
    for a, b in zip(edges, edges[1:]):
        sel = (grid >= a - 1e-9) & (grid <= b + 1e-9)
        a_mean = float(np.trapezoid(a_ch[sel], grid[sel])) / (b - a)
        cost += (traj.at("force", b) - spec.f_ref) ** 2 * (b - a)
        cost += spec.w1 * (a_mean - spec.a_s) ** 2 * (b - a)
    return cost


def test_fatigue_cost_equals_the_mask_formula_bitwise():
    rng = np.random.default_rng(29)
    for _ in range(3):
        gaps = rng.uniform(25.0, 70.0, 5)
        times = np.cumsum(gaps[:-1])
        sig = DecisionVector(tuple(rng.uniform(0.2, 1.0, 5)), tuple(times), float(gaps.sum()))
        spec = ObjectiveSpec(
            kind="track_force_fatigue", f_ref=0.1, backend="oracle", w1=0.7,
            a_s=P.a_rest / 2.0, t_f=float(rng.uniform(1200.0, 1800.0)),
            rest_duration=float(rng.uniform(150.0, 300.0)), sim_step=1.0,
        )
        expected = _fatigue_cost_with_masks(spec, sig.to_train(), P)
        assert objective_value(spec, sig, P) == expected


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_gradient_quadratic_toy():
    target = np.array([0.7, 0.4, 60.0, 150.0])

    def quadratic(sig: DecisionVector) -> float:
        return float(np.sum((sig.flat() - target) ** 2))

    sig = DecisionVector((0.5, 0.6), (45.0,), 120.0)
    grad = fd_gradient(quadratic, sig)
    exact = 2.0 * (sig.flat() - target)
    assert np.max(np.abs(grad - exact)) < 1e-6


def test_fd_gradient_track_cn_vs_analytic():
    c_ref = 0.25
    spec = ObjectiveSpec(kind="track_cn", c_ref=c_ref)
    sig = DecisionVector((0.8, 0.6), (45.0,), 130.0)
    grad = fd_gradient(spec, sig, P)

    train = sig.to_train()
    scal = compute_scaling(train, P)
    tau = P.tau_c

    def chi(t, ti):
        return math.exp(-(t - ti) / tau) * (tau + t - ti)

    # Analytic amplitude gradient: the interval means are linear in eta.
    t = (0.0, 45.0, 130.0)
    means = interval_averages(train, P)
    g_eta = np.zeros(2)
    for k in range(2):
        lo, hi = t[k], t[k + 1]
        width = hi - lo
        for i in range(k + 1):
            dmean = scal[i] * (chi(lo, t[i]) - chi(hi, t[i])) / width if t[i] <= lo else 0.0
            g_eta[i] += 2.0 * (means[k] - c_ref) * dmean * width
    assert np.allclose(grad[:2], g_eta, rtol=1e-4)

    # Analytic horizon gradient: d(mean_n)/dT = (c_N(T) - mean_n)/width.
    from fespulse import eval_cn

    width = t[2] - t[1]
    dmean_dT = (float(eval_cn(train, P, 130.0)) - means[1]) / width
    g_T = 2.0 * (means[1] - c_ref) * dmean_dT * width + (means[1] - c_ref) ** 2
    assert grad[-1] == pytest.approx(g_T, rel=1e-4)


def test_track_cn_jacobian_matches_central_differences():
    # The exact residual Jacobian against central differences of the
    # residuals, and the gradient 2 J^T r over the free coordinates against
    # fd_gradient, which stays the oracle.
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.3)
    for index, sig in enumerate(_random_sigmas(13, 5.0, 0.0)):
        sig = replace(sig, freeze_amplitudes=index % 2 == 1)
        n, base = sig.n, sig.flat()
        resid, jac = _track_cn_residuals(spec, base, n, P)
        assert float(resid @ resid) == pytest.approx(objective_value(spec, sig, P), rel=1e-12)
        fd = np.empty_like(jac)
        for i in range(len(base)):
            h = 1e-6 * max(abs(base[i]), 1.0)
            hi, lo = base.copy(), base.copy()
            hi[i] += h
            lo[i] -= h
            fd[:, i] = (_track_cn_residuals(spec, hi, n, P)[0] - _track_cn_residuals(spec, lo, n, P)[0]) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
        grad = 2.0 * jac[:, sig.free_mask()].T @ resid
        oracle = fd_gradient(spec, sig, P)
        np.testing.assert_allclose(grad, oracle, rtol=1e-6, atol=1e-6 * np.abs(oracle).max())


def test_fd_gradient_step_collision():
    spec = ObjectiveSpec(kind="max_cn_terminal")
    sig = DecisionVector((1.0, 1.0, 1.0), (10.0, 10.0 + 1e-9), 200.0, freeze_amplitudes=True)
    with pytest.raises(StepCollision):
        fd_gradient(spec, sig, P)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_requires_strictly_feasible_init():
    spec = ObjectiveSpec(kind="max_cn_terminal")
    bad = DecisionVector((1.0, 1.0), (10.0,), 200.0, freeze_amplitudes=True)
    with pytest.raises(InfeasibleSigma):
        solve(spec, bad, P, SolveOptions(i_min=20.0))


def test_solve_feasibility_preserved_and_multipliers_sign():
    spec = ObjectiveSpec(kind="max_cn_terminal")
    init = DecisionVector.regular(2, 300.0, freeze_amplitudes=True)
    out = solve(spec, init, P, SolveOptions(i_min=20.0))
    assert out.status == "converged"
    assert np.all(eval_constraints(out.sigma_star, out.options) <= 0.0)
    assert all(l >= 0.0 for l in out.multipliers)
    assert out.feasibility <= 1e-8
    assert out.kkt_residual < 1e-6


def test_track_cn_vanishing_reference_keeps_trailing_interval():
    # The last interval [t_n, T] is the only place eta_n enters the cost; a
    # collapsed interval would leave the trailing pulse free to fire.
    spec = ObjectiveSpec(kind="track_cn", c_ref=1e-7)
    out = solve(spec, DecisionVector.regular(3, 200.0), P,
                SolveOptions(i_min=20.0, t_max=500.0))
    sig = out.sigma_star
    assert sig.horizon - sig.times[-1] >= 20.0 - 1e-8
    assert max(sig.amplitudes) < 1e-3
    report = kkt_check(spec, out, P)
    assert report.complementarity == pytest.approx(out.complementarity, rel=1e-9)
    assert report.feasibility == out.feasibility


def test_solve_descends_from_init():
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.4)
    init = DecisionVector.regular(2, 240.0)
    out = solve(spec, init, P, SolveOptions(i_min=20.0))
    assert out.objective <= objective_value(spec, init, P)
    # A large-residual optimum with eta_0 nearly at its bound: every inner
    # loop must end on its stop test, not on its iteration cap.
    assert out.status == "converged"
    assert not any(entry["capped"] for entry in out.trace)
    assert out.iterations <= 150
    assert kkt_check(spec, out, P).passed


STEADY_C_REF = steady_state_root(P, P.a_rest, 0.15)[1]


@pytest.mark.parametrize(
    "first, second",
    [
        # The drifting benchmark session's second template, and its c_ref
        # rounded by 4.6e-7 relative.
        ((0.22102389910876216, 400.0), (0.221024, 400.0)),
        # The steady benchmark session's template from two starts.
        ((STEADY_C_REF, 400.0), (STEADY_C_REF, 600.0)),
    ],
)
def test_template_solves_do_not_turn_on_the_last_bit(first, second):
    # The tracking optimum is a manifold and only the barrier picks a point
    # on it; each solve must reach that point, not stop where its path ends.
    horizons = []
    for c_ref, start in (first, second):
        spec = ObjectiveSpec(kind="track_cn", c_ref=c_ref)
        out = solve(spec, DecisionVector.regular(5, start), P, SolveOptions(i_min=20.0))
        assert out.status == "converged"
        assert out.iterations <= 150
        horizons.append(out.sigma_star.horizon)
    assert horizons[0] == pytest.approx(horizons[1], rel=2e-5)


def test_trace_flags_inner_loops_that_hit_the_cap(monkeypatch):
    target = np.array([0.7, 0.4, 60.0, 150.0])

    def quadratic(sig: DecisionVector) -> float:
        return float(np.sum((sig.flat() - target) ** 2))

    init = DecisionVector((0.5, 0.6), (45.0,), 120.0)
    with monkeypatch.context() as m:
        m.setattr(optimize, "_INNER_MAX_ITER", 2)
        short = solve(quadratic, init, P, SolveOptions(i_min=20.0))
    steps = np.diff([0] + [entry["iterations"] for entry in short.trace])
    flags = [entry["capped"] for entry in short.trace]
    assert any(flags) and not all(flags)
    assert all(step == 2 for step, flag in zip(steps, flags) if flag)
    full = solve(quadratic, init, P, SolveOptions(i_min=20.0))
    assert not any(entry["capped"] for entry in full.trace)


def test_solve_deterministic():
    spec = ObjectiveSpec(kind="max_cn_terminal")
    init = DecisionVector.regular(2, 300.0, freeze_amplitudes=True)
    opts = SolveOptions(i_min=20.0, n_starts=2, seed=3)
    a = solve(spec, init, P, opts)
    b = solve(spec, init, P, opts)
    assert a.sigma_star == b.sigma_star
    assert a.objective == b.objective
    assert a.multipliers == b.multipliers
    assert a.trace == b.trace


def test_solve_evaluates_each_point_once():
    # The line search's accepted cost is carried to the next iteration, the
    # barrier trace and the outcome, and the loop's last finite-difference
    # gradient to the KKT report, instead of being evaluated again.
    seen: list[tuple[float, ...]] = []

    def convex(sig: DecisionVector) -> float:
        seen.append(tuple(sig.flat()))
        return float(np.sum((sig.flat()[2:] - np.array([60.0, 150.0])) ** 2))

    init = DecisionVector((1.0, 1.0), (50.0,), 200.0, freeze_amplitudes=True)
    out = solve(convex, init, P, SolveOptions(i_min=20.0, t_max=400.0))
    assert out.iterations > 0
    assert len(seen) == len(set(seen))
    assert out.objective == convex(out.sigma_star)


def test_solve_argmin_invariant_under_objective_scaling():
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.4)

    def base(sig: DecisionVector) -> float:
        return objective_value(spec, sig, P)

    def scaled(sig: DecisionVector) -> float:
        return 100.0 * objective_value(spec, sig, P)

    init = DecisionVector.regular(1, 150.0, freeze_amplitudes=True)
    opts = SolveOptions(i_min=20.0)
    a = solve(base, init, P, opts)
    b = solve(scaled, init, P, opts)
    assert np.max(np.abs(a.sigma_star.flat() - b.sigma_star.flat())) < 1e-3
    assert b.objective == pytest.approx(100.0 * a.objective, rel=1e-6)


def test_solve_multistart_reports_all_starts():
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.5)
    init = DecisionVector.regular(1, 200.0, freeze_amplitudes=True)
    out = solve(spec, init, P, SolveOptions(i_min=20.0, n_starts=3, seed=5))
    assert "start_objectives" in out.trace[-1]
    assert len(out.trace[-1]["start_objectives"]) == 3
    assert out.objective == min(out.trace[-1]["start_objectives"])


# ---------------------------------------------------------------------------
# KKT checks
# ---------------------------------------------------------------------------


def test_kkt_clean_interior_optimum():
    def convex(sig: DecisionVector) -> float:
        return float(np.sum((sig.flat()[2:] - np.array([60.0, 150.0])) ** 2))

    init = DecisionVector((1.0, 1.0), (50.0,), 200.0, freeze_amplitudes=True)
    out = solve(convex, init, P, SolveOptions(i_min=20.0, t_max=400.0))
    assert out.status == "converged"
    report = kkt_check(convex, out, P, tol=1e-6)
    assert report.passed
    assert max(out.multipliers) < 1e-6  # nothing active


def test_kkt_active_spacing_constraint():
    # Gentle slope keeps the active multiplier small enough that the barrier
    # slack mu/lambda stays resolvable in double precision.
    def push_left(sig: DecisionVector) -> float:
        return float((sig.times[0] / 100.0) ** 2)

    init = DecisionVector((1.0, 1.0), (80.0,), 200.0, freeze_amplitudes=True)
    out = solve(push_left, init, P, SolveOptions(i_min=20.0, t_max=400.0))
    xi = eval_constraints(out.sigma_star, out.options)
    assert abs(xi[0]) < 1e-5           # spacing bound active
    assert out.multipliers[0] > 1e-4   # with a positive multiplier
    report = kkt_check(push_left, out, P, tol=1e-6)
    assert report.passed


def test_kkt_check_uses_the_objective_horizon_gap():
    # Trailing interval exactly at the floor: the gapped horizon row is
    # active (xi = 0), the ungapped one has slack i_min.
    sig = DecisionVector((0.5, 0.5), (60.0,), 80.0)
    n = sig.n
    lam = [0.0] * (3 * n + 4)
    lam[n] = 1e-3
    fake = OptOutcome(
        sigma_star=sig, objective=0.0, multipliers=tuple(lam),
        kkt_residual=0.0, stationarity=0.0, complementarity=0.0, feasibility=0.0,
        iterations=0, status="converged", options=SolveOptions(i_min=20.0),
    )
    tracking = kkt_check(ObjectiveSpec(kind="track_cn", c_ref=0.1), fake, P)
    assert tracking.complementarity == 0.0
    terminal = kkt_check(ObjectiveSpec(kind="max_cn_terminal"), fake, P)
    assert terminal.complementarity == pytest.approx(1e-3 * 20.0, rel=1e-12)


def test_kkt_check_counts_the_horizon_cap():
    # A weak target pushes T against t_max = 1500 ms, where the cap's own
    # multiplier balances the horizon's cost gradient.
    _, c_ref = steady_state_root(P, P.a_rest, 0.05)
    spec = ObjectiveSpec(kind="track_cn", c_ref=c_ref)
    init = DecisionVector.regular(2, 400.0, freeze_amplitudes=True)
    out = solve(spec, init, P, SolveOptions(i_min=20.0))
    assert out.status == "converged"
    assert out.sigma_star.horizon > 1499.99
    assert out.multipliers[-1] > 1e-4
    report = kkt_check(spec, out, P)
    assert report.passed
    assert report.stationarity < 1e-8


def test_kkt_negative_control_non_stationary_point():
    spec = ObjectiveSpec(kind="track_cn", c_ref=0.5)
    sig = DecisionVector((0.7, 0.6), (70.0,), 220.0)
    opts = SolveOptions(i_min=20.0)
    xi = eval_constraints(sig, opts)
    lam = tuple(1e-8 / (-x) if x < 0 else 0.0 for x in xi)
    fake = OptOutcome(
        sigma_star=sig, objective=objective_value(spec, sig, P), multipliers=lam,
        kkt_residual=0.0, stationarity=0.0, complementarity=0.0, feasibility=0.0,
        iterations=0, status="converged", options=opts,
    )
    report = kkt_check(spec, fake, P, tol=1e-6)
    assert not report.passed
    assert report.stationarity > 1e-6
