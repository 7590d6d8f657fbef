import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from fespulse import (
    ForceApprox,
    MApprox,
    ModelParams,
    PulseTrain,
    build_m_approx,
    error_bound_persistent,
    eval_cn,
    eval_m1,
    eval_m2,
    force_error_bound,
    interval_averages,
    persistence_order,
    simulate_force,
    truncated_cn,
    upper_lower_envelope,
)
from fespulse.checks import T6, random_train
from fespulse.approx import _SPLIT_MARGIN, ENVELOPE_SCHEMES, SCHEMES, _refined_partition
from fespulse.model import concentration_state
from fespulse.exppoly import PiecewisePoly

P = ModelParams()
THREE_PULSE = PulseTrain((0.0, 25.0, 55.0), (1.0, 0.7, 0.9), 160.0, 20.0)


# ---------------------------------------------------------------------------
# persistence and truncation
# ---------------------------------------------------------------------------


def test_persistence_order_counts_chained_pulses():
    # gaps: 30, 150, 40, 50 with window 100 -> longest chain is 3 pulses
    train = PulseTrain((0.0, 30.0, 180.0, 220.0, 270.0), (1.0,) * 5, 360.0, 20.0)
    assert persistence_order(train, P) == 3
    lone = PulseTrain((0.0, 150.0), (1.0, 1.0), 400.0, 20.0)
    assert persistence_order(lone, P) == 1


def test_truncation_full_window_is_exact():
    trunc = truncated_cn(THREE_PULSE, P, p=THREE_PULSE.n + 1)
    ts = np.linspace(0.0, THREE_PULSE.horizon, 400)
    assert np.allclose(np.asarray(trunc(ts)), np.asarray(eval_cn(THREE_PULSE, P, ts)), atol=1e-15)


def test_truncation_keeps_last_lobe_only():
    train = PulseTrain((0.0, 40.0), (0.9, 0.8), 140.0, 20.0)
    trunc = truncated_cn(train, P, p=1)
    from fespulse import eval_lobe

    ts = np.linspace(40.0, 139.9, 50)
    assert np.allclose(np.asarray(trunc(ts)), np.asarray(eval_lobe(train, P, 1, ts)), atol=1e-15)


def test_truncation_is_lower_approximation_with_bounded_gap():
    rng = np.random.default_rng(9)
    for _ in range(10):
        train = random_train(rng)
        p = persistence_order(train, P)
        trunc = truncated_cn(train, P, p)
        for k in range(train.n + 1):
            lo, hi = train.interval(k)
            ts = np.linspace(lo, hi, 161)[:-1]  # window switches at t_{k+1}
            gap = np.asarray(eval_cn(train, P, ts)) - np.asarray(trunc(ts))
            assert np.all(gap >= -1e-12)
            assert float(gap.max()) <= error_bound_persistent(train, P, p, k) + 1e-12


def test_error_bound_zero_when_nothing_truncated():
    assert error_bound_persistent(THREE_PULSE, P, p=3, k=2) == 0.0
    assert error_bound_persistent(THREE_PULSE, P, p=5, k=1) == 0.0


@pytest.mark.parametrize(
    "times, i_min, p, k, expected",
    [
        # kappa = min(2, ceil(100/20)) = 2: bound = 2*1.143/e + 5e^-5*1.143*3
        (tuple(20.0 * i for i in range(7)), 20.0, 2, 6, 0.9564945038172374),
        # kappa = ceil(100/40) = 3 < p: bound = 3*1.143/e + 5e^-5*1.143*3
        (tuple(40.0 * i for i in range(11)), 40.0, 5, 10, 1.3769807050761962),
        # no i_min: the smallest gap, 25, gives kappa = ceil(100/25) = 4:
        # bound = 4*1.143/e + 5e^-5*1.143*2
        ((0.0,) + tuple(25.0 + 30.0 * i for i in range(10)), 0.0, 5, 10, 1.7589595392353812),
    ],
    ids=["kappa-p", "kappa-below-p", "kappa-smallest-gap"],
)
def test_error_bound_frozen_arithmetic(times, i_min, p, k, expected):
    # r_bar=1.143, tau_c=20, so the cutoff window 5 tau_c is 100 ms.
    train = PulseTrain(times, (1.0,) * len(times), times[-1] + 80.0, i_min)
    bound = error_bound_persistent(train, P, p=p, k=k)
    assert bound == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# interval and tail averages
# ---------------------------------------------------------------------------


def test_interval_average_zero_amplitudes():
    train = PulseTrain((0.0, 30.0), (0.0, 0.0), 90.0)
    assert interval_averages(train, P)[0] == 0.0


def test_interval_average_single_pulse_closed_form():
    train = PulseTrain((0.0, 45.0), (1.0, 0.5), 120.0, 20.0)
    got = interval_averages(train, P)[0]
    num = quad(lambda s: eval_cn(train, P, s), 0.0, 45.0, limit=200)[0] / 45.0
    assert got == pytest.approx(num, abs=1e-10)


def test_averages_match_quadrature_on_random_trains():
    rng = np.random.default_rng(2)
    for _ in range(4):
        train = random_train(rng)
        pts = [t for t in train.times]
        means = interval_averages(train, P)
        integrals = concentration_state(train, P).integrals(train.horizon)
        for k in range(train.n + 1):
            lo, hi = train.interval(k)
            num = quad(lambda s: eval_cn(train, P, s), lo, hi, limit=300)[0] / (hi - lo)
            assert means[k] == pytest.approx(num, abs=1e-10)
        for q in range(train.n + 1):
            t_q = train.times[q]
            inner = [t for t in pts if t > t_q]
            num = quad(
                lambda s: eval_cn(train, P, s), t_q, train.horizon, points=inner, limit=300
            )[0] / (train.horizon - t_q)
            tail = integrals[q:].sum() / (train.horizon - t_q)
            assert tail == pytest.approx(num, abs=1e-10)


def test_interval_averages_shape():
    rng = np.random.default_rng(11)
    for _ in range(25):
        train = random_train(rng, n_max=9, amp_lo=0.0)
        assert interval_averages(train, P).shape == (train.n + 1,)


# ---------------------------------------------------------------------------
# Hill-function stand-ins
# ---------------------------------------------------------------------------


def test_triangular_scheme_interpolates_at_nodes():
    ap = build_m_approx(THREE_PULSE, P, scheme="triangular", p=2)
    for node in ap.partition:
        c = eval_cn(THREE_PULSE, P, node)
        assert ap.m1_tilde.value(node) == pytest.approx(float(eval_m1(c, P)), abs=1e-12)
        assert ap.m2_tilde.value(node) == pytest.approx(float(eval_m2(c, P)), abs=1e-12)


def test_affine_constant_holds_peak_on_rising_segment():
    ap = build_m_approx(THREE_PULSE, P, scheme="affine-constant", p=2)
    lo, hi = ap.partition[2:4]  # rising half of interval 1
    peak_val = ap.m1_tilde.value(hi)
    mid = 0.5 * (lo + hi)
    assert ap.m1_tilde.value(mid) == pytest.approx(peak_val, abs=1e-12)


def test_constant_average_with_constant_m2_is_exact():
    # Zero amplitudes keep the concentration at zero, so m2 = 1/tau_1 exactly
    # and its interval mean must reproduce it.
    train = PulseTrain((0.0, 40.0), (0.0, 0.0), 100.0)
    ap = build_m_approx(train, P, scheme="constant-average", p=2)
    for t in np.linspace(0.0, 100.0, 23):
        assert ap.m2_tilde.value(t) == pytest.approx(1.0 / P.tau_1, abs=1e-12)


def test_nu_deformation_is_monotone():
    ap1 = build_m_approx(THREE_PULSE, P, scheme="triangular", p=2, nu=1.0)
    ap95 = build_m_approx(THREE_PULSE, P, scheme="triangular", p=2, nu=0.95)
    ts = np.linspace(1.0, 159.0, 80)
    m1_1 = np.array([ap1.m1_tilde.value(t) for t in ts])
    m1_95 = np.array([ap95.m1_tilde.value(t) for t in ts])
    m2_1 = np.array([ap1.m2_tilde.value(t) for t in ts])
    m2_95 = np.array([ap95.m2_tilde.value(t) for t in ts])
    assert np.all(m1_95 >= m1_1 - 1e-15)
    assert np.all(m2_95 <= m2_1 + 1e-15)


def test_m_approx_pointwise_ranges():
    rng = np.random.default_rng(17)
    train = random_train(rng)
    ap = build_m_approx(train, P, scheme="affine-constant", p=2)
    ts = np.linspace(0.0, train.horizon, 300)
    m1 = np.array([ap.m1_tilde.value(t) for t in ts])
    m2 = np.array([ap.m2_tilde.value(t) for t in ts])
    assert np.all((m1 >= -1e-12) & (m1 <= 1.0 + 1e-12))
    assert np.all(m2 > 0.0)


def test_partition_refines_pulse_intervals():
    ap = build_m_approx(THREE_PULSE, P, scheme="triangular", p=4)
    assert ap.pulse_breaks == THREE_PULSE.times + (THREE_PULSE.horizon,)
    assert len(ap.partition) == 4 * (THREE_PULSE.n + 1) + 1
    assert all(b > a for a, b in zip(ap.partition, ap.partition[1:]))
    for t in ap.pulse_breaks:
        assert any(abs(t - s) < 1e-12 for s in ap.partition)


def _loop_partition(train, state, p):
    """The refined partition built interval by interval with np.linspace."""
    pulse_breaks = tuple(train.times) + (train.horizon,)
    nodes = [pulse_breaks[0]]
    peaks = state.peaks().tolist()
    for k in range(train.n + 1):
        lo, hi = pulse_breaks[k], pulse_breaks[k + 1]
        if p == 1:
            nodes.append(hi)
            continue
        t_star = peaks[k]
        if math.isnan(t_star):
            inner = np.linspace(lo, hi, p + 1)
        else:
            margin = _SPLIT_MARGIN * (hi - lo)
            split = min(max(t_star, lo + margin), hi - margin)
            left = (p + 1) // 2
            inner = np.concatenate(
                [np.linspace(lo, split, left + 1), np.linspace(split, hi, p - left + 1)[1:]]
            )
        nodes.extend(float(x) for x in inner[1:])
    return nodes


def test_refined_partition_equals_per_interval_linspace_bitwise():
    # Leading zero amplitudes give NaN peaks (even splits); 20 ms gaps put
    # the peak past the interval end, so the split is clamped.
    rng = np.random.default_rng(23)
    trains = [random_train(rng, n_max=8) for _ in range(20)] + [
        PulseTrain((0.0, 30.0, 60.0, 80.0), (0.0, 0.0, 0.8, 1.0), 150.0, 20.0),
        PulseTrain(tuple(20.0 * k for k in range(6)), (1.0,) * 6, 120.0, 20.0),
        THREE_PULSE,
    ]
    clamped = nan = 0
    for train in trains:
        state = concentration_state(train, P)
        peaks = state.peaks()
        lo, hi = np.asarray(train.times), np.asarray(train.times[1:] + (train.horizon,))
        margin = _SPLIT_MARGIN * (hi - lo)
        nan += int(np.isnan(peaks).sum())
        clamped += int(np.sum((peaks < lo + margin) | (peaks > hi - margin)))
        for p in range(1, 9):
            nodes, pulse_breaks = _refined_partition(train, state, p)
            assert pulse_breaks == train.times + (train.horizon,)
            assert nodes.tolist() == _loop_partition(train, state, p)
    assert nan >= 2 and clamped >= 3


def test_build_m_approx_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_m_approx(THREE_PULSE, P, scheme="cubic")
    with pytest.raises(ValueError):
        build_m_approx(THREE_PULSE, P, p=0)
    with pytest.raises(ValueError):
        build_m_approx(THREE_PULSE, P, nu=-1.0)


# ---------------------------------------------------------------------------
# piecewise-affine stand-ins
# ---------------------------------------------------------------------------


def test_piecewise_poly_validation():
    with pytest.raises(ValueError):
        PiecewisePoly((0.0,), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PiecewisePoly((0.0, 0.0), [(1.0, 0.0)])
    with pytest.raises(ValueError):
        PiecewisePoly((0.0, 1.0, 2.0), [(1.0, 0.0)])  # one missing piece
    with pytest.raises(ValueError):
        PiecewisePoly((0.0, 1.0), [(1.0, 0.0, 2.0)])  # not affine


def test_piecewise_poly_constant_and_affine_builders():
    pp = PiecewisePoly((0.0, 2.0, 5.0), [(3.5, 0.0), (3.5, 0.0)])
    assert pp.value(1.0) == 3.5 and pp.value(4.0) == 3.5
    pw = PiecewisePoly((0.0, 1.0, 2.0), [(1.0, 1.0), (0.0, 2.0)])
    assert pw.value(0.5) == pytest.approx(1.5)
    assert pw.value(1.25) == pytest.approx(0.5)  # local coordinates per piece
    assert np.array_equal(pw.value(np.array([0.5, 1.25])), [pw.value(0.5), pw.value(1.25)])


def test_piecewise_poly_boundaries_are_right_continuous():
    pw = PiecewisePoly((0.0, 1.0, 2.0), [(1.0, 0.0), (5.0, 0.0)])
    assert pw.value(1.0) == 5.0
    assert pw.value(2.0) == 5.0  # trailing endpoint uses the last piece
    with pytest.raises(ValueError):
        pw.value(2.5)


# ---------------------------------------------------------------------------
# the closed form of F~ on each segment
# ---------------------------------------------------------------------------


def test_f_tilde_matches_per_segment_variation_of_constants():
    # On segment g, F~/A solves F' = -mu_g F + c0_g + c1_g x with mu_g the
    # mean of the m2 stand-in. Chain that ODE independently, segment by
    # segment, through quadrature of the variation-of-constants formula
    # F(x) = e^{-mu x} F(0) + int_0^x e^{-mu (x - u)} (c0 + c1 u) du, at
    # points with mu x < 0.01 and at every segment end.
    trains = (THREE_PULSE, random_train(np.random.default_rng(5)))
    for train, scheme, p, nu in itertools.product(
        trains, SCHEMES + ENVELOPE_SCHEMES, (1, 2, 8), (0.95, 1.0, 1.05)
    ):
        ap = build_m_approx(train, P, scheme=scheme, p=p, nu=nu)
        fa = ForceApprox(ap)
        part = ap.partition.tolist()
        f_start = 0.0
        for g, (lo, hi) in enumerate(zip(part, part[1:])):
            w = hi - lo
            b0, b1 = ap.m2_tilde.coeffs[g]
            mu = b0 + 0.5 * b1 * w
            c0, c1 = ap.m1_tilde.coeffs[g]
            for x in [z / mu for z in (0.005, 0.009) if z / mu < w] + [w]:
                forced = quad(
                    lambda u: math.exp(-mu * (x - u)) * (c0 + c1 * u),
                    0.0, x, epsabs=0.0, epsrel=1e-13,
                )[0]
                ref = math.exp(-mu * x) * f_start + forced
                assert fa.scaled_values(lo + x) == pytest.approx(ref, rel=1e-10, abs=0.0)
            f_start = ref


# ---------------------------------------------------------------------------
# psi: the integral of the m2 stand-in over a segment
# ---------------------------------------------------------------------------


def test_psi_constant_m2_is_linear():
    train = PulseTrain((0.0, 40.0), (0.0, 0.0), 100.0)
    ap = build_m_approx(train, P, scheme="constant-average", p=2)
    lo, hi = ap.partition[:2]
    mu = ForceApprox(ap).mu[0]
    assert mu * (hi - lo) == pytest.approx((hi - lo) / P.tau_1, rel=1e-12)


def test_psi_anchored_and_derivative_matches():
    # psi(x) = int_0^x m2~ = c0 x + c1 x^2 / 2 on segment (i, j); the force
    # table uses psi(w) = mu * w.
    ap = build_m_approx(THREE_PULSE, P, scheme="triangular", p=2)
    fa = ForceApprox(ap)
    for (i, j) in ((0, 0), (1, 1), (2, 1)):
        g = i * ap.p + j
        lo, hi = ap.partition[g : g + 2]
        c0, c1 = ap.m2_tilde.coeffs[g]

        def psi(x):
            return c0 * x + c1 * x**2 / 2.0

        assert psi(0.0) == 0.0
        h = 1e-3
        for u in np.linspace(lo + 2 * h, hi - 2 * h, 10):
            d = (psi(u - lo + h) - psi(u - lo - h)) / (2.0 * h)
            assert abs(d - ap.m2_tilde.value(u)) < 1e-12
        assert psi(hi - lo) == pytest.approx(fa.mu[g] * (hi - lo), rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form force
# ---------------------------------------------------------------------------


def test_f_tilde_zero_amplitudes():
    train = PulseTrain((0.0, 30.0), (0.0, 0.0), 90.0)
    ap = build_m_approx(train, P, scheme="affine-constant", p=2)
    ts = np.linspace(0.0, 90.0, 19)
    assert np.allclose(ForceApprox(ap).values(ts, P.a_rest), 0.0, atol=1e-15)


def test_f_tilde_constant_coefficients_closed_form():
    # Hand-built single-segment stand-ins: constant m1 and m2 must reproduce
    # the scalar linear-ODE solution (A m1/m2)(1 - e^{-m2 t}).
    m1c, m2c = 0.4, 0.012
    part = (0.0, 80.0)
    ap = MApprox(
        m1_tilde=PiecewisePoly(part, [(m1c, 0.0)]),
        m2_tilde=PiecewisePoly(part, [(m2c, 0.0)]),
        pulse_breaks=part,
        scheme="constant-average",
        p=1,
        nu=1.0,
    )
    a_ms = P.a_rest_ms
    for t in (0.0, 7.5, 31.0, 80.0):
        expected = a_ms * m1c / m2c * (1.0 - math.exp(-m2c * t))
        assert ForceApprox(ap).values(t, P.a_rest) == pytest.approx(expected, rel=1e-12)


def test_f_tilde_zero_at_origin():
    ap = build_m_approx(THREE_PULSE, P, scheme="affine-constant", p=2)
    assert ForceApprox(ap).values(0.0, P.a_rest) == 0.0


def test_f_tilde_matches_oracle_within_bound_and_refines():
    traj = simulate_force(THREE_PULSE, P, 0.2)
    errors = {}
    for p in (2, 4):
        ap = build_m_approx(THREE_PULSE, P, scheme="triangular", p=p)
        nodes = np.asarray(ap.pulse_breaks)
        f_tilde = ForceApprox(ap).values(nodes, P.a_rest)
        f_true = np.array([traj.at("force", t) for t in nodes])
        errors[p] = np.abs(f_tilde - f_true)
        if p == 2:
            for k in range(len(nodes)):
                rep = force_error_bound(THREE_PULSE, P, ap, k)
                assert errors[p][k] / P.a_rest_ms <= rep.bound + 1e-12
    assert errors[4].max() <= errors[2].max()


def test_f_tilde_telescopes_across_segment_boundaries():
    ap = build_m_approx(THREE_PULSE, P, scheme="affine-constant", p=2)
    fa = ForceApprox(ap)
    for b in ap.partition[1:-1]:
        left = fa.scaled_values(b - 1e-11)
        right = fa.scaled_values(b + 1e-11)
        assert abs(left - right) < 1e-10


def test_f_tilde_scalar_and_array_evaluation_agree():
    # One evaluation path: a scalar time returns a float equal to the same
    # time's entry in an array evaluation, including at partition nodes.
    fa = ForceApprox(build_m_approx(THREE_PULSE, P, scheme="triangular", p=2))
    ts = np.concatenate([fa.m_approx.partition, np.linspace(0.0, 160.0, 37)])
    arr = fa.values(ts, P.a_rest)
    for t, v in zip(ts, arr):
        s = fa.values(float(t), P.a_rest)
        assert isinstance(s, float) and s == v
    assert fa.values(ts.reshape(2, -1), P.a_rest).shape == (2, ts.size // 2)


def test_f_tilde_rejects_out_of_domain():
    evaluator = ForceApprox(build_m_approx(THREE_PULSE, P, scheme="affine-constant", p=2))
    with pytest.raises(ValueError):
        evaluator.values(200.0, P.a_rest)
    # Sorted and unsorted times take different paths, with the same error.
    for ts in ([0.0, 50.0, 200.0], [200.0, 0.0, 50.0], [-1.0, 0.0], [0.0, -1.0]):
        with pytest.raises(ValueError, match=r"time outside the domain \[0.0, 160.0\]"):
            evaluator.scaled_values(np.asarray(ts))


@pytest.mark.parametrize("scheme", ["affine-constant", "triangular"])
def test_f_tilde_sorted_and_shuffled_times_agree_bitwise(scheme):
    # Sorted times count the points per piece; any other order locates
    # each point. Both give the same bits, also exactly on breakpoints.
    rng = np.random.default_rng(31)
    train = random_train(rng, n_max=8)
    evaluator = ForceApprox(build_m_approx(train, P, scheme=scheme, p=3))
    part = evaluator.m_approx.partition
    ts = np.sort(np.concatenate([part, part, rng.uniform(0.0, train.horizon, 500), [0.0]]))
    perm = rng.permutation(len(ts))
    sorted_values = evaluator.scaled_values(ts)
    shuffled = np.empty_like(ts)
    shuffled[perm] = evaluator.scaled_values(ts[perm])
    assert np.array_equal(sorted_values, shuffled)
    singles = np.array([evaluator.scaled_values(float(t)) for t in ts])
    assert np.array_equal(sorted_values, singles)
    grid = evaluator.scaled_values(ts[1:].reshape(-1, 2))
    assert np.array_equal(grid.ravel(), sorted_values[1:])


# ---------------------------------------------------------------------------
# explicit-Euler baseline
# ---------------------------------------------------------------------------


class UnstableStep(RuntimeError):
    """An explicit-Euler segment violates the stability bound |1 - h m2| <= 1."""


@dataclass(frozen=True)
class EulerNodes:
    """Exact Hill-function samples on a refined partition, for the
    product-form explicit-Euler force expression."""

    nodes: tuple[float, ...]
    m1: tuple[float, ...]
    m2: tuple[float, ...]


def euler_nodes(train: PulseTrain, params: ModelParams, p: int = 2) -> EulerNodes:
    state = concentration_state(train, params)
    partition, _ = _refined_partition(train, state, p)
    c = state.cn(partition)
    return EulerNodes(
        nodes=tuple(partition.tolist()),
        m1=tuple(eval_m1(c, params).tolist()),
        m2=tuple(eval_m2(c, params).tolist()),
    )


def eval_f_euler(m_values: EulerNodes, a_value: float, node: float) -> float:
    """Force at a partition node by the closed product-sum Euler expression.

    F(t_G)/A = sum_{g<G} h_g m1_g prod_{g'=g+1}^{G-1} (1 - h_g' m2_g'),
    evaluated literally (no running integration state). Raises
    :class:`UnstableStep` if any factor magnitude exceeds 1, i.e. some
    segment is longer than the explicit-Euler stability bound 2/m2.
    """
    nodes = m_values.nodes
    target = next((g for g, t in enumerate(nodes) if abs(t - node) < 1e-9), None)
    if target is None:
        raise ValueError(f"{node} is not a partition node")
    h = [nodes[g + 1] - nodes[g] for g in range(len(nodes) - 1)]
    c = [1.0 - h[g] * m_values.m2[g] for g in range(target)]
    for g, cg in enumerate(c):
        if abs(cg) > 1.0:
            raise UnstableStep(f"segment {g} of width {h[g]} exceeds 2/m2")
    total = 0.0
    for g in range(target):
        total += h[g] * m_values.m1[g] * math.prod(c[g + 1 : target])
    return a_value * 1e-3 * total


def test_euler_zero_amplitudes():
    train = PulseTrain((0.0, 30.0), (0.0, 0.0), 90.0)
    nodes = euler_nodes(train, P, p=2)
    assert eval_f_euler(nodes, P.a_rest, nodes.nodes[3]) == 0.0


def test_euler_single_step_closed_form():
    nodes = euler_nodes(THREE_PULSE, P, p=2)
    h0 = nodes.nodes[1] - nodes.nodes[0]
    # One step from rest: F = A h m1(t_0); with t_0 = 0 the concentration and
    # hence m1 vanish, so the first node value is exactly zero.
    assert nodes.m1[0] == 0.0
    assert eval_f_euler(nodes, P.a_rest, nodes.nodes[1]) == 0.0
    # Two steps expose the product-sum form directly.
    expect = P.a_rest_ms * (nodes.nodes[2] - nodes.nodes[1]) * nodes.m1[1]
    got = eval_f_euler(nodes, P.a_rest, nodes.nodes[2])
    assert got == pytest.approx(expect + 0.0 * h0, rel=1e-12)


def test_euler_first_order_convergence():
    traj = simulate_force(THREE_PULSE, P, 0.05)
    t_eval = THREE_PULSE.times[2]
    errs = []
    for p in (8, 16, 32):
        nodes = euler_nodes(THREE_PULSE, P, p=p)
        errs.append(abs(eval_f_euler(nodes, P.a_rest, t_eval) - traj.at("force", t_eval)))
    assert errs[0] / errs[1] > 1.6 and errs[1] / errs[2] > 1.6  # observed order ~1


def test_euler_unstable_step_detected():
    train = PulseTrain((0.0,), (1.0,), 400.0)
    nodes = euler_nodes(train, P, p=1)  # one 400 ms segment: h m2 > 2
    with pytest.raises(UnstableStep):
        eval_f_euler(nodes, P.a_rest, 400.0)


def test_euler_requires_partition_node():
    nodes = euler_nodes(THREE_PULSE, P, p=2)
    with pytest.raises(ValueError):
        eval_f_euler(nodes, P.a_rest, 13.37)


# ---------------------------------------------------------------------------
# force error bound
# ---------------------------------------------------------------------------


def test_error_bound_zero_for_exact_stand_ins():
    train = PulseTrain((0.0, 40.0), (0.0, 0.0), 100.0)
    ap = build_m_approx(train, P, scheme="constant-average", p=2)
    rep = force_error_bound(train, P, ap, 1)
    assert rep.bound == pytest.approx(0.0, abs=1e-10)
    assert rep.hypotheses_ok
    assert ForceApprox(ap).values(40.0, P.a_rest) == pytest.approx(0.0, abs=1e-15)


def test_error_bound_dominates_two_pulse_case():
    train = PulseTrain((0.0, 30.0), (1.0, 0.8), 65.0, 20.0)
    ap = build_m_approx(train, P, scheme="constant-average", p=2)
    traj = simulate_force(train, P, 0.2)
    for k in range(3):
        rep = force_error_bound(train, P, ap, k)
        assert rep.hypotheses_ok, rep.violated
        node = ap.pulse_breaks[k]
        measured = abs(ForceApprox(ap).values(node, P.a_rest) - traj.at("force", node))
        assert measured / P.a_rest_ms <= rep.bound + 1e-12


def test_error_bound_linear_growth_majorant():
    ap = build_m_approx(THREE_PULSE, P, scheme="constant-average", p=2)
    total = force_error_bound(THREE_PULSE, P, ap, THREE_PULSE.n + 1)
    for k in range(THREE_PULSE.n + 2):
        rep = force_error_bound(THREE_PULSE, P, ap, k)
        assert rep.bound <= total.m1_term + rep.t_k * total.m2_term + 1e-12


def test_error_bound_flags_scheme_violation():
    ap = build_m_approx(THREE_PULSE, P, scheme="triangular", p=2, nu=0.9)
    rep = force_error_bound(THREE_PULSE, P, ap, 2)
    assert not rep.hypotheses_ok
    assert "m2-not-interval-average" in rep.violated
    assert "nu-not-one" in rep.violated
    assert rep.bound > 0.0  # still returned, advisory


# ---------------------------------------------------------------------------
# nu envelopes
# ---------------------------------------------------------------------------


def test_envelope_brackets_oracle_pointwise():
    rng = np.random.default_rng(14)
    for _ in range(3):
        train = random_train(rng, n_max=4)
        traj = simulate_force(train, P, 0.2)
        low, high = upper_lower_envelope(train, P, 1.05, 0.95, traj.grid)
        f = traj.channel("force")
        assert np.all(np.asarray(high) >= f - 1e-9)
        assert np.all(np.asarray(low) <= f + 1e-9)


def test_envelope_width_monotone_in_nu_interval():
    ts = np.linspace(0.0, 160.0, 41)
    l1, h1 = upper_lower_envelope(THREE_PULSE, P, 1.0, 1.0, ts)
    l2, h2 = upper_lower_envelope(THREE_PULSE, P, 1.1, 0.9, ts)
    w1 = np.asarray(h1) - np.asarray(l1)
    w2 = np.asarray(h2) - np.asarray(l2)
    assert np.all(w2 >= w1 - 1e-12)


def test_envelope_rejects_bad_nu_ordering():
    with pytest.raises(ValueError):
        upper_lower_envelope(THREE_PULSE, P, 0.95, 1.05, 10.0)


def _staircase_by_function(train, scheme, p, nu):
    """Staircase (m1, m2) levels from each Hill function's own max/min over
    its segment's end values, with each function's fix at the interval's
    unclamped peak: the per-function form of the c_N-extreme construction."""
    state = concentration_state(train, P)
    part, pulse_breaks = _refined_partition(train, state, p)
    f1 = eval_m1(state.cn(part), P, nu)
    f2 = eval_m2(state.cn(part), P, nu)
    v1a, v1b, v2a, v2b = f1[:-1], f1[1:], f2[:-1], f2[1:]
    hi1, lo1 = np.maximum(v1a, v1b), np.minimum(v1a, v1b)
    hi2, lo2 = np.maximum(v2a, v2b), np.minimum(v2a, v2b)
    t_star = state.peaks()
    inside = (np.asarray(pulse_breaks[:-1]) < t_star) & (t_star < np.asarray(pulse_breaks[1:]))
    c_star = state.cn(t_star[inside])
    m1_star = np.full(train.n + 1, np.nan)
    m2_star = np.full(train.n + 1, np.nan)
    m1_star[inside] = eval_m1(c_star, P, nu)
    m2_star[inside] = eval_m2(c_star, P, nu)
    t_seg = np.repeat(np.where(inside, t_star, np.nan), p)
    holds_peak = (part[:-1] <= t_seg) & (t_seg <= part[1:])
    hi1 = np.where(holds_peak, np.maximum(hi1, np.repeat(m1_star, p)), hi1)
    lo2 = np.where(holds_peak, np.minimum(lo2, np.repeat(m2_star, p)), lo2)
    if scheme == "staircase-upper":
        return hi1, lo2
    return lo1, hi2


def test_staircase_levels_equal_the_per_function_extremes_bitwise():
    rng = np.random.default_rng(7)
    trains = [random_train(rng, n_max=10) for _ in range(100)]
    trains.append(T6)
    for train, scheme, p, nu in itertools.product(
        trains, ENVELOPE_SCHEMES, (1, 2, 4), (0.9, 0.95, 1.0, 1.05)
    ):
        ap = build_m_approx(train, P, scheme=scheme, p=p, nu=nu)
        m1, m2 = _staircase_by_function(train, scheme, p, nu)
        assert ap.m1_tilde.coeffs[:, 0].tobytes() == m1.tobytes()
        assert ap.m2_tilde.coeffs[:, 0].tobytes() == m2.tobytes()
        assert not ap.m1_tilde.coeffs[:, 1].any() and not ap.m2_tilde.coeffs[:, 1].any()
