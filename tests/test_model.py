import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fespulse import (
    ModelParams,
    PulseTrain,
    UnreachableForce,
    compute_scaling,
    concentration_state,
    eval_cn,
    eval_lobe,
    eval_m1,
    eval_m2,
    steady_state_root,
    truncated_cn,
)

from fespulse.checks import random_train

from conftest import rk4_cn_max_error

P = ModelParams()


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        ModelParams(tau_c=-1.0)
    with pytest.raises(ValueError):
        ModelParams(r_bar=0.9)
    with pytest.raises(ValueError):
        ModelParams(alpha_a=0.1)


def test_params_unit_conversions():
    assert P.a_rest_ms == pytest.approx(3.009e-3)
    assert P.alpha_a_ms == pytest.approx(-4e-7)
    assert P.tau_fat_ms == pytest.approx(127000.0)


def test_pulse_train_validation():
    with pytest.raises(ValueError):
        PulseTrain((1.0, 2.0), (1.0, 1.0), 10.0)  # first pulse not at zero
    with pytest.raises(ValueError):
        PulseTrain((0.0, 5.0), (1.0, 1.0), 10.0, i_min=8.0)  # gap below floor
    with pytest.raises(ValueError):
        PulseTrain((0.0, 20.0), (1.0, 1.5), 30.0)  # amplitude above 1
    with pytest.raises(ValueError):
        PulseTrain((0.0, 20.0), (1.0, 1.0), 15.0)  # horizon before last pulse
    with pytest.raises(ValueError, match="i_min must be >= 0"):
        PulseTrain((0.0, 20.0), (1.0, 1.0), 30.0, i_min=-5.0)
    with pytest.raises(ValueError, match="at least one impulse time"):
        PulseTrain((), (), 30.0)
    with pytest.raises(ValueError, match="equal length"):
        PulseTrain((0.0, 20.0), (1.0,), 30.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        PulseTrain((0.0, 20.0, 20.0), (1.0, 1.0, 1.0), 30.0)


# ---------------------------------------------------------------------------
# scaling factors
# ---------------------------------------------------------------------------


def test_scaling_single_pulse_is_one():
    train = PulseTrain((0.0,), (1.0,), 100.0)
    assert compute_scaling(train, P) == (1.0,)


def test_scaling_vanishes_for_huge_gap():
    train = PulseTrain((0.0, 50.0 * P.tau_c), (1.0, 1.0), 1100.0)
    r1 = compute_scaling(train, P)[1]
    assert r1 - 1.0 < 1e-12


def test_scaling_derived_value_gap_equals_tau_c():
    # R1 = 1 + 0.143 / e for r_bar = 1.143, gap = tau_c
    train = PulseTrain((0.0, 20.0), (1.0, 1.0), 100.0, 20.0)
    assert compute_scaling(train, P)[1] == pytest.approx(1.0526067600875162, abs=1e-14)


@given(gap=st.floats(min_value=0.5, max_value=500.0))
@settings(max_examples=60, deadline=None)
def test_scaling_bounds_and_monotonicity(gap):
    train = PulseTrain((0.0, gap), (1.0, 1.0), gap + 50.0)
    r1 = compute_scaling(train, P)[1]
    assert 1.0 < r1 <= P.r_bar
    wider = PulseTrain((0.0, gap + 1.0), (1.0, 1.0), gap + 60.0)
    assert compute_scaling(wider, P)[1] < r1


# ---------------------------------------------------------------------------
# signal and concentration
# ---------------------------------------------------------------------------


def test_signal_zero_before_first_pulse():
    train = PulseTrain((0.0,), (1.0,), 100.0)
    assert concentration_state(train, P).signal(-1.0) == 0.0


def test_signal_jump_value_at_first_pulse():
    train = PulseTrain((0.0,), (1.0,), 100.0)
    assert concentration_state(train, P).signal(0.0) == pytest.approx(1.0 / P.tau_c, rel=1e-15)


def test_signal_two_term_brute_force():
    train = PulseTrain((0.0, 30.0), (0.8, 0.6), 120.0)
    r = compute_scaling(train, P)
    for t in (30.0, 47.5, 90.0):
        expected = sum(
            r[i] * train.amplitudes[i] / P.tau_c * math.exp(-(t - train.times[i]) / P.tau_c)
            for i in range(2)
            if t >= train.times[i]
        )
        assert concentration_state(train, P).signal(t) == pytest.approx(expected, rel=1e-14)


def test_cn_single_pulse_peak_is_inverse_e():
    train = PulseTrain((0.0,), (1.0,), 100.0)
    assert eval_cn(train, P, P.tau_c) == pytest.approx(1.0 / math.e, rel=1e-14)


def test_cn_zero_at_own_impulse_time():
    train = PulseTrain((0.0,), (1.0,), 100.0)
    assert eval_cn(train, P, 0.0) == 0.0


def test_cn_matches_ode_integration():
    rng = np.random.default_rng(7)
    for _ in range(5):
        train = random_train(rng)
        assert rk4_cn_max_error(train, P) < 1e-8


def _dense_lobes(train: PulseTrain, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every lobe, and every pulse's term of tau_c E, at every time, as
    (N_t, N_p) arrays: the superposition written out."""
    w = np.asarray(compute_scaling(train, P)) * np.asarray(train.amplitudes)
    u = (t[:, None] - np.asarray(train.times)) / P.tau_c
    active = u >= 0.0
    u = np.where(active, u, 0.0)
    with np.errstate(under="ignore"):
        return np.where(active, w * u * np.exp(-u), 0.0), np.where(active, w * np.exp(-u), 0.0)


def _dense_integrals(train: PulseTrain) -> np.ndarray:
    """Integral of c_N over every interval [t_k, t_{k+1}] (t_{n+1} = horizon)
    as the lobe sum of w_i (chi_i(t_k) - chi_i(t_{k+1})) over the fired
    lobes i <= k, with the lobe antiderivative
    chi_i(t) = e^{-(t - t_i)/tau_c} (tau_c + t - t_i)."""
    w = np.asarray(compute_scaling(train, P)) * np.asarray(train.amplitudes)
    t_i = np.asarray(train.times)
    bounds = np.append(t_i, train.horizon)
    fired = np.arange(len(t_i)) <= np.arange(len(t_i))[:, None]

    def chi(t):
        u = np.where(fired, t[:, None] - t_i, 0.0)
        with np.errstate(under="ignore"):
            return np.exp(-u / P.tau_c) * (P.tau_c + u)

    return np.where(fired, w * (chi(bounds[:-1]) - chi(bounds[1:])), 0.0).sum(axis=1)


@given(
    gaps=st.lists(
        st.one_of(st.floats(min_value=0.5, max_value=300.0), st.just(1e7)), max_size=10
    ),
    amps=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)), min_size=11, max_size=11
    ),
    tail=st.floats(min_value=1.0, max_value=200.0),
    p=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_concentration_state_matches_dense_lobe_sum(gaps, amps, tail, p):
    times = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
    train = PulseTrain(times, tuple(amps[: len(times)]), times[-1] + tail)
    offsets = np.array([0.0, 1e-3, 0.37, P.tau_c, 3.1 * P.tau_c, 40.0 * P.tau_c])
    ts = np.concatenate([[-1e3, -1.0, train.horizon], (np.asarray(times)[:, None] + offsets).ravel()])
    ts = ts[ts <= train.horizon]
    lobes, signal_terms = _dense_lobes(train, ts)
    k_of_t = np.searchsorted(times, ts, side="right") - 1
    i = np.arange(len(times))
    window = (i <= k_of_t[:, None]) & (i > k_of_t[:, None] - p)
    with np.errstate(all="raise"):
        cn = eval_cn(train, P, ts)
        signal = concentration_state(train, P).signal(ts)
        trunc = truncated_cn(train, P, p)(ts)
        k = len(times) // 2
        lobe = eval_lobe(train, P, k, ts)
        scalars = [eval_cn(train, P, float(t)) for t in ts]
        integrals = concentration_state(train, P).integrals(train.horizon)
    assert np.max(np.abs(cn - lobes.sum(axis=1))) <= 1e-14
    # Below the smallest normal double, gradual underflow leaves no relative precision.
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(integrals, _dense_integrals(train), rtol=1e-12, atol=tiny)
    assert np.max(np.abs(signal - signal_terms.sum(axis=1) / P.tau_c)) <= 1e-14
    assert np.max(np.abs(trunc - np.where(window, lobes, 0.0).sum(axis=1))) <= 1e-14
    assert np.max(np.abs(lobe - lobes[:, k])) <= 1e-14
    assert all(isinstance(c, float) for c in scalars) and np.array_equal(scalars, cn)
    assert np.all(trunc <= cn + 1e-14)
    assert np.all(cn[ts < 0.0] == 0.0) and np.all(trunc[ts < 0.0] == 0.0)


def test_concentration_on_sorted_and_shuffled_times_agrees_bitwise():
    # A sorted grid counts its points per pulse interval; any other order
    # searches each point. Both read the same state, also exactly at pulse
    # times, before the first pulse and at repeated times.
    rng = np.random.default_rng(13)
    train = random_train(rng, n_max=8)
    state = concentration_state(train, P)
    ts = np.sort(np.concatenate([
        [-5.0, -5.0], train.times, train.times, rng.uniform(-10.0, train.horizon, 400),
    ]))
    perm = rng.permutation(len(ts))
    for read in (state.cn, state.signal, lambda t: state.truncated(t, 2)):
        shuffled = np.empty_like(ts)
        shuffled[perm] = read(ts[perm])
        assert np.array_equal(read(ts), shuffled)
        assert np.array_equal(read(ts), [read(float(t)) for t in ts])


# ---------------------------------------------------------------------------
# Hill functions
# ---------------------------------------------------------------------------


def test_m1_anchor_values():
    assert eval_m1(0.0, P) == 0.0
    assert eval_m1(P.k_m, P) == pytest.approx(0.5, rel=1e-15)
    assert eval_m1(1e6 * P.k_m, P) == pytest.approx(1.0, abs=1e-5)


def test_m2_anchor_values():
    assert eval_m2(0.0, P) == pytest.approx(1.0 / P.tau_1, rel=1e-15)
    assert eval_m2(1e12, P) == pytest.approx(1.0 / (P.tau_1 + P.tau_2), rel=1e-9)
    assert eval_m2(P.k_m, P) == pytest.approx(1.0 / (P.tau_1 + P.tau_2 / 2.0), rel=1e-15)


@given(
    c1=st.floats(min_value=0.0, max_value=50.0),
    dc=st.floats(min_value=1e-9, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_m1_increasing_m2_decreasing_and_bounded(c1, dc):
    m1a, m1b = eval_m1(c1, P), eval_m1(c1 + dc, P)
    m2a, m2b = eval_m2(c1, P), eval_m2(c1 + dc, P)
    assert 0.0 <= m1a < 1.0 and m1b > m1a
    assert m2b < m2a
    assert 1.0 / (P.tau_1 + P.tau_2) <= m2b <= m2a <= 1.0 / P.tau_1


# ---------------------------------------------------------------------------
# interval peaks
# ---------------------------------------------------------------------------


def test_argmax_first_interval_is_tau_c():
    train = PulseTrain((0.0, 60.0), (1.0, 1.0), 160.0, 20.0)
    assert concentration_state(train, P).peaks()[0] == pytest.approx(P.tau_c, rel=1e-14)


def test_argmax_degenerate_second_amplitude():
    # With eta_1 = 0 the second lobe contributes nothing and the stationary
    # point stays at tau_c (placed inside [t_1, horizon] here).
    train = PulseTrain((0.0, 10.0), (1.0, 0.0), 100.0)
    assert concentration_state(train, P).peaks()[1] == pytest.approx(P.tau_c, rel=1e-14)


def test_argmax_matches_grid_search():
    train = PulseTrain((0.0, 30.0), (1.0, 1.0), 150.0, 20.0)
    t_star = concentration_state(train, P).peaks()[1]
    ts = np.linspace(30.0, 150.0, 120001)
    grid_star = ts[int(np.argmax(eval_cn(train, P, ts)))]
    assert abs(t_star - grid_star) <= (150.0 - 30.0) / 120000 + 1e-9


# ---------------------------------------------------------------------------
# steady-state root
# ---------------------------------------------------------------------------


@given(
    a=st.floats(min_value=0.5, max_value=10.0),
    frac=st.floats(min_value=1e-6, max_value=0.999),
)
@settings(max_examples=80, deadline=None)
def test_root_unique_positive_and_consistent(a, frac):
    f_max = a * 1e-3 * (P.tau_1 + P.tau_2)
    f_ref = frac * f_max
    m1p, c_ref = steady_state_root(P, a, f_ref)
    assert 0.0 < m1p < 1.0 and c_ref > 0.0
    # Vieta: the other root is negative, so the positive root is unique.
    other = -f_ref / (a * 1e-3 * P.tau_2) / m1p
    assert other < 0.0
    # Substituting back into the equilibrium force reproduces f_ref.
    resid = abs(eval_m1(c_ref, P) * a * 1e-3 / eval_m2(c_ref, P) - f_ref)
    assert resid < 1e-9
    # The linearization rate -m2 is strictly negative: stable equilibrium.
    assert eval_m2(c_ref, P) > 0.0


def test_root_vanishes_with_force():
    m1p, c_ref = steady_state_root(P, P.a_rest, 1e-12)
    assert m1p < 1e-9 and c_ref < 1e-9


def test_root_unreachable_force():
    f_max = P.a_rest_ms * (P.tau_1 + P.tau_2)
    with pytest.raises(UnreachableForce):
        steady_state_root(P, P.a_rest, f_max * 1.0001)
    with pytest.raises(ValueError):
        steady_state_root(P, P.a_rest, -0.1)


# ---------------------------------------------------------------------------
# lobe law
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_lobe_shape_properties(seed):
    rng = np.random.default_rng(seed)
    train = random_train(rng)
    k = int(rng.integers(0, train.n + 1))
    amp = train.amplitudes[k]
    if amp < 1e-6:
        return
    scal = compute_scaling(train, P)[k]
    t_k = train.times[k]
    tau = P.tau_c

    peak = eval_lobe(train, P, k, t_k + tau)
    assert peak == pytest.approx(scal * amp / math.e, rel=1e-12)

    up = np.asarray(eval_lobe(train, P, k, t_k + np.linspace(0.0, tau, 60)))
    down = np.asarray(eval_lobe(train, P, k, t_k + np.linspace(tau, 5 * tau, 60)))
    assert np.all(np.diff(up) > 0.0)
    assert np.all(np.diff(down) < 0.0)

    # Second difference changes sign across the inflection at t_k + 2 tau_c.
    window = np.asarray(
        eval_lobe(train, P, k, t_k + np.linspace(1.5 * tau, 2.5 * tau, 41))
    )
    dd = np.diff(window, 2)
    assert dd[0] < 0.0 < dd[-1]

    # At least 95% of the lobe mass sits within 5 tau_c (exact fractions:
    # total mass is scal*amp*tau, the 5-tau window holds 1 - 6 e^-5 of it).
    u = np.linspace(0.0, 5.0 * tau, 2001)
    mass = float(np.trapezoid(np.asarray(eval_lobe(train, P, k, t_k + u)), u))
    assert mass >= 0.95 * scal * amp * tau

    # Tail bound beyond the window.
    tail = np.asarray(eval_lobe(train, P, k, t_k + np.linspace(5 * tau, 12 * tau, 50)))
    assert np.all(tail <= scal * amp * 5.0 * math.exp(-5.0) + 1e-15)
