import math
from dataclasses import replace

import numpy as np
import pytest

from fespulse import (
    ModelParams,
    PulseTrain,
    Rest,
    Trajectory,
    eval_m2,
    oracle_force_quadrature,
    reparam_force_check,
    simulate_force,
    simulate_force_fatigue,
)
import fespulse.simulate
from fespulse.checks import T6, random_train
from fespulse.model import ConcentrationState, _linspace_nodes, eval_m1
from fespulse.simulate import _flatten_program, _integrate

from conftest import traced_peak

P = ModelParams()
THREE_PULSE = PulseTrain((0.0, 25.0, 55.0), (1.0, 0.7, 0.9), 160.0, 20.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(grid=np.array([0.0, 0.0, 1.0]), channels={})
    with pytest.raises(ValueError):
        Trajectory(grid=np.array([0.0, 1.0]), channels={"x": np.zeros(3)})


def test_sim_options_validation():
    with pytest.raises(ValueError, match="step must be positive"):
        simulate_force(THREE_PULSE, P, step=0.0)
    with pytest.raises(ValueError, match="step must be positive"):
        simulate_force_fatigue([THREE_PULSE, Rest(100.0)], P, step=-1.0)


def test_zero_amplitude_train_gives_zero_force():
    train = PulseTrain((0.0, 30.0), (0.0, 0.0), 100.0)
    traj = simulate_force(train, P)
    assert np.all(traj.channel("force") == 0.0)
    assert np.all(traj.channel("c_n") == 0.0)


def test_grid_contains_each_pulse_time_once():
    traj = simulate_force(THREE_PULSE, P)
    for t in THREE_PULSE.times:
        assert int(np.sum(np.isclose(traj.grid, t, atol=1e-12))) == 1
    assert traj.grid[0] == 0.0 and traj.grid[-1] == THREE_PULSE.horizon
    # c_n is continuous across pulse instants (no jump in the channel).
    for t in THREE_PULSE.times[1:]:
        i = int(np.argmin(np.abs(traj.grid - t)))
        assert abs(traj.channel("c_n")[i] - traj.channel("c_n")[i - 1]) < 0.05


def test_rk4_convergence_order():
    ref = simulate_force(THREE_PULSE, P, 0.05).terminal("force")
    e1 = abs(simulate_force(THREE_PULSE, P, 1.6).terminal("force") - ref)
    e2 = abs(simulate_force(THREE_PULSE, P, 0.8).terminal("force") - ref)
    order = math.log2(e1 / e2)
    assert order >= 3.5


def test_force_positive_from_rest():
    rng = np.random.default_rng(21)
    traj = simulate_force(random_train(rng), P)
    assert np.all(traj.channel("force") >= 0.0)


def test_quadrature_oracle_at_zero():
    assert oracle_force_quadrature(THREE_PULSE, P, 0.0) == 0.0


def test_quadrature_oracle_vs_sim_single_pulse():
    train = PulseTrain((0.0,), (1.0,), 200.0)
    traj = simulate_force(train, P, 0.2)
    for target in np.linspace(10.0, 200.0, 20):
        t = float(traj.grid[int(np.argmin(np.abs(traj.grid - target)))])
        assert abs(traj.at("force", t) - oracle_force_quadrature(train, P, t)) < 1e-7


def test_quadrature_oracle_vs_sim_random_trains():
    rng = np.random.default_rng(4)
    for _ in range(3):
        train = random_train(rng, n_max=5)
        traj = simulate_force(train, P, 0.2)
        for frac in (0.35, 0.75, 1.0):
            t = float(traj.grid[int(np.argmin(np.abs(traj.grid - frac * train.horizon)))])
            assert abs(traj.at("force", t) - oracle_force_quadrature(train, P, t)) < 1e-7


def test_force_monotone_while_concentration_rises():
    train = PulseTrain((0.0,), (1.0,), 100.0)
    traj = simulate_force(train, P)
    sel = traj.grid <= P.tau_c
    assert np.all(np.diff(traj.channel("force")[sel]) > 0.0)


def test_reparam_zero_train():
    train = PulseTrain((0.0,), (0.0,), 80.0)
    assert reparam_force_check(train, P, n_samples=4) == pytest.approx(0.0, abs=1e-12)


def test_reparam_single_pulse_and_random():
    train = PulseTrain((0.0,), (1.0,), 150.0)
    assert reparam_force_check(train, P, n_samples=8) < 1e-6
    rng = np.random.default_rng(11)
    assert reparam_force_check(random_train(rng, n_max=4), P, n_samples=5) < 1e-6


def test_reparam_clock_strictly_increasing():
    # ds = m2 dt with m2 bounded below by 1/(tau_1 + tau_2) > 0.
    rng = np.random.default_rng(3)
    train = random_train(rng)
    ts = np.linspace(0.0, train.horizon, 200)
    from fespulse import eval_cn

    m2 = np.asarray(eval_m2(np.asarray(eval_cn(train, P, ts)), P))
    assert np.all(m2 >= 1.0 / (P.tau_1 + P.tau_2) - 1e-15)


def test_fatigue_rk4_matches_dop853():
    # Test-side reference: scipy's DOP853 on the (F, A) system over each
    # interval between pulse times and segment ends, c_N in closed form.
    from scipy.integrate import solve_ivp

    train = PulseTrain(tuple(i * 60.0 for i in range(5)), (1.0,) * 5, 300.0, 20.0)
    times = list(train.times) + [800.0 + t for t in train.times]
    breaks = sorted(set(times) | {300.0, 800.0, 1100.0})
    state = ConcentrationState.from_pulses(times, [1.0] * len(times), P)

    def rhs(t, y):
        c = state.cn(np.array([t]))[0]
        return [eval_m1(c, P) * y[1] - eval_m2(c, P) * y[0],
                -(y[1] - P.a_rest_ms) / P.tau_fat_ms + P.alpha_a_ms * y[0]]

    y = [0.0, P.a_rest_ms]
    for lo, hi in zip(breaks, breaks[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-10, atol=1e-13)
        assert sol.success
        y = sol.y[:, -1].tolist()
    traj = simulate_force_fatigue([train, Rest(500.0), train], P, step=0.1)
    assert traj.grid[-1] == 1100.0
    assert abs(traj.terminal("force") - y[0]) <= 1e-9
    assert abs(traj.terminal("a") - y[1] * 1e3) <= 1e-9


def test_force_is_force_fatigue_without_fatigue():
    # With alpha_a = 0 the force-fatigue integrator leaves A at a_rest bit
    # for bit, so it reproduces the force-only simulation exactly.
    params = replace(P, alpha_a=0.0)
    for train in (THREE_PULSE, random_train(np.random.default_rng(11))):
        force = simulate_force(train, params)
        both = simulate_force_fatigue([train], params)
        assert np.array_equal(both.grid, force.grid)
        assert np.array_equal(both.channel("force"), force.channel("force"))
        assert np.all(both.channel("a") == params.a_rest)


# ---------------------------------------------------------------------------
# fatigue
# ---------------------------------------------------------------------------


def test_fatigue_zero_stimulation_equilibrium():
    train = PulseTrain((0.0,), (0.0,), 50.0)
    traj = simulate_force_fatigue([train, Rest(500.0)], P, 1.0)
    assert np.all(traj.channel("force") == 0.0)
    assert np.allclose(traj.channel("a"), P.a_rest, atol=1e-12)


def test_fatigue_programs_may_start_and_end_with_rests():
    # A program of rests only starts from rest and stays there.
    traj = simulate_force_fatigue([Rest(500.0)], P, 1.0)
    assert traj.grid[0] == 0.0 and traj.grid[-1] == 500.0
    assert np.all(traj.channel("force") == 0.0)
    assert np.all(traj.channel("a") == P.a_rest)
    # Leading and trailing rests: the program ends at the sum of its spans.
    train = PulseTrain((0.0, 30.0, 60.0), (1.0, 1.0, 1.0), 100.0, 20.0)
    traj = simulate_force_fatigue([Rest(100.0), train, Rest(200.0), Rest(300.0)], P)
    grid, force = traj.grid, traj.channel("force")
    assert grid[0] == 0.0 and grid[-1] == 700.0
    assert np.all(force[grid <= 100.0] == 0.0)
    assert np.all(force[grid > 100.0] > 0.0)


def test_fatigue_scaling_drops_under_load():
    train = PulseTrain(tuple(i * 60.0 for i in range(5)), (1.0,) * 5, 300.0, 20.0)
    traj = simulate_force_fatigue([train], P)
    a = traj.channel("a")
    after_first = traj.grid > train.times[1]
    assert np.all(a[after_first] < P.a_rest)
    assert np.all(a <= P.a_rest + 1e-12)
    assert np.all(traj.channel("force") >= 0.0)


def test_fatigue_recovery_rate_fit():
    train = PulseTrain(tuple(i * 60.0 for i in range(5)), (1.0,) * 5, 300.0, 20.0)
    traj = simulate_force_fatigue([train, Rest(8000.0)], P, 1.0)
    grid, a = traj.grid, traj.channel("a")
    sel = (grid >= 2000.0) & (grid <= 8000.0)
    slope = np.polyfit(grid[sel], np.log(P.a_rest - a[sel]), 1)[0]
    assert abs(-slope - 1.0 / P.tau_fat_ms) * P.tau_fat_ms < 0.02


def test_fatigue_recovery_monotone_in_rest():
    train = PulseTrain((0.0, 30.0, 60.0), (1.0, 1.0, 1.0), 100.0, 20.0)
    traj = simulate_force_fatigue([train, Rest(3000.0)], P, 1.0)
    rest = traj.grid >= 600.0  # force has decayed by then
    assert np.all(np.diff(traj.channel("a")[rest]) >= -1e-15)


def test_fatigue_concentration_decays_through_rest():
    train = PulseTrain((0.0, 25.0), (1.0, 1.0), 60.0, 20.0)
    traj = simulate_force_fatigue([train, Rest(400.0)], P)
    c = traj.channel("c_n")
    rest = traj.grid > 60.0 + P.tau_c
    assert np.all(np.diff(c[rest]) < 0.0)


def test_fatigue_program_needs_valid_segments():
    with pytest.raises(TypeError):
        simulate_force_fatigue([42.0], P)
    with pytest.raises(ValueError):
        Rest(-5.0)


# ---------------------------------------------------------------------------
# the RK4 scan against the per-step loop it replaced
# ---------------------------------------------------------------------------


def _rk4_sweep(h, m1, m2, f, a, a_rest, tau_fat, alpha):
    """Fixed-step RK4 for F' = -m2 F + m1 A, A' = -(A - a_rest)/tau_fat + alpha F,
    one step at a time; m1/m2 at node 0, mid 0, node 1, ..., node m."""
    half, sixth = 0.5 * h, h / 6.0
    fs, as_ = [f], [a]
    for i in range(0, len(m1) - 1, 2):
        m1a, m1m, m1b = m1[i], m1[i + 1], m1[i + 2]
        m2a, m2m, m2b = m2[i], m2[i + 1], m2[i + 2]
        k1f = -m2a * f + m1a * a
        k1a = -(a - a_rest) / tau_fat + alpha * f
        f2, a2 = f + half * k1f, a + half * k1a
        k2f = -m2m * f2 + m1m * a2
        k2a = -(a2 - a_rest) / tau_fat + alpha * f2
        f3, a3 = f + half * k2f, a + half * k2a
        k3f = -m2m * f3 + m1m * a3
        k3a = -(a3 - a_rest) / tau_fat + alpha * f3
        f4, a4 = f + h * k3f, a + h * k3a
        k4f = -m2b * f4 + m1b * a4
        k4a = -(a4 - a_rest) / tau_fat + alpha * f4
        f += sixth * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        a += sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        fs.append(f)
        as_.append(a)
    return fs, as_


def _loop_integrate(state, breaks, params, step, alpha, f, a):
    """Grid, F and A of the per-step loop over every interval of breaks."""
    grid, fs, as_ = [], [f], [a]
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo <= 1e-12:
            continue
        ts = np.linspace(lo, hi, max(4, math.ceil((hi - lo) / step - 1e-12)) + 1)
        stage = np.empty(2 * len(ts) - 1)
        stage[0::2], stage[1::2] = ts, 0.5 * (ts[:-1] + ts[1:])
        c = state.cn(stage)
        f_i, a_i = _rk4_sweep(
            float(ts[1] - ts[0]), eval_m1(c, params).tolist(), eval_m2(c, params).tolist(),
            f, a, params.a_rest_ms, params.tau_fat_ms, alpha,
        )
        grid.extend(ts[:-1].tolist())
        fs.extend(f_i[1:])
        as_.extend(a_i[1:])
        f, a = f_i[-1], a_i[-1]
        last = hi
    return np.array(grid + [last]), np.array(fs), np.array(as_)


def _random_program(rng):
    program = []
    for _ in range(int(rng.integers(1, 4))):
        program.append(random_train(rng))
        if rng.random() < 0.7:
            program.append(Rest(float(rng.uniform(5.0, 600.0))))
    return program


def test_linspace_nodes_equal_numpy_linspace_bitwise():
    rng = np.random.default_rng(7)
    lo = rng.uniform(-1e4, 1e4, size=300)
    hi = lo + 10.0 ** rng.uniform(-9, 4, size=300)
    m = rng.integers(1, 60, size=300)
    iv = np.repeat(np.arange(300), m + 1)
    j = np.arange(len(iv)) - np.repeat(np.cumsum(m + 1) - (m + 1), m + 1)
    flat = _linspace_nodes(lo[iv], hi[iv], m[iv], j)
    expect = np.concatenate([np.linspace(a, b, k + 1) for a, b, k in zip(lo, hi, m)])
    assert np.array_equal(flat, expect)


@pytest.mark.parametrize("blocks", [None, (16, 64)])
def test_rk4_scan_matches_the_step_loop(blocks, monkeypatch):
    # Random trains and programs, alpha zero and not, steps 0.1-1 ms, starts
    # at rest and off it; small blocks and batches exercise the chaining.
    if blocks is not None:
        monkeypatch.setattr(fespulse.simulate, "_BLOCK_STEPS", blocks[0])
        monkeypatch.setattr(fespulse.simulate, "_BATCH_STEPS", blocks[1])
    rng = np.random.default_rng(19)
    for trial in range(24):
        times, amps, breaks, _ = _flatten_program(_random_program(rng))
        state = ConcentrationState.from_pulses(times, amps, P)
        step = float(rng.uniform(0.1, 1.0))
        alpha = (0.0, P.alpha_a_ms, 50.0 * P.alpha_a_ms)[trial % 3]
        f, a = (0.0, P.a_rest_ms) if trial % 2 else (
            float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.5, 1.0)) * P.a_rest_ms
        )
        grid, c_n, force, a_ms = _integrate(state, breaks, P, step, alpha, f, a)
        ref_grid, ref_f, ref_a = _loop_integrate(state, breaks, P, step, alpha, f, a)
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(c_n, state.cn(grid))
        assert np.max(np.abs(force - ref_f)) <= 1e-13 * np.max(np.abs(ref_f))
        assert np.max(np.abs(a_ms - ref_a)) <= 1e-13 * np.max(np.abs(ref_a))
        if alpha == 0.0 and a == P.a_rest_ms:
            assert np.all(a_ms == P.a_rest_ms)


def test_long_rest_holds_its_outputs_once_plus_one_batch():
    # T6 and a 60 s rest take 150 900 RK4 steps: grid, c_N, F and A of
    # 150 901 samples, 4.8 MB. Beside them the call holds one batch at a
    # time. Batches are whole blocks of at most _BLOCK_STEPS = 2^14 steps,
    # cut where the step count passes a multiple of _BATCH_STEPS = 2^14, so
    # a batch has under 2^15 steps. It keeps at most about 24 float64 arrays
    # of its length alive at once (node times, c_N and Hill samples, the
    # step maps and the scan's new maps), under 200 bytes per step: the
    # bound is 2^15 x 200 B = 6.6 MB. Batches of 2^16 steps go over it.
    assert fespulse.simulate._BATCH_STEPS + fespulse.simulate._BLOCK_STEPS <= 2**15
    peak, traj = traced_peak(lambda: simulate_force_fatigue([T6, Rest(60_000.0)], P))
    held = traj.grid.nbytes + sum(v.nbytes for v in traj.channels.values())
    assert len(traj.grid) == 150_901
    assert peak - held < 2**15 * 200
