import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fespulse.optimize
import fespulse.planner
import fespulse.simulate
from fespulse import (
    DecisionVector,
    InfeasibleSigma,
    ModelParams,
    ObjectiveSpec,
    ProgramSpec,
    Rest,
    SessionTooShort,
    SolveOptions,
    UnreachableForce,
    derive_f_max,
    eval_m1,
    eval_m2,
    objective_value,
    plan_endurance,
    simulate_force,
    simulate_force_fatigue,
    steady_state_root,
    upper_lower_envelope,
)
from fespulse.model import PulseTrain

P = ModelParams()
FAST = SolveOptions(i_min=20.0, t_max=600.0)


def test_program_spec_validation():
    with pytest.raises(ValueError):
        ProgramSpec()  # neither f_ref nor k_ratio
    with pytest.raises(ValueError):
        ProgramSpec(f_ref=0.1, k_fatigue=0.5)
    with pytest.raises(ValueError):
        ProgramSpec(k_ratio=0.8)
    for fields, message in [
        ({"f_ref": 0.0}, "f_ref must be positive"),
        ({"f_ref": -1.0}, "f_ref must be positive"),
        ({"f_ref": 0.1, "n": -1}, "n must be >= 0"),
        ({"f_ref": 0.1, "i_min": -1.0}, "i_min must be >= 0"),
        ({"f_ref": 0.1, "train_horizon": 0.0}, "does not fit under train_horizon"),
        ({"f_ref": 0.1, "n": 4, "i_min": 60.0, "train_horizon": 300.0},
         "does not fit under train_horizon"),  # the regular start's gaps equal i_min
        ({"f_ref": 0.1, "train_horizon": 400.0, "t_f": 399.0}, "session t_f must fit at least one"),
    ]:
        with pytest.raises(ValueError, match=message):
            ProgramSpec(**fields)


@pytest.fixture(scope="module")
def nominal_program():
    spec = ProgramSpec(
        f_ref=0.1, n=4, i_min=20.0, train_horizon=300.0,
        rest_duration=400.0, t_f=1500.0, sim_step=0.5,
    )
    return plan_endurance(spec, P, options=FAST)


def _duration(seg) -> float:
    return seg.horizon if isinstance(seg, PulseTrain) else seg.duration


def _kinds(segments) -> list:
    """A program as (kind, duration) pairs."""
    return [("T" if isinstance(s, PulseTrain) else "R", _duration(s)) for s in segments]


def _trains(prog) -> list:
    return [seg for seg in prog.segments if isinstance(seg, PulseTrain)]


def _stub_templates(monkeypatch, first: PulseTrain, resolved: PulseTrain) -> None:
    """The planner's first template is ``first``; every train start re-solves
    (no drift tolerance), to ``resolved``."""
    trains = iter([first])
    monkeypatch.setattr(fespulse.planner, "_solve_template",
                        lambda *args, **kwargs: next(trains, resolved))
    monkeypatch.setattr(fespulse.planner, "_REDRIFT_TOL", 0.0)


def test_program_tiles_session_exactly(nominal_program):
    prog = nominal_program
    assert all(isinstance(seg, (PulseTrain, Rest)) for seg in prog.segments)
    cursor = 0.0
    for seg, start in zip(prog.segments, prog.bounds):
        assert start == pytest.approx(cursor, abs=1e-9)
        cursor += _duration(seg)
    assert cursor == pytest.approx(1500.0, abs=1e-9)
    assert prog.t_f == pytest.approx(1500.0, abs=1e-9)


def _fatigue_spec(t_f: float, rest: float) -> ObjectiveSpec:
    return ObjectiveSpec(kind="track_force_fatigue", f_ref=0.1, backend="oracle", w1=1.0,
                         a_s=P.a_rest / 2.0, t_f=t_f, rest_duration=rest, sim_step=1.0)


def _template(horizon: float) -> PulseTrain:
    return PulseTrain((0.0, horizon / 3.0, 2.0 * horizon / 3.0), (1.0, 0.8, 0.6), horizon)


def _cost_layout(monkeypatch, t_f: float, rest: float, train: PulseTrain) -> list:
    """The session the fatigue cost simulates, as (kind, duration) pairs."""
    seen = []
    session = fespulse.optimize._session

    def record(*args):
        seen.append(session(*args))
        return seen[-1]

    monkeypatch.setattr(fespulse.optimize, "_session", record)
    sig = DecisionVector(train.amplitudes, train.times[1:], train.horizon)
    objective_value(_fatigue_spec(t_f, rest), sig, P)
    ((segments, *_),) = seen
    return _kinds(segments)


def _plan_layout(monkeypatch, t_f: float, rest: float, train: PulseTrain) -> list:
    """The session the planner lays out with ``train`` as its only template."""
    monkeypatch.setattr(fespulse.planner, "_solve_template", lambda *args, **kwargs: train)
    spec = ProgramSpec(f_ref=0.1, n=2, train_horizon=train.horizon, rest_duration=rest,
                       t_f=t_f, sim_step=1.0)
    return _kinds(plan_endurance(spec, P).segments)


def test_fatigue_cost_absorbs_a_short_tail_into_the_last_rest(monkeypatch):
    # A 200 ms tail after the second rest leaves no room for a third train,
    # so it joins that rest, as in the planner; it is not a rest of its own.
    expected = [("T", 250.0), ("R", 200.0), ("T", 250.0), ("R", 300.0)]
    assert _cost_layout(monkeypatch, 1000.0, 200.0, _template(250.0)) == expected
    assert _plan_layout(monkeypatch, 1000.0, 200.0, _template(250.0)) == expected


def test_fatigue_cost_lays_out_the_planner_session(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [(1000.0, 200.0, 250.0), (700.0, 200.0, 250.0), (250.0, 200.0, 250.0),
             (900.0, 1000.0, 300.0)]
    for _ in range(10):
        horizon = float(rng.uniform(100.0, 400.0))
        cases.append((float(rng.uniform(horizon, 8.0 * horizon)),
                      float(rng.uniform(20.0, 600.0)), horizon))
    for t_f, rest, horizon in cases:
        train = _template(horizon)
        cost = _cost_layout(monkeypatch, t_f, rest, train)
        assert cost == _plan_layout(monkeypatch, t_f, rest, train), (t_f, rest, horizon)
        assert math.fsum(d for _, d in cost) == pytest.approx(t_f, abs=1e-9)


def test_fatigue_cost_and_planner_reject_a_session_shorter_than_one_train(monkeypatch):
    train = _template(300.0)
    sig = DecisionVector(train.amplitudes, train.times[1:], train.horizon)
    with pytest.raises(SessionTooShort, match="span 300.0 ms exceeds the session t_f=290.0 ms"):
        objective_value(_fatigue_spec(290.0, 200.0), sig, P)
    monkeypatch.setattr(fespulse.planner, "_solve_template", lambda *args, **kwargs: train)
    with pytest.raises(SessionTooShort, match="span 300.0 ms exceeds the session t_f=290.0 ms"):
        plan_endurance(ProgramSpec(f_ref=0.1, n=2, train_horizon=250.0, t_f=290.0), P)
    # The cost's error is an infeasible point to the solver, whose probes
    # shrink their step on it.
    assert issubclass(SessionTooShort, InfeasibleSigma)


def test_planner_rejects_a_resolved_template_longer_than_the_room_left(monkeypatch):
    # The first template (250 ms) leaves room for a second train after
    # [T250, R200]; with no drift tolerance that train start re-solves, and
    # the 400 ms template it gets does not fit in the 350 ms left.
    _stub_templates(monkeypatch, _template(250.0), _template(400.0))
    spec = ProgramSpec(f_ref=0.1, n=2, train_horizon=250.0, rest_duration=200.0, t_f=800.0,
                       sim_step=1.0)
    with pytest.raises(SessionTooShort,
                       match="span 400.0 ms exceeds the 350.0 ms left of the session t_f=800.0 ms"):
        plan_endurance(spec, P)


def test_program_reference_concentration_consistent(nominal_program):
    m1p, c_ref = steady_state_root(P, P.a_rest, 0.1)
    assert nominal_program.c_n_ref == pytest.approx(c_ref, rel=1e-12)
    assert 0.0 < m1p < 1.0
    resid = abs(float(eval_m1(c_ref, P)) * P.a_rest_ms / float(eval_m2(c_ref, P)) - 0.1)
    assert resid < 1e-9


def test_program_recovery_monotone_in_rests(nominal_program):
    # The fatigue state recovers monotonically once the force has died off
    # inside a rest (while force persists, its forcing term still wins).
    traj = nominal_program.trajectory
    a = traj.channel("a")
    force = traj.channel("force")
    bounds = nominal_program.bounds
    for seg, lo, hi in zip(nominal_program.segments, bounds, bounds[1:]):
        if isinstance(seg, PulseTrain):
            continue
        sel = (traj.grid >= lo) & (traj.grid <= hi) & (force < 1e-6)
        if int(sel.sum()) > 2:
            assert np.all(np.diff(a[sel]) >= -1e-12)


def test_plan_integrates_the_session_once(monkeypatch):
    # Each RK4 step of the session is taken exactly once: the trajectory's
    # grid has one interval per step, and no train or rest is re-simulated.
    # Each train and the rest after it take one integration call.
    steps = []
    calls = []
    scan = fespulse.simulate._rk4_scan
    integrate = fespulse.optimize._integrate

    def counting_scan(h, m1, m2, sizes, *rest):
        steps.append(int(sizes.sum()))
        return scan(h, m1, m2, sizes, *rest)

    def counting_integrate(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(fespulse.simulate, "_rk4_scan", counting_scan)
    monkeypatch.setattr(fespulse.optimize, "_integrate", counting_integrate)
    spec = ProgramSpec(
        f_ref=0.1, n=3, i_min=20.0, train_horizon=200.0,
        rest_duration=150.0, t_f=2400.0, sim_step=1.0,
    )
    prog = plan_endurance(spec, P, options=FAST)
    n_trains = len(_trains(prog))
    assert n_trains >= 3
    assert len(calls) == n_trains
    assert sum(steps) == len(prog.trajectory.grid) - 1


def _assert_plan_is_program_simulation(spec, monkeypatch, options=None):
    """Integrating train by train gives, bit for bit, the trajectory of one
    simulation of the finished program from t = 0, and every interval sees
    the step and Hill coefficients of that simulation. Returns the plan."""
    sweeps = []
    scan = fespulse.simulate._rk4_scan

    def recording_scan(h, m1, m2, sizes, *rest):
        splits = np.cumsum(sizes)[:-1]
        for h_i, m1_i, m2_i in zip(h, np.split(m1, splits, axis=1), np.split(m2, splits, axis=1)):
            sweeps.append((float(h_i), m1_i.tolist(), m2_i.tolist()))
        return scan(h, m1, m2, sizes, *rest)

    monkeypatch.setattr(fespulse.simulate, "_rk4_scan", recording_scan)
    prog = plan_endurance(spec, P, options=options)
    planned = list(sweeps)
    sweeps.clear()
    assert len(_trains(prog)) >= 2
    ref = simulate_force_fatigue(prog.segments, P, spec.sim_step)
    assert planned == sweeps
    assert np.array_equal(prog.trajectory.grid, ref.grid)
    for name in ("c_n", "force", "a"):
        assert np.array_equal(prog.trajectory.channel(name), ref.channel(name)), name
    return prog


# At the end of some of the 62.62 ms rests, np.exp and math.exp differ in
# the last bit of c_N: the value there must come from the next train's pulse.
@pytest.mark.parametrize("rest", [1.0, 37.5, 62.62, 400.0, 2000.0])
def test_plan_trajectory_equals_program_simulation_bitwise(rest, monkeypatch):
    spec = ProgramSpec(
        f_ref=0.12, n=3, i_min=20.0, train_horizon=200.0,
        rest_duration=rest, t_f=3200.0, k_fatigue=1.1,
    )
    _assert_plan_is_program_simulation(spec, monkeypatch, FAST)


def test_plan_lays_out_each_rest_by_the_train_in_use(monkeypatch):
    # After [T250, R200, T150] 400 ms are left: a 200 ms rest leaves room for
    # one more 150 ms train, though not for one of the first template's
    # 250 ms. Across the shorter re-solved template the plan stays, bit for
    # bit, the simulation of its program.
    _stub_templates(monkeypatch, _template(250.0), _template(150.0))
    spec = ProgramSpec(f_ref=0.1, n=2, train_horizon=250.0, rest_duration=200.0, t_f=1000.0,
                       sim_step=1.0)
    prog = _assert_plan_is_program_simulation(spec, monkeypatch)
    assert _kinds(prog.segments) == [("T", 250.0), ("R", 200.0), ("T", 150.0), ("R", 200.0),
                                     ("T", 150.0), ("R", 50.0)]
    assert prog.t_f == 1000.0
    assert [s["start_ms"] for s in prog.train_summaries] == [0.0, 450.0, 800.0]


def test_plan_equals_program_simulation_across_scan_blocks(monkeypatch):
    # Scan blocks sit at fixed step counts from each interval's start, so
    # the planner's per-segment calls and the one program call cut every
    # interval alike, whatever batches the blocks fall into.
    monkeypatch.setattr(fespulse.simulate, "_BLOCK_STEPS", 16)
    monkeypatch.setattr(fespulse.simulate, "_BATCH_STEPS", 40)
    spec = ProgramSpec(
        f_ref=0.12, n=3, i_min=20.0, train_horizon=200.0,
        rest_duration=400.0, t_f=2000.0, k_fatigue=1.1, sim_step=1.0,
    )
    prog = plan_endurance(spec, P, options=FAST)
    ref = simulate_force_fatigue(prog.segments, P, spec.sim_step)
    assert np.array_equal(prog.trajectory.grid, ref.grid)
    for name in ("c_n", "force", "a"):
        assert np.array_equal(prog.trajectory.channel(name), ref.channel(name)), name


@settings(max_examples=6, deadline=None)
@given(f_ref=st.floats(0.05, 0.3), rest=st.floats(50.0, 1000.0))
def test_tiled_program_concentration_decays_through_rests(f_ref, rest):
    # A tracking template keeps T - t_n > i_min >= tau_c, so the peak of its
    # last lobe falls inside the train and c_N only decays during a rest.
    spec = ProgramSpec(f_ref=f_ref, n=4, train_horizon=300.0, rest_duration=rest, t_f=1500.0)
    prog = plan_endurance(spec, P, options=FAST)
    traj = prog.trajectory
    c = traj.channel("c_n")
    for seg, lo, hi in zip(prog.segments, prog.bounds, prog.bounds[1:]):
        if isinstance(seg, Rest):
            sel = (traj.grid >= lo) & (traj.grid <= hi)
            assert np.all(np.diff(c[sel]) <= 0.0)


# The two sessions of the endurance-plan benchmark workload:
# (f_ref kN, t_f ms, rest ms, template solves).
@pytest.mark.parametrize(
    "f_ref, t_f, rest, solves", [(0.15, 20000.0, 2000.0, 1), (0.25, 12000.0, 300.0, 2)]
)
def test_benchmark_sessions_solve_their_templates_cleanly(f_ref, t_f, rest, solves, monkeypatch):
    outcomes = []
    solve = fespulse.planner.solve

    def recording_solve(*args):
        outcomes.append(solve(*args))
        return outcomes[-1]

    monkeypatch.setattr(fespulse.planner, "solve", recording_solve)
    spec = ProgramSpec(
        f_ref=f_ref, t_f=t_f, rest_duration=rest, k_fatigue=1.1, n=5, i_min=20.0,
        train_horizon=400.0,
    )
    prog = plan_endurance(spec, P)
    assert len(outcomes) == solves
    for out in outcomes:
        assert out.status == "converged"
        assert out.iterations <= 150
        assert not any(entry["capped"] for entry in out.trace)
    # A template is solved at the A of the first train start that uses it.
    # No train start may drift within 0.3 percentage points of the re-solve
    # tolerance from a template solved before it, so the count cannot flip.
    templates = []
    trains = _trains(prog)
    for train, summary in zip(trains, prog.train_summaries):
        for _, a_used in templates:
            drift = abs(summary["a_start"] - a_used) / a_used
            assert abs(drift - fespulse.planner._REDRIFT_TOL) >= 0.003
        if all(train is not known for known, _ in templates):
            templates.append((train, summary["a_start"]))
    assert len(templates) == solves


def test_program_force_within_envelope(nominal_program):
    template = _trains(nominal_program)[0]
    traj = simulate_force(template, P, 0.25)
    f = traj.channel("force")
    low, high = upper_lower_envelope(template, P, 1.05, 0.95, traj.grid)
    assert np.all(np.asarray(high) >= f - 1e-9)
    assert np.all(np.asarray(low) <= f + 1e-9)


def test_program_summaries_cover_each_train(nominal_program):
    assert len(nominal_program.train_summaries) == len(_trains(nominal_program))
    for summary in nominal_program.train_summaries:
        assert summary["peak_force_kN"] >= summary["terminal_force_kN"] >= 0.0
        assert summary["a_start"] <= P.a_rest + 1e-12


def test_settling_rate_of_reference_concentration():
    # Holding c_N at the reference, the force relaxes to f_ref at rate
    # m2(c_ref); a log-linear fit over the transient recovers that rate.
    f_ref = 0.1
    _, c_ref = steady_state_root(P, P.a_rest, f_ref)
    m1v = float(eval_m1(c_ref, P))
    m2v = float(eval_m2(c_ref, P))
    h = 0.05
    t_end = 3.0 / m2v
    steps = int(t_end / h)
    f = 0.0
    ts, fs = [0.0], [0.0]
    for j in range(steps):
        k1 = -m2v * f + m1v * P.a_rest_ms
        k2 = -m2v * (f + 0.5 * h * k1) + m1v * P.a_rest_ms
        k3 = -m2v * (f + 0.5 * h * k2) + m1v * P.a_rest_ms
        k4 = -m2v * (f + h * k3) + m1v * P.a_rest_ms
        f += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts.append((j + 1) * h)
        fs.append(f)
    ts, fs = np.asarray(ts), np.asarray(fs)
    sel = (ts > 5.0) & (fs < 0.95 * f_ref)
    slope = np.polyfit(ts[sel], np.log(f_ref - fs[sel]), 1)[0]
    assert abs(-slope - m2v) / m2v < 0.02


def test_vanishing_force_target_gives_near_empty_program():
    spec = ProgramSpec(
        f_ref=1e-7, n=3, i_min=20.0, train_horizon=200.0,
        rest_duration=300.0, t_f=1200.0, sim_step=1.0,
    )
    prog = plan_endurance(spec, P, options=SolveOptions(i_min=20.0, t_max=500.0))
    assert prog.c_n_ref < 1e-6
    amps = [a for train in _trains(prog) for a in train.amplitudes]
    # The bulk of the stimulus vanishes; a trailing pulse whose lobe falls
    # outside its collapsed interval may stay at an arbitrary level.
    assert amps and float(np.median(amps)) < 1e-3
    assert prog.trajectory.channel("c_n").max() < 2e-3
    assert prog.trajectory.channel("force").max() < 1e-3


def test_unreachable_force_propagates():
    f_max = P.a_rest_ms * (P.tau_1 + P.tau_2)
    with pytest.raises(UnreachableForce):
        plan_endurance(ProgramSpec(f_ref=1.2 * f_max, t_f=1000.0, train_horizon=300.0), P)


def test_fatigue_threshold_breach_is_flagged():
    # A threshold just below rest level is crossed by any real stimulation.
    spec = ProgramSpec(
        f_ref=0.12, n=4, i_min=20.0, train_horizon=300.0,
        rest_duration=200.0, t_f=1300.0, k_fatigue=1.002, sim_step=0.5,
    )
    prog = plan_endurance(spec, P, options=FAST)
    assert prog.fatigue_breach_time is not None
    assert 0.0 < prog.fatigue_breach_time <= 1300.0
    assert prog.a_threshold == pytest.approx(P.a_rest / 1.002)


@pytest.fixture(scope="module")
def f_max_pair():
    return tuple(derive_f_max(ProgramSpec(k_ratio=2.0, n=n), P) for n in (5, 7))


def test_f_max_monotone_in_pulse_count(f_max_pair):
    f5, f7 = f_max_pair
    assert f7 >= f5 - 1e-9


def test_f_max_beats_single_pulse_peak(f_max_pair):
    single = simulate_force(PulseTrain((0.0,), (1.0,), 150.0), P)
    assert f_max_pair[1] > float(single.channel("force").max())
