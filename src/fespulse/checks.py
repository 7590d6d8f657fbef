"""Measured invariants: one function per claim the package makes.

Each function takes model parameters, a random generator or a train, a
simulation step and sizes, and returns its measured figures as a tuple; none
of them asserts. The acceptance gate (``tests/test_acceptance.py``) and the
``validate`` and ``bench`` subcommands hold these figures against their
thresholds, so both measure each invariant with the same procedure.
"""

from __future__ import annotations

import math
import time
import timeit

import numpy as np

from .approx import (
    ForceApprox,
    build_m_approx,
    error_bound_persistent,
    force_error_bound,
    persistence_order,
    truncated_cn,
    upper_lower_envelope,
)
from .model import ModelParams, PulseTrain, compute_scaling, eval_cn, eval_lobe
from .simulate import (
    Rest,
    oracle_force_quadrature,
    reparam_force_check,
    simulate_force,
    simulate_force_fatigue,
)

__all__ = [
    "T6",
    "random_train",
    "lobe_law",
    "oracle_concordance",
    "truncation_bound",
    "force_bound",
    "envelope_margins",
    "fatigue_response",
    "evaluation_speedup",
]

# Six full-amplitude pulses 60 ms apart over a 360 ms horizon (i_min 20 ms).
T6 = PulseTrain(tuple(i * 60.0 for i in range(6)), (1.0,) * 6, 360.0, 20.0)


def random_train(rng: np.random.Generator, n_max: int = 6, amp_lo: float = 0.25) -> PulseTrain:
    """Admissible random train (i_min 20 ms): 1..n_max gaps of 20 ms plus
    exponential slack (mean 25 ms), a 40-140 ms tail, amplitudes uniform in
    [amp_lo, 1)."""
    n = int(rng.integers(1, n_max + 1))
    gaps = 20.0 + rng.exponential(25.0, size=n)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    horizon = float(times[-1] + rng.uniform(40.0, 140.0))
    amps = rng.uniform(amp_lo, 1.0, size=n + 1)
    return PulseTrain(tuple(times), tuple(amps), horizon, 20.0)


def lobe_law(
    params: ModelParams, rng: np.random.Generator, n_trains: int
) -> tuple[float, float, bool]:
    """One random lobe of each of ``n_trains`` random trains: the worst
    relative error of the peak R_k eta_k / e at t_k + tau_c, the least share
    of the lobe mass R_k eta_k tau_c within 5 tau_c, and whether every
    lobe's curvature changes sign around t_k + 2 tau_c."""
    tau = params.tau_c
    worst_peak = 0.0
    worst_mass = 1.0
    inflection_ok = True
    for _ in range(n_trains):
        train = random_train(rng, n_max=10)
        k = int(rng.integers(0, train.n + 1))
        amp = train.amplitudes[k]
        if amp < 1e-9:
            continue
        scal = compute_scaling(train, params)[k]
        t_k = train.times[k]
        peak = eval_lobe(train, params, k, t_k + tau)
        worst_peak = max(worst_peak, abs(peak - scal * amp / math.e) / (scal * amp / math.e))
        window = np.asarray(eval_lobe(train, params, k, t_k + np.linspace(1.6 * tau, 2.4 * tau, 41)))
        dd = np.diff(window, 2)
        inflection_ok = inflection_ok and bool(dd[0] < 0.0 < dd[-1])
        u = np.linspace(0.0, 5.0 * tau, 1501)
        mass = float(np.trapezoid(np.asarray(eval_lobe(train, params, k, t_k + u)), u))
        worst_mass = min(worst_mass, mass / (scal * amp * tau))
    return worst_peak, worst_mass, inflection_ok


def oracle_concordance(
    params: ModelParams, rng: np.random.Generator, n_trains: int, sim_step: float
) -> tuple[float, float]:
    """The force oracles pairwise on ``n_trains`` random trains: the worst
    gaps in kN of RK4 (at T/2 and T) and of the reparameterized clock
    against nested quadrature."""
    worst_sq = 0.0
    worst_rq = 0.0
    for _ in range(n_trains):
        train = random_train(rng, n_max=5)
        traj = simulate_force(train, params, sim_step)
        for frac in (0.5, 1.0):
            t = float(traj.grid[int(np.argmin(np.abs(traj.grid - frac * train.horizon)))])
            f_quad = oracle_force_quadrature(train, params, t)
            worst_sq = max(worst_sq, abs(traj.at("force", t) - f_quad))
        worst_rq = max(worst_rq, reparam_force_check(train, params, n_samples=2))
    return worst_sq, worst_rq


def truncation_bound(params: ModelParams, trains) -> tuple[int, int, float]:
    """The last-p-lobe truncation at each train's persistence order p
    against its sup bound: the pulse intervals checked, those whose sup gap
    exceeds the bound by more than 1e-12, and the least bound - gap."""
    intervals = violations = 0
    min_margin = math.inf
    for train in trains:
        p = persistence_order(train, params)
        trunc = truncated_cn(train, params, p)
        for k in range(train.n + 1):
            lo, hi = train.interval(k)
            # The truncation window switches right-continuously at t_{k+1};
            # the per-interval sup is over [t_k, t_{k+1}).
            ts = np.linspace(lo, hi, 161)[:-1]
            gap = float(np.max(np.asarray(eval_cn(train, params, ts)) - np.asarray(trunc(ts))))
            bound = error_bound_persistent(train, params, p, k)
            intervals += 1
            if gap > bound + 1e-12:
                violations += 1
            min_margin = min(min_margin, bound - gap)
    return intervals, violations, min_margin


def force_bound(
    params: ModelParams, rng: np.random.Generator, n_cases: int, sim_step: float
) -> tuple[int, int, int]:
    """The L1 force error bound at the pulse nodes of the constant-average
    approximation on ``n_cases`` trains of 2-4 gaps under 2 tau_c: the nodes
    whose bound hypotheses hold at p = 2, those of them whose error exceeds
    the bound by more than 1e-12, and the cases whose worst node error at
    p = 4 is at most the one at p = 2."""
    nodes_checked = violations = refine_ok = 0
    for _ in range(n_cases):
        n = int(rng.integers(2, 5))
        gaps = rng.uniform(20.0, 2.0 * params.tau_c, size=n)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        train = PulseTrain(
            tuple(times),
            tuple(rng.uniform(0.4, 1.0, size=n + 1)),
            float(times[-1] + rng.uniform(24.0, 2.0 * params.tau_c)),
            20.0,
        )
        traj = simulate_force(train, params, sim_step)
        errs = {}
        for p in (2, 4):
            ap = build_m_approx(train, params, scheme="constant-average", p=p)
            nodes = np.asarray(ap.pulse_breaks)
            f_tilde = ForceApprox(ap).values(nodes, params.a_rest)
            f_true = np.array([traj.at("force", t) for t in nodes])
            errs[p] = float(np.max(np.abs(f_tilde - f_true)))
            if p == 2:
                for k in range(len(nodes)):
                    rep = force_error_bound(train, params, ap, k)
                    if not rep.hypotheses_ok:
                        continue
                    nodes_checked += 1
                    if abs(f_tilde[k] - f_true[k]) / params.a_rest_ms > rep.bound + 1e-12:
                        violations += 1
        if errs[4] <= errs[2] + 1e-15:
            refine_ok += 1
    return nodes_checked, violations, refine_ok


def envelope_margins(
    params: ModelParams, train: PulseTrain, sim_step: float
) -> tuple[float, float, int]:
    """The staircase nu-envelopes against the RK4 force on its grid:
    min(F_high - F) at nu = 0.95 and max(F_low - F) at nu = 1.05 in kN (each
    envelope holds where its figure has the right sign), and the grid size."""
    traj = simulate_force(train, params, sim_step)
    force = traj.channel("force")
    f_low, f_high = upper_lower_envelope(train, params, 1.05, 0.95, traj.grid)
    upper = float(np.min(np.asarray(f_high) - force))
    lower = float(np.max(np.asarray(f_low) - force))
    return upper, lower, len(traj.grid)


def fatigue_response(params: ModelParams, sim_step: float) -> tuple[bool, float, float]:
    """Three 5-pulse trains (60 ms apart, 300 ms each), then a 9 s rest:
    whether A stays below a_rest under load after t_1, the drop
    a_rest - min A under load in kN/s, and the relative error against
    1/tau_fat of the recovery rate fitted to log(a_rest - A) over 3-9.9 s
    (infinite unless A stays below a_rest there)."""
    train = PulseTrain(tuple(i * 60.0 for i in range(5)), (1.0,) * 5, 300.0, 20.0)
    traj = simulate_force_fatigue([train, train, train, Rest(9000.0)], params, sim_step)
    grid, a = traj.grid, traj.channel("a")
    load = a[(grid > train.times[1]) & (grid <= 900.0)]
    sel = (grid >= 3000.0) & (grid <= 9900.0)
    deficit = params.a_rest - a[sel]
    rate_err = math.inf
    if np.all(deficit > 0.0):
        slope = np.polyfit(grid[sel], np.log(deficit), 1)[0]
        rate_err = abs(-slope - 1.0 / params.tau_fat_ms) * params.tau_fat_ms
    return bool(np.all(load < params.a_rest)), params.a_rest - float(load.min()), rate_err


def _interleaved_best_of_5(*fns) -> list[float]:
    """Seconds per call of each function: the best of 5 samples, each the
    mean over enough calls to last about 20 ms (so one load spike cannot
    decide a sample), interleaved across the functions, with GC on."""
    timers = [timeit.Timer(fn, "gc.enable()") for fn in fns]
    calls = [max(1, math.ceil(0.02 / timer.timeit(1))) for timer in timers]
    best = [math.inf] * len(fns)
    for _ in range(5):
        best = [min(b, t.timeit(c) / c) for b, t, c in zip(best, timers, calls)]
    return best


def evaluation_speedup(params: ModelParams, n_points: int) -> tuple[float, float, float]:
    """Precomputed F~ evaluation against re-simulation of :data:`T6` at
    ``n_points`` times over [0, T]: seconds for one build of the
    affine-constant table at nu = 0.95, and seconds per F~ evaluation and
    per default-step RK4 run interpolated to the same times (see
    :func:`_interleaved_best_of_5`)."""
    t0 = time.perf_counter()
    evaluator = ForceApprox(build_m_approx(T6, params, scheme="affine-constant", p=2, nu=0.95))
    build_s = time.perf_counter() - t0
    ts = np.linspace(0.0, T6.horizon, n_points)

    def oracle():
        traj = simulate_force(T6, params)
        np.interp(ts, traj.grid, traj.channel("force"))

    eval_s, oracle_s = _interleaved_best_of_5(lambda: evaluator.values(ts, params.a_rest), oracle)
    return build_s, eval_s, oracle_s
