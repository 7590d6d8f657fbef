"""Ground-truth trajectories by direct numerical integration.

The concentration layer is always evaluated in closed form (see
:mod:`fespulse.model`); only the force and fatigue states are integrated.
Every integration step is split at impulse times so the right-hand side is
smooth within each step. Three independent force evaluations are provided:
an integrator of the (F, A) system (one hand-written fixed-step RK4 sweep,
or scipy's adaptive RK45 called once per pulse interval on the same
right-hand side), a nested adaptive-quadrature evaluation of the exact
integral form, and a time-reparameterized re-derivation used as a
consistency check. The force-only simulation is the force-fatigue
integrator with alpha = 0, under which A stays at a_rest exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp
from scipy.interpolate import PchipInterpolator

from .model import (
    ConcentrationState,
    ModelParams,
    PulseTrain,
    _ScalarHill,
    concentration_state,
    eval_m1,
    eval_m2,
)

__all__ = [
    "SimOptions",
    "Trajectory",
    "Rest",
    "StepTooLarge",
    "QuadratureNoConvergence",
    "simulate_force",
    "simulate_force_fatigue",
    "oracle_force_quadrature",
    "reparam_force_check",
]


class StepTooLarge(RuntimeError):
    """The adaptive integrator could not reach the end of an interval."""


class QuadratureNoConvergence(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SimOptions:
    """Integrator options: ``step`` for RK4 (``None`` resolves to
    tau_c / 50), the tolerances for the adaptive method."""

    step: float | None = None
    method: str = "rk4"          # "rk4" (fixed step) or "adaptive"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.step is not None and self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.method not in ("rk4", "adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time grid plus aligned state channels."""

    grid: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("trajectory grid must be strictly increasing")
        for name, vals in self.channels.items():
            if len(vals) != len(self.grid):
                raise ValueError(f"channel {name!r} length mismatch with grid")

    def channel(self, name: str) -> np.ndarray:
        return self.channels[name]

    def terminal(self, name: str) -> float:
        return float(self.channels[name][-1])

    def at(self, name: str, t: float) -> float:
        """Exact-grid lookup; raises if t is not a grid point."""
        i = int(np.searchsorted(self.grid, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.grid) and abs(self.grid[j] - t) < 1e-9:
                return float(self.channels[name][j])
        raise KeyError(f"t={t} is not on the trajectory grid")


@dataclass(frozen=True)
class Rest:
    """A stimulation-free span inside a fatigue program."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError(f"rest duration must be positive, got {self.duration}")


def _interval_nodes(lo: float, hi: float, step: float) -> np.ndarray:
    # At least four RK4 steps per interval, however short.
    m = max(4, int(math.ceil((hi - lo) / step - 1e-12)))
    return np.linspace(lo, hi, m + 1)


def _stage_times(nodes: np.ndarray) -> np.ndarray:
    """Nodes interleaved with midpoints: t0, t0+h/2, t1, t1+h/2, ..., tm."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    out = np.empty(2 * len(nodes) - 1)
    out[0::2] = nodes
    out[1::2] = mids
    return out


def _rk4_sweep(h: float, m1: list, m2: list, f: float, a: float, a_rest: float,
               tau_fat: float, alpha: float) -> tuple[list, list]:
    """Fixed-step RK4 for F' = -m2 F + m1 A, A' = -(A - a_rest)/tau_fat + alpha F.

    ``m1`` / ``m2`` are sampled at the stage times of :func:`_stage_times`
    (node 0, mid 0, node 1, ..., node m). Python floats throughout: the loop
    is scalar, and float arithmetic is the same IEEE arithmetic as numpy's
    scalars at a fraction of the cost. With ``alpha`` = 0 and ``a`` =
    ``a_rest`` every A increment is exactly zero, so A stays at a_rest.
    """
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


def _adaptive_interval(rhs, lo: float, hi: float, y0, rel_tol: float, abs_tol: float):
    """scipy's RK45 over [lo, hi]; returns the accepted nodes and states."""
    sol = solve_ivp(rhs, (lo, hi), y0, method="RK45", rtol=rel_tol, atol=abs_tol)
    if not sol.success:
        raise StepTooLarge(f"adaptive step failed on [{lo}, {hi}]: {sol.message}")
    return sol.t, sol.y


def _integrate(state: ConcentrationState, breaks, params: ModelParams, opts: SimOptions,
               alpha: float, f: float = 0.0, a: float | None = None):
    """(F, A) from (``f``, ``a``), by default rest, over every interval
    between ``breaks`` (RK4 or scipy's RK45 per interval); A in kN/ms.
    Returns the per-interval grid, F and A parts (see :func:`_stitch`)."""
    a_rest = params.a_rest_ms
    tau_fat = params.tau_fat_ms
    step = opts.step if opts.step is not None else params.tau_c / 50.0
    hill = _ScalarHill(state, params)

    def rhs(t, y):
        m1 = hill.m1(t)
        return [-hill.m2(t) * y[0] + m1 * y[1], -(y[1] - a_rest) / tau_fat + alpha * y[0]]

    grid_parts, f_parts, a_parts = [], [], []
    a = a_rest if a is None else a
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo <= 1e-12:
            continue
        if opts.method == "rk4":
            ts = _interval_nodes(lo, hi, step)
            c = state.cn(_stage_times(ts))
            fs, as_ = _rk4_sweep(
                float(ts[1] - ts[0]), eval_m1(c, params).tolist(),
                eval_m2(c, params).tolist(), f, a, a_rest, tau_fat, alpha,
            )
        else:
            ts, (fs, as_) = _adaptive_interval(rhs, lo, hi, [f, a], opts.rel_tol, opts.abs_tol)
        f, a = fs[-1], as_[-1]
        grid_parts.append(ts)
        f_parts.append(fs)
        a_parts.append(as_)
    return grid_parts, f_parts, a_parts


def _stitch(parts) -> np.ndarray:
    """One array from per-interval parts that share their end points."""
    return np.concatenate([p[:-1] for p in parts] + [parts[-1][-1:]])


def simulate_force(
    train: PulseTrain, params: ModelParams, opts: SimOptions | None = None
) -> Trajectory:
    """Integrate F' = -m2 F + m1 A from rest with A fixed at a_rest.

    This is the force-fatigue integrator with alpha = 0, under which A
    never leaves a_rest. The concentration entering m1 and m2 comes from
    the closed form, never from integrating the stimulation signal. The
    output grid contains every impulse time exactly once.
    """
    state = concentration_state(train, params)
    breaks = list(train.times) + [train.horizon]
    grid, force, _ = map(_stitch, _integrate(state, breaks, params, opts or SimOptions(), 0.0))
    return Trajectory(grid=grid, channels={"c_n": state.cn(grid), "force": force})


def _flatten_program(segments) -> tuple[list[float], list[float], list[float], float]:
    """Global pulse times/amplitudes and segment boundaries of a program."""
    times: list[float] = []
    amps: list[float] = []
    bounds = [0.0]
    cur = 0.0
    for seg in segments:
        if isinstance(seg, PulseTrain):
            times.extend(cur + t for t in seg.times)
            amps.extend(seg.amplitudes)
            cur += seg.horizon
        elif isinstance(seg, Rest):
            cur += seg.duration
        else:
            raise TypeError(f"program segment must be PulseTrain or Rest, got {seg!r}")
        bounds.append(cur)
    if not times:
        # A pure-rest program still integrates (trivially) from rest.
        times, amps = [0.0], [0.0]
    if any(b - a <= 0.0 for a, b in zip(times, times[1:])):
        raise ValueError("program pulses must be strictly increasing in global time")
    return times, amps, bounds, cur


def simulate_force_fatigue(
    segments, params: ModelParams, opts: SimOptions | None = None
) -> Trajectory:
    """Co-integrate force and fatigue over a sequence of trains and rests.

    ``segments`` is an iterable of :class:`PulseTrain` and :class:`Rest`
    covering [0, t_f] back to back. During rests the concentration keeps
    its closed-form decay from all earlier pulses; the scaling memory runs
    across segment boundaries (and dies off naturally over long rests).
    The ``a`` channel is reported in kN/s.
    """
    times, amps, bounds, t_f = _flatten_program(segments)
    if t_f <= 0.0:
        raise ValueError("program must have positive total duration")
    state = ConcentrationState.from_pulses(times, amps, params)
    breaks = sorted(set(t for t in times if t < t_f) | set(bounds))
    parts = _integrate(state, breaks, params, opts or SimOptions(), params.alpha_a_ms)
    grid, force, a = map(_stitch, parts)
    return Trajectory(grid=grid, channels={"c_n": state.cn(grid), "force": force, "a": a * 1e3})


def _checked_quad(f, lo: float, hi: float, epsabs: float = 1e-13) -> float:
    if hi - lo <= 0.0:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(f, lo, hi, epsabs=epsabs, epsrel=1e-11, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureNoConvergence(f"quad failed on [{lo}, {hi}]: {exc}") from exc
    if err > max(1e-9, 1e-8 * abs(val)):
        raise QuadratureNoConvergence(
            f"quad error estimate {err} too large on [{lo}, {hi}]"
        )
    return val


class _M2Accumulator:
    """Cached per-interval quadratures of m2, so Phi(s) = int_0^s m2 costs
    one partial quadrature regardless of how many pulse intervals precede s."""

    def __init__(self, train: PulseTrain, params: ModelParams, t_end: float):
        self._hill = _ScalarHill(concentration_state(train, params), params)
        self._m2 = self._hill.m2
        self.breaks = [0.0] + [t for t in train.times if 0.0 < t < t_end] + [t_end]
        self._cum = [0.0]
        for a, b in zip(self.breaks, self.breaks[1:]):
            self._cum.append(self._cum[-1] + _checked_quad(self._m2, a, b))

    def m2(self, s: float) -> float:
        return self._m2(s)

    def phi(self, s: float) -> float:
        j = max(0, min(np.searchsorted(self.breaks, s, side="right") - 1, len(self.breaks) - 2))
        return self._cum[j] + _checked_quad(self._m2, self.breaks[j], s)


def oracle_force_quadrature(train: PulseTrain, params: ModelParams, t: float) -> float:
    """Force via the exact integral form, by nested adaptive quadrature.

    F(t) = A int_0^t exp(-int_s^t m2(u) du) m1(s) ds. The inner integral is
    itself quadrature-evaluated (with per-interval caching); absolute error
    target 1e-10. Fatigue-free model only.
    """
    t = float(t)
    if t < 0.0 or t > train.horizon + 1e-9:
        raise ValueError(f"t={t} outside [0, {train.horizon}]")
    if t == 0.0:
        return 0.0
    acc = _M2Accumulator(train, params, t)
    phi_t = acc.phi(t)
    m1 = acc._hill.m1
    phi = acc.phi

    def integrand(s: float) -> float:
        return math.exp(phi(s) - phi_t) * m1(s)

    total = 0.0
    for a, b in zip(acc.breaks, acc.breaks[1:]):
        total += _checked_quad(integrand, a, b, epsabs=1e-12)
    return params.a_rest_ms * total


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)


def _gauss_cells(edges: np.ndarray, fn) -> np.ndarray:
    """10-point Gauss-Legendre integrals of fn over each cell between edges."""
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return (vals @ _GAUSS_W) * half


def reparam_force_check(
    train: PulseTrain,
    params: ModelParams,
    t_max: float | None = None,
    n_samples: int = 10,
) -> float:
    """Max gap between the reparameterized force and the quadrature oracle.

    In the clock s(t) = int_0^t m2, the force is F(s) = int_0^s e^{u-s}
    m3(u) du with m3 = A m1/m2. We build the monotone map s(t) on a dense
    grid, invert it, evaluate the s-clock integral by composite Gauss
    quadrature and compare against :func:`oracle_force_quadrature` on a
    sample grid. The mapping s(t) is strictly increasing since m2 > 0.
    """
    t_end = float(t_max) if t_max is not None else train.horizon
    if t_end <= 0.0 or t_end > train.horizon + 1e-9:
        raise ValueError(f"t_max={t_max} outside (0, {train.horizon}]")

    # Dense physical grid, cell-wise Gauss accumulation of s(t).
    breaks = [0.0] + [t for t in train.times if 0.0 < t < t_end] + [t_end]
    cell = params.tau_c / 100.0
    x_nodes = np.concatenate(
        [
            np.linspace(a, b, max(2, int(math.ceil((b - a) / cell)) + 1))[:-1]
            for a, b in zip(breaks, breaks[1:])
        ]
        + [np.array([t_end])]
    )

    cn = concentration_state(train, params).cn

    def m2_of_t(x):
        return eval_m2(cn(x), params)

    s_nodes = np.concatenate([[0.0], np.cumsum(_gauss_cells(x_nodes, m2_of_t))])
    t_of_s = PchipInterpolator(s_nodes, x_nodes)

    def m3_of_u(u):
        x = t_of_s(u)
        c = cn(x)
        m1 = eval_m1(c, params)
        m2 = eval_m2(c, params)
        return params.a_rest_ms * m1 / m2

    # Sample times snapped onto the dense grid so s is exact there.
    targets = np.linspace(t_end / n_samples, t_end, n_samples)
    idx = sorted(set(int(np.argmin(np.abs(x_nodes - tv))) for tv in targets))
    pulse_s = {float(s_nodes[int(np.argmin(np.abs(x_nodes - tp)))]) for tp in train.times if tp < t_end}

    worst = 0.0
    for i in idx:
        t_i, s_i = float(x_nodes[i]), float(s_nodes[i])
        if s_i <= 0.0:
            f_rep = 0.0
        else:
            inner = sorted(p for p in pulse_s if 0.0 < p < s_i)
            edges_list = []
            for a, b in zip([0.0] + inner, inner + [s_i]):
                m = max(1, int(math.ceil((b - a) / 0.05)))
                edges_list.append(np.linspace(a, b, m + 1)[:-1])
            edges = np.concatenate(edges_list + [np.array([s_i])])
            f_rep = float(_gauss_cells(edges, lambda u: np.exp(u - s_i) * m3_of_u(u)).sum())
        f_ora = oracle_force_quadrature(train, params, t_i)
        worst = max(worst, abs(f_rep - f_ora))
    return worst
