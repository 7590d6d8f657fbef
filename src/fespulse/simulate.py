"""Ground-truth trajectories by direct numerical integration.

The concentration layer is always evaluated in closed form (see
:mod:`fespulse.model`); only the force and fatigue states are integrated.
Every integration step is split at impulse times so the right-hand side is
smooth within each step. Three independent force evaluations are provided:
a fixed-step RK4 integrator of the (F, A) system, a nested adaptive-quadrature
evaluation of the exact integral form, and a time-reparameterized
re-derivation used as a consistency check. The force-only simulation is the
force-fatigue integrator with alpha = 0, under which A stays at a_rest
exactly.

The RK4 integrator treats the system as sampled data: once c_N is known,
(F, A) is linear, so every step is an affine map of (F, A - a_rest). All
steps of a call are formed at once from the RK4 stage formulas, composed
inside each interval by a segmented prefix scan, and the interval start
states are chained in one short loop, A carried across every boundary.
A call's output thus depends only on each interval's steps and start
state, which is what lets a session be integrated train by train (each
with the rest after it, in ``optimize._session``), bit for bit the one-call
simulation of the finished program. A program is a sequence of
:class:`PulseTrain` and :class:`Rest` values; :func:`_flatten_program` is
the one place that turns it into global pulse times, amplitudes, breaks and
segment bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
# scipy is imported inside the two functions that call it: no RK4 run
# reaches them, and importing it would take most of a CLI call's start-up.

from .model import (
    ConcentrationState,
    ModelParams,
    PulseTrain,
    _linspace_nodes,
    _ScalarHill,
    concentration_state,
    eval_m1,
    eval_m2,
)

__all__ = [
    "Trajectory",
    "Rest",
    "QuadratureNoConvergence",
    "simulate_force",
    "simulate_force_fatigue",
    "oracle_force_quadrature",
    "reparam_force_check",
]


class QuadratureNoConvergence(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time grid plus aligned state channels."""

    grid: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if np.any(self.grid[1:] <= self.grid[:-1]):
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


# RK4 steps per scan block. An interval is cut into blocks of at most this
# many steps, at fixed positions from its start, and a call runs in batches
# of whole blocks of about _BATCH_STEPS steps, so that memory stays bounded
# on long rests whatever the batch holds. Beside a call's outputs a batch
# holds about 194 bytes per step (tracemalloc peak: 3.2 MB at 2^14 steps).
# Of batch sizes 2^12 to 2^16, 2^14 ran fastest on a 381 s rest and within
# 8 % of the fastest on a 250-pulse train (2-CPU x86-64 Xeon, numpy 2.4).
_BLOCK_STEPS = 2**14
_BATCH_STEPS = 2**14


def _rk4_step(h, m1, m2, y, drive: float, tau_fat: float, alpha: float):
    """One fixed-step RK4 step of F' = -m2 F + m1 (d + drive),
    d' = -d / tau_fat + alpha F, on arrays of steps at once.

    ``y`` is (F,) or (F, d); without d, d stays zero. ``m1``/``m2`` hold the
    Hill functions at the start, midpoint and end of each step. With d =
    A - a_rest and drive = a_rest this is the (F, A) system; drive = 0 gives
    its homogeneous part.
    """
    half = 0.5 * h

    def slope(i, state):  # m1 A - m2 F is -m2 F + m1 A, bit for bit
        f = state[0]
        if len(state) == 1:
            return (m1[i] * drive - m2[i] * f,)
        d = state[1]
        return m1[i] * (d + drive) - m2[i] * f, alpha * f - d / tau_fat

    # k1 + 2 k2 + 2 k3 + k4 is summed from the left, in place, as each stage
    # is formed (1.0 k4 is k4), so at most two stages are held at once.
    k = slope(0, y)
    acc = list(k)
    for width, i, weight in ((half, 1, 2.0), (half, 1, 2.0), (h, 2, 1.0)):
        k = slope(i, [v + width * kv for v, kv in zip(y, k)])
        for j, kv in enumerate(k):
            acc[j] += weight * kv
    del half, k
    sixth = h / 6.0
    return [v + sixth * s for v, s in zip(y, acc)]


def _dot(row, col):
    """sum(r * c) from the left, on scalars or arrays (summed in place)."""
    acc = row[0] * col[0]
    for r, c in zip(row[1:], col[1:]):
        acc += r * c
    return acc


def _apply(mat, off, y):
    """The affine map y -> mat y + off, on scalars or arrays."""
    out = []
    for row, o in zip(mat, off):
        out.append(_dot(row, y))
        out[-1] += o
    return out


def _prefix_scan(mat, off, sizes: np.ndarray):
    """Segmented inclusive prefix composition of affine maps, in place.

    ``mat`` (n x n) and ``off`` (n) are lists of arrays over the steps of
    consecutive blocks of ``sizes`` steps. Afterwards entry k holds the
    composition of its block's maps up to and including k. Each pass
    composes entry k with entry k - s when k lies at least s steps into its
    block (Hillis and Steele), so the result at k depends only on its own
    block, whatever batch it is scanned in.
    """
    pos = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    shift = 1
    while shift < sizes.max():
        on = pos[shift:] >= shift
        late_m = [[e[shift:] for e in row] for row in mat]
        early_m = [[e[:-shift] for e in row] for row in mat]
        new_m = [[_dot(row, col) for col in zip(*early_m)] for row in late_m]
        new_b = _apply(late_m, [e[shift:] for e in off], [e[:-shift] for e in off])
        for row, new_row in zip(mat, new_m):
            for e, new in zip(row, new_row):
                np.copyto(e[shift:], new, where=on)
        for e, new in zip(off, new_b):
            np.copyto(e[shift:], new, where=on)
        shift *= 2


def _rk4_scan(h, m1, m2, sizes, f: float, a: float, a_rest: float, tau_fat: float,
              alpha: float):
    """(F, A) after every fixed-step RK4 step of consecutive blocks.

    A block of ``sizes[i]`` steps of width ``h[i]`` has its Hill samples
    ``m1``/``m2`` (rows: step start, midpoint, end) in one run of columns.
    Every step is an affine map of y = (F, A - a_rest); a segmented prefix
    scan composes the maps of each block, and one loop over blocks chains
    their start states, carrying A. With ``alpha`` = 0 and ``a`` = a_rest
    the A row is the identity, so the scan runs on F alone and A stays at
    a_rest exactly; A is then returned as that one float.
    """
    steps = np.repeat(h, sizes)
    n = 1 if alpha == 0.0 and a == a_rest else 2
    basis = [[1.0 if r == c else 0.0 for r in range(n)] for c in range(n)]
    cols = [_rk4_step(steps, m1, m2, e, 0.0, tau_fat, alpha) for e in basis]
    mat = [list(row) for row in zip(*cols)]
    off = _rk4_step(steps, m1, m2, [0.0] * n, a_rest, tau_fat, alpha)
    del steps
    _prefix_scan(mat, off, sizes)

    # Chain the block start states on Python floats, with the arithmetic of
    # the array pass below, so a block's end state is its last output. Each
    # block starts from A, as a new call would, so d is rounded through
    # A = d + a_rest there.
    last = np.cumsum(sizes) - 1
    y = [float(f), float(a) - a_rest][:n]
    starts = []
    for v in zip(*(e[last].tolist() for e in [*(e for row in mat for e in row), *off])):
        starts.append(y)
        y = _apply([v[r * n:(r + 1) * n] for r in range(n)], v[n * n:], y)
        if n == 2:
            y[1] = (y[1] + a_rest) - a_rest
    y0 = [np.repeat(v, sizes) for v in zip(*starts)]
    y = _apply(mat, off, y0)
    return y[0], (y[1] + a_rest if n == 2 else a_rest)


def _integrate(state: ConcentrationState, breaks, params: ModelParams, step: float | None,
               alpha: float, f: float = 0.0, a: float | None = None):
    """(F, A) from (``f``, ``a``), by default rest, over every interval
    between ``breaks``; A in kN/ms. Returns the grid, c_N, F and A, each
    interval contributing its nodes but the last, and the call its final
    node.

    Each interval takes max(4, ceil(width / step)) equal RK4 steps, on the
    nodes of ``np.linspace``, all run through :func:`_rk4_scan`. ``step``
    None is tau_c / 50. c_N is the closed form at the nodes, as the steps
    sample it; beside the outputs, memory holds one batch.
    """
    if step is None:
        step = params.tau_c / 50.0
    elif step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    a_rest = params.a_rest_ms
    tau_fat = params.tau_fat_ms
    a = a_rest if a is None else a
    b = np.asarray(breaks, dtype=float)
    keep = b[1:] - b[:-1] > 1e-12
    lo, hi = b[:-1][keep], b[1:][keep]
    m = np.maximum(4, np.ceil((hi - lo) / step - 1e-12)).astype(np.int64)
    h = _linspace_nodes(lo, hi, m, 1) - lo
    # Blocks of at most _BLOCK_STEPS steps from each interval's start.
    per = (m + _BLOCK_STEPS - 1) // _BLOCK_STEPS
    block_iv = np.repeat(np.arange(len(m)), per)
    block_j0 = (np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)) * _BLOCK_STEPS
    block_size = np.minimum(m[block_iv] - block_j0, _BLOCK_STEPS)
    # Batches of whole blocks, cut where the step count passes a multiple
    # of _BATCH_STEPS.
    cum = np.cumsum(block_size)
    cuts = np.flatnonzero(np.diff((cum - 1) // _BATCH_STEPS)) + 1

    total = int(cum[-1])
    grid, c_n, force, a_out = (np.empty(total + 1) for _ in range(4))
    grid[-1], force[0], a_out[0] = hi[-1], f, a
    k0 = 0
    for blocks in np.split(np.arange(len(block_size)), cuts):
        sizes, iv = block_size[blocks], block_iv[blocks]
        k1 = k0 + int(sizes.sum())
        # Nodes j0 .. j0 + size of every block; step k starts at node left[k].
        block = np.repeat(np.arange(len(sizes)), sizes + 1)
        first = np.cumsum(sizes + 1) - (sizes + 1)
        j = np.arange(len(block)) - first[block] + block_j0[blocks][block]
        nodes = _linspace_nodes(lo[iv[block]], hi[iv[block]], m[iv[block]], j)
        del block, j
        left = np.arange(k1 - k0) + np.repeat(np.arange(len(sizes)), sizes)
        grid[k0:k1] = nodes[left]
        c_node = state.cn(nodes)
        c_mid = state.cn(0.5 * (nodes[left] + nodes[left + 1]))
        del nodes
        c_n[k0:k1] = c_node[left]
        c_n[k1] = c_node[-1]  # the next batch's first node, if any
        m1n, m2n = eval_m1(c_node, params), eval_m2(c_node, params)
        m1 = np.stack([m1n[left], eval_m1(c_mid, params), m1n[left + 1]])
        m2 = np.stack([m2n[left], eval_m2(c_mid, params), m2n[left + 1]])
        del c_node, c_mid, left, m1n, m2n
        force[k0 + 1:k1 + 1], a_out[k0 + 1:k1 + 1] = _rk4_scan(
            h[iv], m1, m2, sizes, force[k0], a_out[k0], a_rest, tau_fat, alpha
        )
        del m1, m2
        k0 = k1
    return grid, c_n, force, a_out


def _stitch(parts) -> np.ndarray:
    """One array from parts that share their end points."""
    return np.concatenate([p[:-1] for p in parts] + [parts[-1][-1:]])


def simulate_force(train: PulseTrain, params: ModelParams, step: float | None = None) -> Trajectory:
    """Integrate F' = -m2 F + m1 A from rest with A fixed at a_rest.

    This is the force-fatigue integrator with alpha = 0, under which A
    never leaves a_rest. The concentration entering m1 and m2 comes from
    the closed form, never from integrating the stimulation signal. The
    output grid contains every impulse time exactly once. ``step`` is the
    RK4 step in ms, tau_c / 50 when None.
    """
    state = concentration_state(train, params)
    breaks = list(train.times) + [train.horizon]
    grid, c_n, force, _ = _integrate(state, breaks, params, step, 0.0)
    return Trajectory(grid=grid, channels={"c_n": c_n, "force": force})


def _flatten_program(segments) -> tuple[list[float], list[float], list[float], list[float]]:
    """Global pulse times and amplitudes of a program of trains and rests,
    its integration breaks (the sorted union of the pulse times before the
    end and the segment bounds) and its segment bounds: 0, then each
    segment's end, summed in program order."""
    times: list[float] = []
    amps: list[float] = []
    bounds = [0.0]
    for seg in segments:
        if isinstance(seg, PulseTrain):
            times.extend(bounds[-1] + t for t in seg.times)
            amps.extend(seg.amplitudes)
            bounds.append(bounds[-1] + seg.horizon)
        elif isinstance(seg, Rest):
            bounds.append(bounds[-1] + seg.duration)
        else:
            raise TypeError(f"program segment must be PulseTrain or Rest, got {seg!r}")
    if not times:
        # A pure-rest program still integrates (trivially) from rest.
        times, amps = [0.0], [0.0]
    if any(b - a <= 0.0 for a, b in zip(times, times[1:])):
        raise ValueError("program pulses must be strictly increasing in global time")
    breaks = sorted(set(t for t in times if t < bounds[-1]) | set(bounds))
    return times, amps, breaks, bounds


def simulate_force_fatigue(segments, params: ModelParams, step: float | None = None) -> Trajectory:
    """Co-integrate force and fatigue over a sequence of trains and rests.

    ``segments`` is an iterable of :class:`PulseTrain` and :class:`Rest`
    covering [0, t_f] back to back. During rests the concentration keeps
    its closed-form decay from all earlier pulses; the scaling memory runs
    across segment boundaries (and dies off naturally over long rests).
    The ``a`` channel is reported in kN/s; ``step`` is as for
    :func:`simulate_force`.
    """
    times, amps, breaks, bounds = _flatten_program(segments)
    if bounds[-1] <= 0.0:
        raise ValueError("program must have positive total duration")
    state = ConcentrationState.from_pulses(times, amps, params)
    grid, c_n, force, a = _integrate(state, breaks, params, step, params.alpha_a_ms)
    a *= 1e3  # kN/s
    return Trajectory(grid=grid, channels={"c_n": c_n, "force": force, "a": a})


def _checked_quad(f, lo: float, hi: float, epsabs: float = 1e-13) -> float:
    from scipy.integrate import IntegrationWarning, quad

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
    hill = _ScalarHill(concentration_state(train, params), params)
    m1, m2 = hill.m1, hill.m2
    breaks = [0.0] + [tp for tp in train.times if 0.0 < tp < t] + [t]
    # Phi(s) = int_0^s m2 from cached per-interval quadratures, so each
    # value costs one partial quadrature however many intervals precede s.
    cum = [0.0]
    for a, b in zip(breaks, breaks[1:]):
        cum.append(cum[-1] + _checked_quad(m2, a, b))

    def phi(s: float) -> float:
        j = max(0, min(np.searchsorted(breaks, s, side="right") - 1, len(breaks) - 2))
        return cum[j] + _checked_quad(m2, breaks[j], s)

    phi_t = phi(t)

    def integrand(s: float) -> float:
        return math.exp(phi(s) - phi_t) * m1(s)

    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
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


def reparam_force_check(train: PulseTrain, params: ModelParams, n_samples: int = 10) -> float:
    """Max gap between the reparameterized force and the quadrature oracle
    over [0, T].

    In the clock s(t) = int_0^t m2, the force is F(s) = int_0^s e^{u-s}
    m3(u) du with m3 = A m1/m2. We build the monotone map s(t) on a dense
    grid, invert it, evaluate the s-clock integral by composite Gauss
    quadrature and compare against :func:`oracle_force_quadrature` on a
    sample grid. The mapping s(t) is strictly increasing since m2 > 0.
    """
    from scipy.interpolate import PchipInterpolator

    t_end = train.horizon

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
