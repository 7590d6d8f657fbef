"""Closed-form force approximation and concentration surrogates.

The concentration admits cheap surrogates in two directions:

* truncation: on each inter-pulse interval only the last ``p`` lobes are
  kept (a lower approximation with a computable sup bound),
* averaging: interval means of the concentration are exact, from
  the interval integrals of the concentration state
  (:meth:`fespulse.model.ConcentrationState.integrals`).

For the force, the Hill nonlinearities m1 and m2 are replaced on a refined
partition of the pulse intervals by piecewise-affine functions, stored as
flat coefficient arrays (:class:`fespulse.exppoly.PiecewisePoly`). With m2
entering through its segment mean mu, the approximate force solves a
linear ODE with constant rate on every segment, so it is p + q x +
r e^{-mu x} there; one pass over the segments precomputes (p, q, r), after
which evaluating it at any time costs one segment lookup, one exponential
and two multiply-adds. A scalar
deformation ``nu`` of m1 and m2 turns the same machinery into
guaranteed-side (upper or lower) force approximations, and an L1-type
bound certifies the error of the interval-averaged m2 scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# scipy is imported inside the two functions that call it (the
# constant-average scheme and the force error bound): no default run
# reaches them, and importing it would take most of a CLI call's start-up.

from .exppoly import PiecewisePoly
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
    "MApprox",
    "TruncatedConcentration",
    "ForceApprox",
    "ForceErrorBound",
    "SCHEMES",
    "persistence_order",
    "truncated_cn",
    "error_bound_persistent",
    "interval_averages",
    "build_m_approx",
    "force_error_bound",
    "upper_lower_envelope",
]

SCHEMES = ("triangular", "affine-constant", "constant-average")
# One-sided variants used by the envelope construction: per-segment sup/inf
# of the (deformed) Hill functions, so domination holds by construction.
ENVELOPE_SCHEMES = ("staircase-upper", "staircase-lower")

# Fraction of an interval by which the lobe-peak split point stays clear of
# the interval ends, so no partition segment degenerates.
_SPLIT_MARGIN = 0.02


# ---------------------------------------------------------------------------
# persistence and truncation
# ---------------------------------------------------------------------------


def persistence_order(train: PulseTrain, params: ModelParams) -> int:
    """Largest number of consecutive pulses chained by gaps <= 5 tau_c."""
    window = 5.0 * params.tau_c
    best = run = 0
    for g in train.gaps:
        run = run + 1 if g <= window + 1e-9 else 0
        best = max(best, run)
    return best + 1


@dataclass(frozen=True)
class TruncatedConcentration:
    """Evaluator keeping only the last ``p`` lobes on each interval.

    Always a lower approximation of the exact concentration. The window is
    right-continuous at impulse times: at t = t_{k+1} exactly, the
    evaluation already uses interval k+1's lobe window (matching the
    Heaviside convention), so per-interval sup statements apply on the
    half-open interval [t_k, t_{k+1}).
    """

    train: PulseTrain
    params: ModelParams
    p: int
    state: ConcentrationState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", concentration_state(self.train, self.params))

    def __call__(self, t) -> float | np.ndarray:
        return self.state.truncated(t, self.p)


def truncated_cn(train: PulseTrain, params: ModelParams, p: int) -> TruncatedConcentration:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return TruncatedConcentration(train=train, params=params, p=p)


def error_bound_persistent(
    train: PulseTrain, params: ModelParams, p: int, k: int
) -> float:
    """Sup bound for the truncation gap on interval k of a p-persistent train.

    At most kappa = min(p, ceil(5 tau_c / i_min)) of the truncated lobes
    are younger than the 5 tau_c cutoff (each below the peak value
    r_bar/e), with i_min the train's spacing floor or, where it has none,
    its smallest gap; every older lobe is below 5 e^-5 r_bar. For k < p
    nothing is truncated and the bound is zero.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0 <= k <= train.n:
        raise IndexError(f"interval index {k} out of range 0..{train.n}")
    if k < p:
        return 0.0
    i_min = train.i_min if train.i_min > 0.0 else min(train.gaps)  # k >= p: a gap exists
    kappa = min(p, math.ceil(5.0 * params.tau_c / i_min))
    r = params.r_bar
    return (r / math.e) * kappa + 5.0 * math.exp(-5.0) * r * (k - p - kappa + 1)


# ---------------------------------------------------------------------------
# interval averages
# ---------------------------------------------------------------------------


def interval_averages(train: PulseTrain, params: ModelParams) -> np.ndarray:
    """Exact means of the concentration over every interval [t_k, t_{k+1}]
    (t_{n+1} = horizon), from :meth:`ConcentrationState.means`."""
    return concentration_state(train, params).means(train.horizon)


# ---------------------------------------------------------------------------
# piecewise approximation of the Hill functions
# ---------------------------------------------------------------------------


def _refined_partition(
    train: PulseTrain, state: ConcentrationState, p: int
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Partition with p segments per pulse interval, split at the (safely
    clamped) concentration peak; falls back to an even split when the peak
    degenerates or all amplitudes so far vanish. Each interval's nodes are
    those of ``np.linspace`` on either side of the split, bit for bit."""
    pulse_breaks = tuple(train.times) + (train.horizon,)
    bounds = np.asarray(pulse_breaks, dtype=float)
    if p == 1:
        return bounds, pulse_breaks
    lo, hi = bounds[:-1, None], bounds[1:, None]
    t_star = state.peaks()[:, None]
    margin = _SPLIT_MARGIN * (hi - lo)
    split = np.minimum(np.maximum(t_star, lo + margin), hi - margin)
    left = (p + 1) // 2
    j = np.arange(p + 1)
    rows = np.concatenate(
        [
            _linspace_nodes(lo, split, left, j[1 : left + 1]),
            _linspace_nodes(split, hi, p - left, j[1 : p - left + 1]),
        ],
        axis=1,
    )
    rows = np.where(np.isnan(t_star), _linspace_nodes(lo, hi, p, j[1:]), rows)
    return np.concatenate([bounds[:1], rows.ravel()]), pulse_breaks


@dataclass(frozen=True, eq=False)
class MApprox:
    """Piecewise-affine stand-ins for the Hill functions on a refined
    partition of the pulse intervals, plus the deformation parameter nu."""

    m1_tilde: PiecewisePoly
    m2_tilde: PiecewisePoly
    pulse_breaks: tuple[float, ...]
    scheme: str
    p: int
    nu: float

    @property
    def partition(self) -> np.ndarray:
        return self.m1_tilde.breakpoints


def _quad_mean(fn, lo: float, hi: float) -> float:
    from scipy.integrate import quad

    val, _ = quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200)
    return val / (hi - lo)


def _check_m_approx_args(scheme: str, p: int, nu: float) -> None:
    """Raise ValueError unless :func:`build_m_approx` accepts these settings."""
    if scheme not in SCHEMES + ENVELOPE_SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES + ENVELOPE_SCHEMES}"
        )
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")


def build_m_approx(
    train: PulseTrain,
    params: ModelParams,
    scheme: str = "affine-constant",
    p: int = 2,
    nu: float = 1.0,
) -> MApprox:
    """Construct the piecewise approximations of m1 and m2.

    Schemes:

    * ``triangular``: both functions replaced by their piecewise affine
      interpolants at the partition nodes.
    * ``affine-constant``: m1 is held constant at the peak-side node value
      on rising segments and affinely interpolated on falling segments;
      m2 is the per-segment mean of its endpoint values.
    * ``constant-average``: m1 as in triangular; m2 is constant on each
      pulse interval, equal to its exact quadrature mean there (the scheme
      required by the force error bound).

    ``nu`` deforms the underlying functions to m1 with nu*k_m and nu*m2,
    which pushes the resulting force approximation to one side: nu < 1
    gives an upper force approximation, nu > 1 a lower one.

    Two extra one-sided schemes serve the envelope construction:
    ``staircase-upper`` holds m1 at its per-segment supremum and m2 at its
    per-segment infimum (and vice versa for ``staircase-lower``), which
    makes the force approximation dominate (or be dominated by) the true
    force pointwise, for any nu.
    """
    _check_m_approx_args(scheme, p, nu)
    state = concentration_state(train, params)
    part, pulse_breaks = _refined_partition(train, state, p)
    cn_nodes = state.cn(part)
    w = np.diff(part)
    zero = np.zeros_like(w)
    n_int = len(pulse_breaks) - 1

    if scheme in ENVELOPE_SCHEMES:
        # m1 rises and m2 falls with c_N: the upper staircase takes both at
        # the segment's largest c_N (an end, or the interval's unclamped peak
        # where the segment holds it), the lower one at its least (an end).
        ca, cb = cn_nodes[:-1], cn_nodes[1:]
        t_star = state.peaks()
        inside = (np.asarray(pulse_breaks[:-1]) < t_star) & (t_star < np.asarray(pulse_breaks[1:]))
        c_star = np.full(n_int, np.nan)
        c_star[inside] = state.cn(t_star[inside])
        t_seg = np.repeat(np.where(inside, t_star, np.nan), p)
        holds_peak = (part[:-1] <= t_seg) & (t_seg <= part[1:])
        c_hi = np.maximum(ca, cb)
        c_hi = np.where(holds_peak, np.maximum(c_hi, np.repeat(c_star, p)), c_hi)
        c_seg = c_hi if scheme == "staircase-upper" else np.minimum(ca, cb)
        m1 = np.column_stack([eval_m1(c_seg, params, nu), zero])
        m2 = np.column_stack([eval_m2(c_seg, params, nu), zero])
    else:
        f1 = eval_m1(cn_nodes, params, nu)
        f2 = eval_m2(cn_nodes, params, nu)
        # Node values at the left (a) and right (b) end of every segment.
        v1a, v1b, v2a, v2b = f1[:-1], f1[1:], f2[:-1], f2[1:]
        m1 = np.column_stack([v1a, (v1b - v1a) / w])
        if scheme == "affine-constant":
            nodes = np.arange(n_int)[:, None] * p + np.arange(p + 1)
            peak = np.argmax(cn_nodes[nodes], axis=1)
            rising = (np.arange(p) < peak[:, None]).ravel()
            m1[rising] = np.column_stack([v1b, zero])[rising]
        if scheme == "triangular":
            m2 = np.column_stack([v2a, (v2b - v2a) / w])
        elif scheme == "affine-constant":
            m2 = np.column_stack([0.5 * (v2a + v2b), zero])
        else:
            hill = _ScalarHill(state, params)
            means = [
                _quad_mean(lambda s: hill.m2(s, nu), lo, hi)
                for lo, hi in zip(pulse_breaks, pulse_breaks[1:])
            ]
            m2 = np.column_stack([np.repeat(means, p), zero])

    return MApprox(
        m1_tilde=PiecewisePoly(part, m1),
        m2_tilde=PiecewisePoly(part, m2),
        pulse_breaks=pulse_breaks,
        scheme=scheme,
        p=p,
        nu=nu,
    )


# ---------------------------------------------------------------------------
# closed-form force assembly
# ---------------------------------------------------------------------------


class ForceApprox:
    """Precomputed closed-form evaluator of the approximate force.

    On segment g of the partition, m1 is c0_g + c1_g x and m2 enters through
    its segment mean mu_g > 0, so F~/A solves F' = -mu_g F + c0_g + c1_g x
    with x = t - (segment start). Its solution is
    F~/A = p_g + q_g x + r_g e^{-mu_g x} with q_g = c1_g/mu_g,
    p_g = (c0_g - q_g)/mu_g and r_g = sbar_g - p_g, where sbar_g is F~/A at
    the segment start: sbar_0 = 0 and
    sbar_{g+1} = p_g + q_g w_g + r_g e^{-mu_g w_g} over the segment width
    w_g. Only decaying exponentials appear, so nothing in the table can
    overflow no matter how long the train is. Evaluation is pure and
    re-entrant.
    """

    def __init__(self, m_approx: MApprox):
        self.m_approx = m_approx
        widths = np.diff(m_approx.partition)
        m2 = m_approx.m2_tilde.coeffs
        self.mu = m2[:, 0] + m2[:, 1] * widths / 2.0
        c0, c1 = m_approx.m1_tilde.coeffs.T
        q = c1 / self.mu
        p = (c0 - q) / self.mu
        decay = np.exp(-self.mu * widths)
        sbar = [0.0]
        for p_g, q_g, w_g, d_g in zip(p.tolist(), q.tolist(), widths.tolist(), decay.tolist()):
            sbar.append(p_g + q_g * w_g + (sbar[-1] - p_g) * d_g)
        # One row (p, q, r, -mu) per segment, so evaluation gathers the
        # coefficients of all its points with a single take.
        self.rows = np.column_stack([p, q, np.asarray(sbar[:-1]) - p, -self.mu])

    def scaled_values(self, t) -> np.ndarray | float:
        """F~(t)/A in ms units (multiply by A in kN/ms for force in kN)."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.ravel()
        pieces = self.m_approx.m1_tilde
        counts = pieces.sorted_counts(flat)
        if counts is None:
            g, x = pieces.locate(flat)
            p, q, r, rate = np.take(self.rows, g, axis=0).T
        else:
            # A sorted grid (the usual case) expands each row over its run
            # of points instead of gathering a row per point.
            p, q, r, rate = np.repeat(self.rows.T, counts, axis=1)
            x = flat - np.repeat(pieces.breakpoints[:-1], counts)
        # p + q x + r e^{rate x}, in place on the fresh coefficient arrays.
        out = q * x
        out += p
        rate *= x
        np.exp(rate, out=rate)
        rate *= r
        out += rate
        return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

    def values(self, t, a_value: float) -> np.ndarray | float:
        """Approximate force in kN at time(s) t, for A given in kN/s."""
        scaled = self.scaled_values(t)
        return a_value * 1e-3 * scaled


# ---------------------------------------------------------------------------
# force error bound and nu-envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForceErrorBound:
    """L1 bound |F(t_k) - F~(t_k)| / A <= m1_term + t_k * m2_term with the
    hypothesis flags of the underlying estimate."""

    bound: float
    m1_term: float
    m2_term: float
    t_k: float
    hypotheses_ok: bool
    violated: tuple[str, ...]


def force_error_bound(
    train: PulseTrain, params: ModelParams, m_approx: MApprox, k: int
) -> ForceErrorBound:
    """Evaluate the error bound at pulse node k (k = n+1 means the horizon).

    Both L1 mismatch integrals are computed by adaptive quadrature against
    the true (undeformed) Hill functions. The certifying hypotheses,
    interval-mean m2 scheme, nu = 1, m1_tilde within [0, 1], per-interval
    concavity of m1 and convexity of m2, are verified by sampling and
    reported; a failed check flags the bound as advisory rather than
    raising.
    """
    from scipy.integrate import quad

    n_breaks = len(m_approx.pulse_breaks)
    if not 0 <= k <= n_breaks - 1:
        raise IndexError(f"node index {k} out of range 0..{n_breaks - 1}")
    t_k = m_approx.pulse_breaks[k]
    if t_k <= 0.0:
        return ForceErrorBound(0.0, 0.0, 0.0, 0.0, True, ())

    hill = _ScalarHill(concentration_state(train, params), params)

    m1_l1 = 0.0
    m2_l1 = 0.0
    seg_edges = [b for b in m_approx.partition if b < t_k - 1e-12] + [t_k]
    for a, b in zip(seg_edges, seg_edges[1:]):
        v1, _ = quad(
            lambda s: abs(hill.m1(s) - m_approx.m1_tilde.value(s)),
            a, b, epsabs=1e-12, epsrel=1e-10, limit=200,
        )
        v2, _ = quad(
            lambda s: abs(hill.m2(s) - m_approx.m2_tilde.value(s)),
            a, b, epsabs=1e-12, epsrel=1e-10, limit=200,
        )
        m1_l1 += v1
        m2_l1 += v2

    violated: list[str] = []
    if m_approx.scheme != "constant-average":
        violated.append("m2-not-interval-average")
    if abs(m_approx.nu - 1.0) > 1e-12:
        violated.append("nu-not-one")
    m1t = m_approx.m1_tilde.value(np.linspace(0.0, t_k, 160))
    if np.any(m1t < -1e-9) or np.any(m1t > 1.0 + 1e-9):
        violated.append("m1-outside-unit-interval")
    for i in range(n_breaks - 1):
        lo, hi = m_approx.pulse_breaks[i], m_approx.pulse_breaks[i + 1]
        if lo >= t_k - 1e-12:
            break
        s = np.linspace(lo, min(hi, t_k), 25)
        y1 = np.array([hill.m1(x) for x in s])
        y2 = np.array([hill.m2(x) for x in s])
        tol1 = 1e-12 + 1e-7 * float(np.ptp(y1))
        tol2 = 1e-12 + 1e-7 * float(np.ptp(y2))
        if np.any(np.diff(y1, 2) > tol1):
            violated.append(f"m1-not-concave-on-interval-{i}")
        if np.any(np.diff(y2, 2) < -tol2):
            violated.append(f"m2-not-convex-on-interval-{i}")

    return ForceErrorBound(
        bound=m1_l1 + t_k * m2_l1,
        m1_term=m1_l1,
        m2_term=m2_l1,
        t_k=t_k,
        hypotheses_ok=not violated,
        violated=tuple(violated),
    )


def upper_lower_envelope(
    train: PulseTrain,
    params: ModelParams,
    nu_low: float,
    nu_high: float,
    t,
):
    """Bracketing force approximations (F_low, F_high) at time(s) t, in kN
    at A = a_rest, on the p = 2 partition.

    ``nu_low >= 1`` depresses m1 and inflates m2 (a lower force);
    ``nu_high <= 1`` does the reverse. The staircase schemes hold each
    Hill-function stand-in at its per-segment supremum or infimum, so each
    side dominates pointwise by construction (for any nu); the nu margin
    then widens the bracket further.
    """
    if not (nu_low >= 1.0 >= nu_high > 0.0):
        raise ValueError(
            f"need nu_low >= 1 >= nu_high > 0, got nu_low={nu_low}, nu_high={nu_high}"
        )
    low = build_m_approx(train, params, scheme="staircase-lower", p=2, nu=nu_low)
    high = build_m_approx(train, params, scheme="staircase-upper", p=2, nu=nu_high)
    return ForceApprox(low).values(t, params.a_rest), ForceApprox(high).values(t, params.a_rest)
