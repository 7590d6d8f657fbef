"""Isometric force-fatigue muscle model driven by electrical pulse trains.

Everything here is closed form: the stimulation signal, the Ca2+-troponin
concentration (a superposition of lobes, one per pulse), the
Michaelis-Menten-Hill nonlinearities and the steady-state force analysis.
No ODE is integrated in this module.

The concentration is a sampled-data system, sampled at the pulse times.
Each lobe u e^{-u} is the impulse response of (tau_c d/dt + 1)^2, so on
[t_k, t_{k+1}) the superposition of all lobes fired so far collapses to
c_N = e^{-u} (A_k + B_k u), u = (t - t_k)/tau_c, and the state steps from
pulse to pulse in closed form:

    A_{k+1} = e^{-g} (A_k + B_k g),   B_{k+1} = e^{-g} B_k + R_{k+1} eta_{k+1},

with g = (t_{k+1} - t_k)/tau_c, A_0 = 0 and B_0 = R_0 eta_0.
:class:`ConcentrationState` builds (A_k, B_k) once per train in O(N). The
concentration, the stimulation signal E = e^{-u} B_k / tau_c and single
lobes then cost one ``exp`` per point and a pulse lookup (one
``searchsorted`` per point, or per pulse on a sorted grid), the
last-p-lobe truncation at most p lobes per point, the interval peaks
t_k + tau_c (1 - A_k/B_k) one division per interval, and the interval
integrals tau_c (A_k (1 - e^{-g}) + B_k (1 - (1 + g) e^{-g})), from which
every interval and tail mean follows, a few operations per interval. One
forward sweep of tangents next to the recurrence gives the Jacobian of those
integrals with respect to the amplitudes, pulse times and horizon.

Unit conventions
----------------
Time is in milliseconds and force in kN throughout the package. The force
scaling factor A keeps its customary kN/s unit in the public API (as do the
fatigue constants alpha_a in 1/s^2 and tau_fat in s); the ms-converted
values are exposed as properties on :class:`ModelParams`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "PulseTrain",
    "ConcentrationState",
    "UnreachableForce",
    "compute_scaling",
    "concentration_state",
    "eval_cn",
    "eval_lobe",
    "eval_m1",
    "eval_m2",
    "steady_state_root",
]


class UnreachableForce(ValueError):
    """Requested steady force exceeds the saturated maximum A*(tau_1 + tau_2)."""


@dataclass(frozen=True)
class ModelParams:
    """Physiological constants of the force-fatigue model.

    Defaults are the standard quadriceps values used across the test suite.
    ``k_m`` has no canonical published value and should be set explicitly
    in any serious configuration; 0.103 is a plausible magnitude used as
    the suite default.
    """

    tau_c: float = 20.0      # ms, rise/decay constant of the concentration
    r_bar: float = 1.143     # dimensionless tetanic enhancement
    a_rest: float = 3.009    # kN/s, force scaling of the non-fatigued muscle
    k_m: float = 0.103       # dimensionless half-saturation of m1
    tau_1: float = 50.95     # ms, force decline constant (no bound cross-bridges)
    tau_2: float = 124.4     # ms, force decline constant (friction term)
    alpha_a: float = -0.4    # 1/s^2, fatigue forcing coefficient (<= 0)
    tau_fat: float = 127.0   # s, recovery constant of the scaling factor A

    def __post_init__(self) -> None:
        for name in ("tau_c", "tau_1", "tau_2", "tau_fat", "k_m", "a_rest"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.r_bar < 1.0:
            raise ValueError(f"r_bar must be >= 1, got {self.r_bar}")
        if self.alpha_a > 0.0:
            raise ValueError(f"alpha_a must be <= 0, got {self.alpha_a}")

    @property
    def a_rest_ms(self) -> float:
        """A at rest in kN/ms."""
        return self.a_rest * 1e-3

    @property
    def alpha_a_ms(self) -> float:
        """Fatigue coefficient in 1/ms^2."""
        return self.alpha_a * 1e-6

    @property
    def tau_fat_ms(self) -> float:
        """Recovery constant in ms."""
        return self.tau_fat * 1e3


@dataclass(frozen=True)
class PulseTrain:
    """A finite train of impulses on [0, horizon].

    ``times`` holds t_0 .. t_n with t_0 = 0 and t_n < horizon, strictly
    increasing, with consecutive gaps of at least ``i_min``. Amplitudes are
    the convexified pulse weights in [0, 1].
    """

    times: tuple[float, ...]
    amplitudes: tuple[float, ...]
    horizon: float
    i_min: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(x) for x in self.times))
        object.__setattr__(self, "amplitudes", tuple(float(x) for x in self.amplitudes))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "i_min", float(self.i_min))
        if len(self.times) == 0:
            raise ValueError("a pulse train needs at least one impulse time")
        if len(self.times) != len(self.amplitudes):
            raise ValueError("times and amplitudes must have equal length")
        if self.times[0] != 0.0:
            raise ValueError(f"first impulse must be at t=0, got {self.times[0]}")
        if self.i_min < 0.0:
            raise ValueError(f"i_min must be >= 0, got {self.i_min}")
        gaps = [b - a for a, b in zip(self.times, self.times[1:])]
        if any(g <= 0.0 for g in gaps):
            raise ValueError("impulse times must be strictly increasing")
        if self.i_min > 0.0 and any(g < self.i_min - 1e-9 for g in gaps):
            raise ValueError(f"interpulse gap below i_min={self.i_min}: gaps={gaps}")
        if self.times[-1] >= self.horizon:
            raise ValueError(
                f"last impulse {self.times[-1]} must precede horizon {self.horizon}"
            )
        eps = 1e-12
        if any(a < -eps or a > 1.0 + eps for a in self.amplitudes):
            raise ValueError(f"amplitudes must lie in [0, 1], got {self.amplitudes}")

    @property
    def n(self) -> int:
        """Index of the last pulse (the train has n+1 pulses)."""
        return len(self.times) - 1

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))

    def interval(self, k: int) -> tuple[float, float]:
        """The k-th inter-pulse interval [t_k, t_{k+1}], with t_{n+1} = horizon."""
        if not 0 <= k <= self.n:
            raise IndexError(f"interval index {k} out of range 0..{self.n}")
        hi = self.times[k + 1] if k < self.n else self.horizon
        return self.times[k], hi


def compute_scaling(train: PulseTrain, params: ModelParams) -> tuple[float, ...]:
    """Memory factors R_0 .. R_n of successive contractions.

    R_0 = 1 and R_i = 1 + (r_bar - 1) * exp(-(t_i - t_{i-1}) / tau_c): a
    pulse arriving shortly after its predecessor is enhanced, up to r_bar.
    """
    out = [1.0]
    for prev, cur in zip(train.times, train.times[1:]):
        out.append(1.0 + (params.r_bar - 1.0) * math.exp(-(cur - prev) / params.tau_c))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ConcentrationState:
    """The concentration state (A_k, B_k) at the pulse times (see the
    module docstring): A_k = c_N(t_k), B_k = tau_c E(t_k), and
    c_N = e^{-u} (A_k + B_k u) on [t_k, t_{k+1}). The state arrays carry one
    leading zero state, which every time before t_0 reads.

    Evaluation ignores floating-point underflow: after a long rest the
    exponentials and the state itself decay to subnormals or zero, which is
    the exact answer to double precision.
    """

    times: np.ndarray      # (N,) pulse times t_k
    weights: np.ndarray    # (N,) pulse weights w_k = R_k eta_k
    a: np.ndarray          # (N+1,) zero state, then A_k
    b: np.ndarray          # (N+1,) zero state, then B_k
    tau_c: float

    @classmethod
    def from_pulses(cls, times, amplitudes, params: ModelParams) -> "ConcentrationState":
        """Build the state of strictly increasing ``times`` in O(N)."""
        tau, enhance = params.tau_c, params.r_bar - 1.0
        weights = [1.0 * amplitudes[0]]  # R_0 = 1
        a, b = [0.0, 0.0], [0.0, weights[0]]
        for prev, cur, eta in zip(times, times[1:], amplitudes[1:]):
            g = (cur - prev) / tau
            decay = math.exp(-g)
            weights.append((1.0 + enhance * decay) * eta)  # R_k eta_k
            a.append(decay * (a[-1] + b[-1] * g))
            b.append(decay * b[-1] + weights[-1])
        return cls(
            times=np.asarray(times, dtype=float),
            weights=np.asarray(weights),
            a=np.asarray(a),
            b=np.asarray(b),
            tau_c=tau,
        )

    def _locate(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t as an array, padded state index, u >= 0 from that pulse)."""
        t_arr = np.asarray(t, dtype=float)
        counts = _sorted_counts(t_arr, self.times)
        if counts is None:
            j = np.searchsorted(self.times, t_arr, side="right")
        else:
            j = np.repeat(np.arange(len(counts)), counts)
        u = np.maximum(t_arr - self.times[np.maximum(j - 1, 0)], 0.0) / self.tau_c
        return t_arr, j, u

    def cn(self, t) -> float | np.ndarray:
        """c_N(t) = e^{-u} (A_k + B_k u)."""
        t_arr, j, u = self._locate(t)
        with np.errstate(under="ignore"):
            out = np.exp(-u) * (self.a[j] + self.b[j] * u)
        return _like(t_arr, out)

    def signal(self, t) -> float | np.ndarray:
        """E(t) = e^{-u} B_k / tau_c."""
        t_arr, j, u = self._locate(t)
        with np.errstate(under="ignore"):
            out = np.exp(-u) * self.b[j] / self.tau_c
        return _like(t_arr, out)

    def lobe(self, k: int, t) -> float | np.ndarray:
        """w_k u e^{-u} with u = (t - t_k)/tau_c, zero before t_k."""
        t_arr = np.asarray(t, dtype=float)
        u = np.maximum(t_arr - self.times[k], 0.0) / self.tau_c
        with np.errstate(under="ignore"):
            out = u * np.exp(-u) * self.weights[k]
        return _like(t_arr, out)

    def truncated(self, t, p: int) -> float | np.ndarray:
        """The last ``p`` lobes of each interval, summed oldest first.

        The window is right-continuous: at t = t_{k+1} it already holds
        lobes k+2-p .. k+1. Zero before t_0.
        """
        t_arr, j, _ = self._locate(t)
        out = np.zeros(t_arr.shape)
        with np.errstate(under="ignore"):
            for back in range(min(p, len(self.times)) - 1, -1, -1):
                i = j - 1 - back
                i_safe = np.maximum(i, 0)
                u = np.maximum(t_arr - self.times[i_safe], 0.0) / self.tau_c
                out += np.where(i >= 0, u * np.exp(-u) * self.weights[i_safe], 0.0)
        return _like(t_arr, out)

    def peaks(self) -> np.ndarray:
        """Unclamped stationary point t_k + tau_c (1 - A_k/B_k) of c_N on
        every interval; NaN where B_k = 0 (no earlier pulse has weight)."""
        a, b = self.a[1:], self.b[1:]
        live = b > 0.0
        ratio = np.divide(a, b, out=np.full_like(b, np.nan), where=live)
        return self.times + self.tau_c * (1.0 - ratio)

    def integrals(self, horizon: float) -> np.ndarray:
        """Exact integral of c_N over every interval [t_k, t_{k+1}], with
        t_N = ``horizon``: tau_c (A_k (1 - e^{-g}) + B_k (1 - (1 + g) e^{-g}))
        with g = (t_{k+1} - t_k)/tau_c."""
        g = (np.concatenate((self.times[1:], [horizon])) - self.times) / self.tau_c
        with np.errstate(under="ignore"):
            rise = -np.expm1(-g)
            return self.tau_c * (self.a[1:] * rise + self.b[1:] * (rise - g * np.exp(-g)))

    def means(self, horizon: float) -> np.ndarray:
        """Exact mean of c_N over every interval of :meth:`integrals`."""
        return self.integrals(horizon) / (np.concatenate((self.times[1:], [horizon])) - self.times)

    def integrals_jacobian(self, horizon: float, params: ModelParams) -> np.ndarray:
        """Jacobian of :meth:`integrals` with respect to (eta_0..eta_n,
        t_1..t_n, horizon), with t_0 held fixed: an (N, 2N) array.
        ``params`` are those the state was built with.

        One forward sweep of the state recurrence carries the tangents
        (dA_k, dB_k) next to (A_k, B_k). With g_k = (t_{k+1} - t_k)/tau_c
        (t_N = horizon), the integral I_k moves by
        tau_c ((1 - e^{-g}) dA_k + (1 - (1 + g) e^{-g}) dB_k) + c_N(t_{k+1}^-) tau_c dg_k,
        and the gap g_k also enters the next state through e^{-g} and
        through R_{k+1} = 1 + (r_bar - 1) e^{-g}.
        """
        n_pulses, tau, enhance = len(self.times), self.tau_c, params.r_bar - 1.0
        gaps = (np.append(self.times[1:], horizon) - self.times).tolist()
        weights = self.weights.tolist()
        jac = np.empty((n_pulses, 2 * n_pulses))
        d_a = np.zeros(2 * n_pulses)
        d_b = np.zeros(2 * n_pulses)
        d_b[0] = 1.0  # B_0 = R_0 eta_0 with R_0 = 1
        for k in range(n_pulses):
            # Column n_pulses - 1 + j is t_j for j = 1..N (t_N = horizon);
            # tau_c dg_k is +1 on t_{k+1} and -1 on t_k.
            hi, lo = n_pulses + k, n_pulses - 1 + k
            g = gaps[k] / tau
            decay = math.exp(-g)
            rise = -math.expm1(-g)
            a_k, b_k = float(self.a[k + 1]), float(self.b[k + 1])
            c_end = decay * (a_k + b_k * g)
            jac[k] = tau * (rise * d_a + (rise - g * decay) * d_b)
            jac[k, hi] += c_end
            if k > 0:
                jac[k, lo] -= c_end
            if k + 1 == n_pulses:
                break
            d_a = decay * (d_a + g * d_b)
            d_b = decay * d_b
            # d/dg of A_{k+1} and B_{k+1}, per unit of tau_c dg_k.
            a_gap = (decay * b_k - c_end) / tau
            r_next = 1.0 + enhance * decay  # R_{k+1}; w_{k+1} = R_{k+1} eta_{k+1}
            b_gap = -decay * (b_k + enhance * weights[k + 1] / r_next) / tau
            d_a[hi] += a_gap
            d_b[hi] += b_gap
            if k > 0:
                d_a[lo] -= a_gap
                d_b[lo] -= b_gap
            d_b[k + 1] += r_next
        return jac


def concentration_state(train: PulseTrain, params: ModelParams) -> ConcentrationState:
    """The (A_k, B_k) concentration state of a train."""
    return ConcentrationState.from_pulses(train.times, train.amplitudes, params)


def _like(t_arr: np.ndarray, out: np.ndarray) -> float | np.ndarray:
    return float(out) if t_arr.ndim == 0 else out


def _sorted_counts(t: np.ndarray, edges: np.ndarray) -> np.ndarray | None:
    """For a non-decreasing 1-D ``t``, how many points lie below edges[0],
    in each [edges[i], edges[i+1]) and at or above edges[-1]: what
    ``searchsorted(edges, t, side="right")`` finds point by point, from one
    search per edge. None for any other ``t`` (a NaN among two or more
    points makes ``t`` unsorted)."""
    if t.ndim != 1 or not (t[1:] >= t[:-1]).all():
        return None
    ends = np.concatenate(([0], np.searchsorted(t, edges), [t.size]))
    return ends[1:] - ends[:-1]


def _linspace_nodes(lo, hi, m, j) -> np.ndarray:
    """Node j of ``np.linspace(lo, hi, m + 1)``, bit for bit, elementwise
    over broadcast arrays: j ((hi - lo) / m) + lo, with node m pinned to hi
    as numpy pins it. Many grids of different lengths cost one pass."""
    return np.where(j == m, hi, j * ((hi - lo) / m) + lo)


class _ScalarHill:
    """Pointwise c_N, m1 and m2 on Python floats, for the many scalar calls
    that adaptive quadrature makes: a :class:`ConcentrationState` read with
    ``bisect`` and ``math.exp``. Same formulas as :func:`eval_m1`
    (undeformed) and :func:`eval_m2`."""

    def __init__(self, state: ConcentrationState, params: ModelParams):
        self.times = state.times.tolist()
        self.a = state.a.tolist()
        self.b = state.b.tolist()
        self.tau_c = state.tau_c
        self.k_m = params.k_m
        self.tau_1 = params.tau_1
        self.tau_2 = params.tau_2

    def cn(self, s: float) -> float:
        j = bisect.bisect_right(self.times, s)
        u = max(s - self.times[max(j - 1, 0)], 0.0) / self.tau_c
        return math.exp(-u) * (self.a[j] + self.b[j] * u)

    def m1(self, s: float) -> float:
        c = self.cn(s)
        return c / (self.k_m + c)

    def m2(self, s: float, nu: float = 1.0) -> float:
        return nu / (self.tau_1 + self.tau_2 * self.m1(s))


def eval_cn(train: PulseTrain, params: ModelParams, t) -> float | np.ndarray:
    """Normalized Ca2+ concentration, exactly, with no integration.

    c_N(t) = sum_i R_i eta_i ((t - t_i)/tau_c) exp(-(t - t_i)/tau_c) H(t - t_i),
    evaluated through :class:`ConcentrationState`. Accepts a scalar or an
    array of times.
    """
    return concentration_state(train, params).cn(t)


def eval_lobe(train: PulseTrain, params: ModelParams, k: int, t) -> float | np.ndarray:
    """Contribution of pulse k alone: R_k eta_k ((t-t_k)/tau_c) e^{-(t-t_k)/tau_c}."""
    if not 0 <= k <= train.n:
        raise IndexError(f"lobe index {k} out of range 0..{train.n}")
    return concentration_state(train, params).lobe(k, t)


def eval_m1(c_n, params: ModelParams, nu: float = 1.0) -> float | np.ndarray:
    """Saturation nonlinearity m1 = c_n / (nu k_m + c_n), in [0, 1).

    ``nu`` is the deformation of the force approximation (1 is the model).
    """
    c = np.asarray(c_n, dtype=float)
    out = c / (nu * params.k_m + c)
    return float(out) if c.ndim == 0 else out


def eval_m2(c_n, params: ModelParams, nu: float = 1.0) -> float | np.ndarray:
    """Force decay rate m2 = nu / (tau_1 + tau_2 * m1(c_n)) in 1/ms.

    Decreasing in c_n, bounded in [1/(tau_1 + tau_2), 1/tau_1] at nu = 1.
    The deformation ``nu`` scales the rate; m1 here stays undeformed.
    """
    m1 = np.asarray(eval_m1(c_n, params), dtype=float)
    out = nu / (params.tau_1 + params.tau_2 * m1)
    return float(out) if out.ndim == 0 else out


def steady_state_root(
    params: ModelParams, a_current: float, f_ref: float
) -> tuple[float, float]:
    """Concentration level at which the force settles to ``f_ref``.

    Setting the force derivative to zero gives the quadratic
    A tau_2 m1^2 + A tau_1 m1 - F_ref = 0 (A in kN/ms), which has exactly
    one positive root m1+ because the root product is negative. Returns
    (m1+, c_n_ref) with c_n_ref = k_m m1+ / (1 - m1+).

    Raises UnreachableForce when m1+ >= 1, i.e. ``f_ref`` exceeds the
    saturated steady force A (tau_1 + tau_2).
    """
    if f_ref <= 0.0:
        raise ValueError(f"f_ref must be positive, got {f_ref}")
    if a_current <= 0.0:
        raise ValueError(f"a_current must be positive, got {a_current}")
    a_ms = a_current * 1e-3
    # Stable positive-root form: 2c / (b + sqrt(b^2 + 4ac)) avoids cancellation.
    b = a_ms * params.tau_1
    disc = math.sqrt(b * b + 4.0 * a_ms * params.tau_2 * f_ref)
    m1_plus = 2.0 * f_ref / (b + disc)
    if m1_plus >= 1.0:
        f_max = a_ms * (params.tau_1 + params.tau_2)
        raise UnreachableForce(
            f"f_ref={f_ref} kN is at or above the saturated steady force "
            f"{f_max:.6g} kN for a={a_current} kN/s"
        )
    c_n_ref = params.k_m * m1_plus / (1.0 - m1_plus)
    return m1_plus, c_n_ref
