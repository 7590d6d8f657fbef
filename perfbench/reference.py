"""Independent reference solution of the force-fatigue model.

Written from the model equations alone: nothing here calls an evaluator of
the package under test. Time is in ms and force in kN; the scaling factor A
is given in kN/s as in the scenario files and converted here.

* Concentration: the lobe sum
  c_N(t) = sum_i R_i eta_i u_i e^{-u_i} H(u_i),  u_i = (t - t_i)/tau_c,
  with R_0 = 1 and R_i = 1 + (r_bar - 1) e^{-(t_i - t_{i-1})/tau_c}.
* Hill functions: m1 = c/(k_m + c), m2 = 1/(tau_1 + tau_2 m1).
* Force: F' = -m2 F + m1 A; with fatigue, A' = -(A - A_rest)/tau_fat + alpha F.

The ODE is integrated from rest by scipy's DOP853 at rtol 1e-10, split at
every pulse time (c_N has a kink there) and every segment boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

# Model constants written into every scenario, so the program and this
# reference use the same values without this module reading the package.
MODEL = {
    "tau_c": 20.0,     # ms
    "r_bar": 1.143,
    "a_rest": 3.009,   # kN/s
    "k_m": 0.103,
    "tau_1": 50.95,    # ms
    "tau_2": 124.4,    # ms
    "alpha_a": -0.4,   # 1/s^2
    "tau_fat": 127.0,  # s
}

RTOL = 1e-10
ATOL = 1e-13
_CHUNK = 4096


def lobe_weights(times, amplitudes, model=MODEL) -> np.ndarray:
    """R_i * eta_i for a strictly increasing list of global pulse times."""
    t = np.asarray(times, dtype=float)
    r = np.ones(len(t))
    r[1:] = 1.0 + (model["r_bar"] - 1.0) * np.exp(-np.diff(t) / model["tau_c"])
    return r * np.asarray(amplitudes, dtype=float)


def concentration(times, weights, t, model=MODEL) -> tuple[np.ndarray, np.ndarray]:
    """c_N at the times ``t`` and a bound on |dc_N/dt| there.

    The slope bound sums |R_i eta_i (1 - u) e^{-u}| / tau_c over the lobes
    that have started, so it also covers a lobe starting exactly at t.
    """
    tau = model["tau_c"]
    t = np.asarray(t, dtype=float)
    tp = np.asarray(times, dtype=float)
    w = np.asarray(weights, dtype=float)
    value = np.empty(len(t))
    slope = np.empty(len(t))
    for lo in range(0, len(t), _CHUNK):
        u = (t[lo : lo + _CHUNK, None] - tp[None, :]) / tau
        active = u >= 0.0
        us = np.where(active, u, 0.0)
        e = np.where(active, np.exp(-us), 0.0)
        value[lo : lo + _CHUNK] = (us * e) @ w
        slope[lo : lo + _CHUNK] = (np.abs(1.0 - us) * e) @ np.abs(w) / tau
    return value, slope


def hill(c, model=MODEL) -> tuple[np.ndarray, np.ndarray]:
    m1 = c / (model["k_m"] + c)
    return m1, 1.0 / (model["tau_1"] + model["tau_2"] * m1)


@dataclass(frozen=True)
class Solution:
    """Reference states at the sample times passed to :func:`solve`."""

    c_n: np.ndarray
    c_slope: np.ndarray
    force: np.ndarray          # kN
    force_slope: np.ndarray
    a: np.ndarray | None = None        # kN/s, fatigue runs only
    a_slope: np.ndarray | None = None  # kN/s per ms


def solve(times, amplitudes, t_end, sample_t, *, fatigue=False, boundaries=(), model=MODEL):
    """Integrate the model from rest over [0, t_end] for a global pulse list.

    ``sample_t`` are the times at which states are returned; ``boundaries``
    are extra split points (train/rest edges of a session). Without
    ``fatigue`` A stays at A_rest.
    """
    times = np.asarray(times, dtype=float)
    w = lobe_weights(times, amplitudes, model)
    tau = model["tau_c"]
    a_rest = model["a_rest"] * 1e-3               # kN/ms
    alpha = model["alpha_a"] * 1e-6               # 1/ms^2
    tau_fat = model["tau_fat"] * 1e3              # ms
    breaks = np.unique(np.concatenate([[0.0, t_end], times[times < t_end], np.asarray(boundaries, float)]))
    breaks = breaks[(breaks >= 0.0) & (breaks <= t_end)]

    sample_t = np.asarray(sample_t, dtype=float)
    order = np.argsort(sample_t, kind="stable")
    ts = sample_t[order]
    seg = np.clip(np.searchsorted(breaks, ts, side="right") - 1, 0, len(breaks) - 2)
    states = np.empty((2 if fatigue else 1, len(ts)))

    y = np.array([0.0, a_rest]) if fatigue else np.array([0.0])
    for g in range(len(breaks) - 1):
        lo, hi = breaks[g], breaks[g + 1]
        past = times <= lo
        tp, wp = times[past], w[past]

        def rhs(t, y, tp=tp, wp=wp):
            u = (t - tp) / tau
            c = float(wp @ (u * np.exp(-u)))
            m1 = c / (model["k_m"] + c)
            m2 = 1.0 / (model["tau_1"] + model["tau_2"] * m1)
            if fatigue:
                return [-m2 * y[0] + m1 * y[1], -(y[1] - a_rest) / tau_fat + alpha * y[0]]
            return [-m2 * y[0] + m1 * a_rest]

        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=RTOL, atol=ATOL, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference integration failed on [{lo}, {hi}]: {sol.message}")
        sel = np.flatnonzero(seg == g)
        if sel.size:
            states[:, sel] = sol.sol(ts[sel])
        y = sol.y[:, -1]

    out = np.empty_like(states)
    out[:, order] = states
    c_n, c_slope = concentration(times, w, sample_t, model)
    m1, m2 = hill(c_n, model)
    force = out[0]
    a_ms = out[1] if fatigue else a_rest
    force_slope = np.abs(-m2 * force + m1 * a_ms)
    if not fatigue:
        return Solution(c_n, c_slope, force, force_slope)
    a_slope = np.abs(-(out[1] - a_rest) / tau_fat + alpha * force) * 1e3
    return Solution(c_n, c_slope, force, force_slope, out[1] * 1e3, a_slope)


def steady_force(c_n: float, a_value: float, model=MODEL) -> float:
    """Force at which F' = 0 for a held concentration: A m1(c) / m2(c), in kN."""
    m1, m2 = hill(np.float64(c_n), model)
    return float(a_value * 1e-3 * m1 / m2)


def rounding_allowance(t, slope, value) -> np.ndarray:
    """What 9-significant-digit CSV rounding of a time and a value can move a
    comparison: the slope times the time's rounding plus the value's own."""
    return 2.0 * np.abs(slope) * 5e-9 * np.abs(t) + 5e-9 * np.abs(value) + 1e-15

