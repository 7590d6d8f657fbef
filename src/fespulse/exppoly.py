"""Piecewise affine functions and their exponentially weighted integral.

A :class:`PiecewisePoly` holds a strictly increasing breakpoint array of
shape (G+1,) and, for each of the G pieces, the ascending coefficients
(c0, c1) of c0 + c1 * u in the local variable u = t - (piece start). These
are the stand-ins for the Hill functions m1 and m2 in
:mod:`fespulse.approx`, whose closed-form force needs one integral,
int_0^x (c0 + c1 u) e^{mu u} du, computed by :func:`exp_affine_integral`.
Local coordinates keep every exponent bounded by mu times a piece width,
which is what makes long trains numerically safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewisePoly", "exp_affine_integral"]

# Below this |mu x| the integral is summed from its Taylor series: the
# closed form of the u e^{mu u} term cancels to a relative error of about
# 2 eps / |mu x|, and at mu = 0 it would divide by zero.
_SERIES_BELOW = 0.01
# With I0 = int_0^x e^{mu u} du and I1 = int_0^x u e^{mu u} du, the Taylor
# coefficients in z = mu x of I0/x = sum z^m / (m+1)! and
# I1/x^2 = sum z^m / (m! (m+2)), m = 0..6, highest first for Horner's rule;
# the first omitted term is below 3e-19 of the sum for |z| < 0.01.
_I0_TAYLOR = tuple(1.0 / math.factorial(m + 1) for m in reversed(range(7)))
_I1_TAYLOR = tuple(1.0 / (math.factorial(m) * (m + 2)) for m in reversed(range(7)))


def exp_affine_integral(c0, c1, mu, x) -> tuple[np.ndarray, np.ndarray]:
    """int_0^x (c0 + c1 u) e^{mu u} du and e^{mu x}, elementwise.

    ``x`` is a 1-d array; ``c0``, ``c1`` and ``mu`` are arrays of its shape
    or scalars. The growth factor e^{mu x} is returned too because every
    caller discounts by it.
    """
    z = mu * x
    growth = np.exp(z)
    small = np.abs(z) < _SERIES_BELOW
    rate = np.where(small, 1.0, mu)
    i0 = np.expm1(z)
    i0 /= rate
    i1 = x * growth
    i1 -= i0
    i1 /= rate
    if small.any():
        zs, xs = z[small], x[small]
        s0 = s1 = 0.0
        for a0, a1 in zip(_I0_TAYLOR, _I1_TAYLOR):
            s0 = s0 * zs + a0
            s1 = s1 * zs + a1
        i0[small] = xs * s0
        i1[small] = xs * xs * s1
    i0 *= c0
    i1 *= c1
    i0 += i1
    return i0, growth


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Piecewise affine function: c0 + c1 * (t - breakpoints[g]) on piece g."""

    breakpoints: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if coeffs.shape != (bp.size - 1, 2):
            raise ValueError(
                f"need coefficients of shape ({bp.size - 1}, 2), got {coeffs.shape}"
            )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, breakpoints, value: float) -> "PiecewisePoly":
        n_pieces = len(breakpoints) - 1
        return cls(breakpoints, np.tile([float(value), 0.0], (max(n_pieces, 0), 1)))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def locate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Piece index g and local coordinate t - breakpoints[g] of time(s) t.

        A breakpoint belongs to the piece on its right (the last one to the
        last piece); times more than 1e-9 outside the domain raise
        ValueError.
        """
        t_arr = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if t_arr.size and (t_arr.min() < lo - 1e-9 or t_arr.max() > hi + 1e-9):
            raise ValueError(f"time outside the domain [{lo}, {hi}]")
        # Counting interior breakpoints at or below t gives the piece index
        # directly, already clamped to the first and last piece.
        g = np.searchsorted(self.breakpoints[1:-1], t_arr, side="right")
        return g, t_arr - self.breakpoints[g]

    def value(self, t) -> float | np.ndarray:
        """Value at time(s) t, located as in :meth:`locate`."""
        g, u = self.locate(t)
        out = self.coeffs[g, 0] + self.coeffs[g, 1] * u
        return float(out) if out.ndim == 0 else out
