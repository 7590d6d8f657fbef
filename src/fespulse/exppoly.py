"""Piecewise affine functions on flat coefficient arrays.

A :class:`PiecewisePoly` holds a strictly increasing breakpoint array of
shape (G+1,) and, for each of the G pieces, the ascending coefficients
(c0, c1) of c0 + c1 * u in the local variable u = t - (piece start). These
are the stand-ins for the Hill functions m1 and m2 in
:mod:`fespulse.approx`, whose closed-form force on a piece is
p + q u + r e^{-mu u}. Local coordinates keep every exponent bounded by mu
times a piece width, which is what makes long trains numerically safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _sorted_counts

__all__ = ["PiecewisePoly"]


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
        if t_arr.size:
            self._check_domain(t_arr.min(), t_arr.max())
        # Counting interior breakpoints at or below t gives the piece index
        # directly, already clamped to the first and last piece.
        g = np.searchsorted(self.breakpoints[1:-1], t_arr, side="right")
        return g, t_arr - self.breakpoints[g]

    def sorted_counts(self, t: np.ndarray) -> np.ndarray | None:
        """How many points of a 1-D ``t`` fall in each piece, as
        :meth:`locate` assigns them, when ``t`` is non-decreasing; None
        otherwise (a NaN among two or more points makes ``t`` unsorted).
        Times outside the domain raise as in :meth:`locate`."""
        counts = _sorted_counts(t, self.breakpoints[1:-1])
        if counts is not None and t.size:
            self._check_domain(t[0], t[-1])
        return counts

    def _check_domain(self, first: float, last: float) -> None:
        lo, hi = self.domain
        if first < lo - 1e-9 or last > hi + 1e-9:
            raise ValueError(f"time outside the domain [{lo}, {hi}]")

    def value(self, t) -> float | np.ndarray:
        """Value at time(s) t, located as in :meth:`locate`."""
        g, u = self.locate(t)
        out = self.coeffs[g, 0] + self.coeffs[g, 1] * u
        return float(out) if out.ndim == 0 else out
