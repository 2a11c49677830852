"""Scalar kernels behind the stepsize formulas and descent bounds.

The curvature model used throughout this package is

    ||hess f(x)|| <= l0 + l1 * ||grad f(x)||,

and the tight growth envelopes it implies are all built from the kernel
exp(t) - t - 1, its convex conjugate, and the progress function
g^2 / (2*l0 + 3*l1*g).  Every function here accepts a float or a numpy
array and is limit-safe near zero: the closed form runs over the whole
array, then a series overwrites the entries where it cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this threshold exp(t) - t - 1 loses most significant digits to
# cancellation; the quartic Taylor truncation is exact to ~1e-22 there.
_SERIES_CUTOFF = 1e-5


@dataclass(frozen=True)
class SmoothnessParams:
    """Curvature pair (l0, l1): constant floor plus gradient-proportional term."""

    l0: float
    l1: float

    def __post_init__(self):
        if not (np.isfinite(self.l0) and np.isfinite(self.l1)):
            raise ValueError("smoothness constants must be finite")
        if self.l0 < 0 or self.l1 < 0:
            raise ValueError("smoothness constants must be nonnegative")
        if self.l0 == 0 and self.l1 == 0:
            raise ValueError("at least one smoothness constant must be positive")


def _validated(x, name: str):
    """x as a float array, refused if an entry is not finite, else if one
    is negative: a NaN or an inf shows in the min or the max (each taken
    from 0.0, so an empty array passes), a negative entry in the min."""
    arr = np.asarray(x, dtype=float)
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    if lo < 0:
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _as_input_kind(arr: np.ndarray, like) -> float | np.ndarray:
    return float(arr) if np.isscalar(like) or np.ndim(like) == 0 else arr


def phi(t):
    """exp(t) - t - 1 for t >= 0, series-evaluated below the cancellation cutoff."""
    arr = _validated(t, "t")
    out = np.expm1(arr, out=np.empty_like(arr))
    out -= arr
    small = np.flatnonzero(arr < _SERIES_CUTOFF)
    if small.size:
        ts = arr.take(small)
        np.put(out, small, ts * ts * (0.5 + ts * (1.0 / 6.0 + ts / 24.0)))
    return _as_input_kind(out, t)


def phi_star(g):
    """Convex conjugate of phi: (1+g)*ln(1+g) - g for g >= 0.

    Satisfies g^2/(2+g) <= phi_star(g) <= g^2/2.
    """
    arr = _validated(g, "g")
    out = np.log1p(arr, out=np.empty_like(arr))
    out *= 1.0 + arr
    out -= arr
    small = np.flatnonzero(arr < _SERIES_CUTOFF)
    if small.size:
        gs = arr.take(small)
        # alternating series g^2/2 - g^3/6 + g^4/12, truncation < g^5/20
        np.put(out, small, gs * gs * (0.5 + gs * (-1.0 / 6.0 + gs / 12.0)))
    return _as_input_kind(out, g)


def psi(g, p: SmoothnessParams):
    """Progress function g^2 / (2*l0 + 3*l1*g), strictly increasing for g > 0.

    Links the gradient norm at a point to the guaranteed per-step decrease
    and, on convex problems, lower-bounds the function gap.
    """
    arr = _validated(g, "g")
    out = np.divide(arr * arr, 2.0 * p.l0 + 3.0 * p.l1 * arr, out=np.zeros_like(arr),
                    where=arr > 0)
    return _as_input_kind(out, g)

