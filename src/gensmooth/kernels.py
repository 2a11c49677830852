"""Scalar kernels behind the stepsize formulas and descent bounds.

The curvature model used throughout this package is

    ||hess f(x)|| <= l0 + l1 * ||grad f(x)||,

and the tight growth envelopes it implies are all built from the kernel
exp(t) - t - 1, its convex conjugate, and the progress function
g^2 / (2*l0 + 3*l1*g).  Every function here accepts a float or a numpy
array and is limit-safe near zero (series branches instead of raw
cancellation-prone formulas).
"""

from __future__ import annotations

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
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _as_input_kind(arr: np.ndarray, like) -> float | np.ndarray:
    return float(arr) if np.isscalar(like) or np.ndim(like) == 0 else arr


def phi(t):
    """exp(t) - t - 1 for t >= 0, series-evaluated below the cancellation cutoff."""
    arr = _validated(t, "t")
    small = arr < _SERIES_CUTOFF
    out = np.empty_like(arr)
    ts = arr[small]
    out[small] = ts * ts * (0.5 + ts * (1.0 / 6.0 + ts / 24.0))
    out[~small] = np.expm1(arr[~small]) - arr[~small]
    return _as_input_kind(out, t)


def phi_star(g):
    """Convex conjugate of phi: (1+g)*ln(1+g) - g for g >= 0.

    Satisfies g^2/(2+g) <= phi_star(g) <= g^2/2.
    """
    arr = _validated(g, "g")
    small = arr < _SERIES_CUTOFF
    out = np.empty_like(arr)
    gs = arr[small]
    # alternating series g^2/2 - g^3/6 + g^4/12, truncation < g^5/20
    out[small] = gs * gs * (0.5 + gs * (-1.0 / 6.0 + gs / 12.0))
    gl = arr[~small]
    out[~small] = (1.0 + gl) * np.log1p(gl) - gl
    return _as_input_kind(out, g)


def phi_star_prime(g):
    """Derivative of the conjugate, ln(1+g); inverts phi' on the nonnegative axis.

    Bracketed by 2g/(2+g) <= ln(1+g) <= g.
    """
    arr = _validated(g, "g")
    return _as_input_kind(np.log1p(arr), g)


def psi(g, p: SmoothnessParams):
    """Progress function g^2 / (2*l0 + 3*l1*g), strictly increasing for g > 0.

    Links the gradient norm at a point to the guaranteed per-step decrease
    and, on convex problems, lower-bounds the function gap.
    """
    arr = _validated(g, "g")
    denom = 2.0 * p.l0 + 3.0 * p.l1 * arr
    out = np.zeros_like(arr)
    pos = arr > 0
    out[pos] = arr[pos] * arr[pos] / denom[pos]
    return _as_input_kind(out, g)


def psi_inverse(t, p: SmoothnessParams):
    """Inverse of psi: the unique g >= 0 with psi(g) = t.

    Closed form from the quadratic g^2 - 3*l1*t*g - 2*l0*t = 0; both terms
    of the positive root are nonnegative, so no cancellation.
    """
    arr = _validated(t, "t")
    b = 3.0 * p.l1 * arr
    out = 0.5 * (b + np.sqrt(b * b + 8.0 * p.l0 * arr))
    return _as_input_kind(out, t)

