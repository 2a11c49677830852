"""Test objectives with analytically known curvature constants.

Each constructor returns an :class:`Objective` whose value/gradient/hessian
callables are exact closed forms, together with a pair (l0, l1) for which

    ||hess f(x)|| <= l0 + l1 * ||grad f(x)||      for all x.

`certify_smoothness` probes that inequality empirically on a sampled ball:
it cannot prove the global statement, but it pins the constants down on the
region where the benchmark runs actually live, and it reliably rejects
constants that are too small (the negative controls in the test suite).
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .kernels import SmoothnessParams


@dataclass(frozen=True, eq=False)
class Objective:
    """Evaluation contract for a smooth objective on R^dim.

    `value` and `gradient` are required; `hessian` is optional (needed only
    by the certifier).  `f_star`/`x_star` are filled in when the optimum is
    known analytically, otherwise left None.

    `value_grad(x)` returns `(value(x), gradient(x))`, bit for bit.  A
    composition (radial, coordinate-wise, ridge) writes `value`, a fused
    `value_grad` and two batched kernels over the rows of an (n, d) array,
    `values_grads` and `hessians`, once for all its builders; `_fused` adds
    `gradient(x) = value_grad(x)[1]`, `hessian(x)`, the batch of one, and
    the kernel.  `value_grad` is the fused one while `value` and `gradient`
    are the builder's, and `batch` is `(values_grads, hessians)` while
    `hessian` is too (`_at_points` and `_values_grads` take it, bit for bit
    the per-point calls).  Without a kernel, or once a callable is swapped
    (say by `dataclasses.replace`), both fall back to per-point calls of the
    fields, so wrapped or corrupted oracles are always the ones called.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    f_star: float | None = None
    x_star: np.ndarray | None = None
    params: SmoothnessParams | None = None
    convex: bool = True
    name: str = ""
    kernel: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        value, gradient, kernel = self.value, self.gradient, self.kernel
        own = kernel is not None and kernel[:2] == (value, gradient)
        if own:
            fused = kernel[2]
        else:
            def fused(x):
                return value(x), gradient(x)
        object.__setattr__(self, "value_grad", fused)
        batch = own and kernel[3:4] == (self.hessian,)
        object.__setattr__(self, "batch", kernel[4:] if batch else None)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {x.shape}")
        return x


def _fused(value, value_grad, values_grads=None, hessians=None) -> dict:
    """Objective fields for a value and a fused value_grad: the gradient is the
    kernel's; with batched kernels, the Hessian is their batch of one."""
    def gradient(x):
        return value_grad(x)[1]

    fields = {"value": value, "gradient": gradient, "kernel": (value, gradient, value_grad)}
    if hessians is not None:
        def hessian(x):
            return hessians(np.asarray(x, dtype=float)[None])[0]

        fields["hessian"] = hessian
        fields["kernel"] += (hessian, values_grads, hessians)
    return fields


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of sampling the curvature inequality on a ball."""

    n_samples: int
    max_violation: float
    violating_point: np.ndarray | None
    region_radius: float

    def passes(self, tol: float = 1e-8) -> bool:
        return self.max_violation <= tol


_FLOAT64 = np.dtype(np.float64)


def _norm(v) -> float:
    """np.linalg.norm(v) as a Python float, bit for bit, without its dispatch
    cost on the 1-D float64 points the methods pass (IEEE sqrt rounds the
    same in math and numpy).  The dot stays on BLAS, whose kernel sets its
    rounding: OpenBLAS's SkylakeX ddot (AVX-512, fused multiply-adds) differs
    from the Python sum a*a + b*b on 31577 of 200000 standard normal
    2-vectors (seed 0), its Haswell ddot on none.  `u @ v` and `u.dot(v)`
    agreed on all of 200000 pairs.  `_pow` stays scalar for a like reason."""
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1:
        return math.sqrt(v.dot(v))
    return float(np.linalg.norm(v))


def _pow(r: float, e: float) -> float:
    """r ** e on a Python float, where an overflow reads inf, as numpy's
    scalar power gives, instead of raising.  Kept scalar on purpose: numpy's
    array power may take a SIMD pow that rounds differently from libm's."""
    try:
        return r ** e
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=8)
def _eye(dim: int) -> np.ndarray:
    """A read-only identity, built on a Hessian's first call, never by a builder."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row of two 2-D float64 arrays.  A stack of
    (1, d) @ (d, 1) products runs matmul's vector-dot loop, the one BLAS dot
    per row that `u @ v` makes; einsum, (a*b).sum(1) and
    np.linalg.norm(axis=1) round differently from it in the last bit."""
    return (a[:, None, :] @ b[:, :, None]).reshape(len(a))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """_norm of each row of a 2-D float64 array, bit for bit."""
    return np.sqrt(_row_dots(a, a))


# Rows a chunked pass (a records view, cli.write_csv, certify_smoothness)
# handles at a time, so no temporary grows with the number of rows.
ROWS_PER_CHUNK = 256


def _at_points(f: Objective, oracle: str, points: np.ndarray) -> np.ndarray:
    """f's `oracle` ("value", "gradient" or "hessian") at each row of
    `points`, stacked: from f.batch if f has one, else one call per point."""
    if f.batch is None:
        call = getattr(f, oracle)
        return np.array([call(x) for x in points], dtype=float)
    if oracle == "hessian":
        return f.batch[1](points)
    return f.batch[0](points)[oracle == "gradient"]


def _values_grads(f: Objective, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients at the rows of `points`: from f.batch if f has
    one, else one value_grad call per point."""
    if f.batch is not None:
        return f.batch[0](points)
    pairs = [f.value_grad(x) for x in points]
    return (np.array([v for v, _ in pairs], dtype=float),
            np.array([g for _, g in pairs], dtype=float).reshape(points.shape))


# A 1-D profile h is three functions of a radius r on Python floats, where an
# overflow reads inf as in `_pow` (exp's raises OverflowError past l1*r ~ 709.8,
# as math.expm1 does): h(r); (h(r), c), the gradient of h(||x||) being c*x with
# c = h'(r)/r; and (c, k), its Hessian being c*(I + k*u u^T) with u = x/r and
# k = h''(r)/c - 1 (c*I at r = 0).  Only h(r) is on the value path.
def _power(p: float) -> tuple:
    """h(r) = r^p / p: c = r^(p-2) and k = p - 2."""
    def value(r):
        return _pow(r, p) / p

    def value_coef(r):
        return _pow(r, p) / p, _pow(r, p - 2)

    def coef_curv(r):
        return _pow(r, p - 2), p - 2

    return value, value_coef, coef_curv


def _exp(l0: float, l1: float) -> tuple:
    """h(r) = (l0/l1^2) * (exp(s) - s - 1) at s = l1*r: c = l0*expm1(s)/s and
    k = exp(s)/(expm1(s)/s) - 1, tending to l0 and 0 as s -> 0.  expm1(s) is
    divided by s before it meets x, so the gradient c*x overflows only where
    its norm l0*expm1(s)/l1 does."""
    scale = l0 / l1**2

    def value(r):
        return scale * (math.expm1(l1 * r) - l1 * r)

    def value_coef(r):
        s = l1 * r
        e = math.expm1(s)
        return scale * (e - s), l0 * (e / s) if s else l0

    def coef_curv(r):
        s = l1 * r
        if not s:
            return l0, 0.0
        q = math.expm1(s) / s
        return l0 * q, math.exp(s) / q - 1.0

    return value, value_coef, coef_curv


def _radial(dim: int, profile: tuple, **fields) -> Objective:
    """h(||x||) for a profile h, minimized at 0: every radial builder's four oracles."""
    if dim < 1:
        raise ValueError("dim must be positive")
    h, value_coef, coef_curv = profile

    def value(x):
        return h(_norm(x))

    def value_grad(x):
        r = _norm(x)
        v, c = value_coef(r)
        return v, np.zeros(dim) if r == 0.0 else np.multiply(c, x)

    def values_grads(X):
        r = _row_norms(X)
        vc = np.fromiter(chain.from_iterable(map(value_coef, r.tolist())), float).reshape(-1, 2)
        grads = vc[:, 1:] * X
        grads[r == 0.0] = 0.0
        return vc[:, 0], grads

    def hessians(X):
        r = _row_norms(X)
        ck = np.fromiter(chain.from_iterable(map(coef_curv, r.tolist())), float).reshape(-1, 2)
        u = X / np.where(r == 0.0, 1.0, r)[:, None]
        hess = ck[:, 1, None, None] * (u[:, :, None] * u[:, None, :])
        hess += _eye(dim)  # in place: a stack is the largest array certify makes
        hess *= ck[:, 0, None, None]
        return hess

    return Objective(dim=dim, **_fused(value, value_grad, values_grads, hessians),
                     f_star=0.0, x_star=np.zeros(dim), **fields)


def power_norm(dim: int, p: float, l1: float) -> Objective:
    """(1/p) * ||x||^p with p > 2; minimal l0 for a chosen l1 is ((p-2)/l1)^(p-2)."""
    if p <= 2:
        raise ValueError("p must exceed 2")
    if l1 <= 0:
        raise ValueError("l1 must be positive")
    return _radial(dim, _power(p), params=SmoothnessParams(((p - 2) / l1) ** (p - 2), l1),
                   name=f"power_norm(d={dim},p={p},l1={l1})")


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def logistic_1d(l1: float = 0.0) -> Objective:
    """ln(1 + exp(x)) on R, the ridge `affine_logistic([1], 0, l1)`; admits
    l0 = (1 - l1)^2 / 4 for any l1 in [0, 1].

    The infimum 0 is approached as x -> -infinity but never attained, so
    f_star is left unset; Polyak-style runs must pass an explicit target.
    """
    return replace(affine_logistic([1.0], 0.0, l1), name=f"logistic(l1={l1})")


def affine_logistic(a: np.ndarray, b: float, l1: float) -> Objective:
    """ln(1 + exp(<a, x> + b)); affine substitution scales the constants to
    l0 = (||a|| - l1)^2 / 4 for any l1 in [0, ||a||]."""
    a = np.asarray(a, dtype=float)
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        raise ValueError("a must be nonzero")
    if not 0.0 <= l1 <= norm_a:
        raise ValueError(f"l1 must lie in [0, ||a||] = [0, {norm_a}]")
    aa = np.outer(a, a)

    def value(x):
        return float(np.logaddexp(0.0, float(a @ x) + b))

    def value_grad(x):
        t = float(a @ x) + b
        return float(np.logaddexp(0.0, t)), _sigmoid(t) * a

    def affine(X):
        # each row's <a, x> + b as `a @ x` takes it; `X @ a` rounds differently
        return _row_dots(X, np.broadcast_to(a, X.shape)) + b

    def values_grads(X):
        t = affine(X)
        return np.logaddexp(0.0, t), np.array([_sigmoid(u) for u in t.tolist()])[:, None] * a

    def hessians(X):
        s = [_sigmoid(t) for t in affine(X).tolist()]
        return np.array([u * (1.0 - u) for u in s])[:, None, None] * aa

    return Objective(
        dim=a.size,
        **_fused(value, value_grad, values_grads, hessians),
        params=SmoothnessParams(0.25 * (norm_a - l1) ** 2, l1),
        name=f"affine_logistic(|a|={norm_a:g},b={b},l1={l1})",
    )


def exp_phi(dim: int, params: SmoothnessParams) -> Objective:
    """(l0/l1^2) * (exp(l1*||x||) - l1*||x|| - 1): the radial profile whose
    curvature inequality holds with equality at every point."""
    if params.l1 <= 0:
        raise ValueError("l1 must be positive (use a quadratic for l1 = 0)")
    if params.l0 <= 0:
        raise ValueError("l0 must be positive")
    return _radial(dim, _exp(params.l0, params.l1), params=params,
                   name=f"exp_phi(d={dim},l0={params.l0},l1={params.l1})")


def sum_with_smooth(
    f: Objective,
    g: Objective,
    g_lip_grad: float,
    g_lip_val: float,
    g_convex: bool = True,
) -> Objective:
    """Sum f + g where g has gradient Lipschitz constant `g_lip_grad` and
    value Lipschitz constant `g_lip_val` on the region of interest.

    The sum keeps l1 and absorbs g into the floor:
    (l0, l1) -> (l0 + g_lip_val*l1 + g_lip_grad, l1).
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.params is None:
        raise ValueError("f must carry smoothness constants")
    if g_lip_grad < 0 or g_lip_val < 0:
        raise ValueError("Lipschitz constants must be nonnegative")

    have_hessians = f.hessian is not None and g.hessian is not None

    def value(x):
        return f.value(x) + g.value(x)

    def value_grad(x):
        (fv, fg), (gv, gg) = f.value_grad(x), g.value_grad(x)
        return fv + gv, fg + gg

    def hessian(x):
        return f.hessian(x) + g.hessian(x)

    params = SmoothnessParams(
        f.params.l0 + g_lip_val * f.params.l1 + g_lip_grad, f.params.l1
    )
    return Objective(
        dim=f.dim,
        **_fused(value, value_grad),
        hessian=hessian if have_hessians else None,
        params=params,
        convex=f.convex and g_convex,
        name=f"sum({f.name},{g.name})",
    )


def separable_pnorm(dim: int, p: float, l1: float) -> Objective:
    """(1/p) * sum_i |x_i|^p: the `_power(p)` profile at each coordinate, so
    its constants are a 1-D `power_norm`'s.  Value, gradient and the diagonal
    Hessian each run one loop over the coordinates with each term's
    arithmetic, bit for bit: a one-entry norm is sqrt(t*t), its dot.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    h, value_coef, coef_curv = _power(p)

    def value(x):
        return sum([h(math.sqrt(t * t)) for t in np.asarray(x, dtype=float).tolist()])

    def terms_grads(coords):
        terms, grad = [], []
        for t in coords:
            r = math.sqrt(t * t)
            v, c = value_coef(r)
            terms.append(v)
            grad.append(0.0 if r == 0.0 else c * t)  # +0.0 at t = -0.0
        return terms, grad

    def value_grad(x):
        terms, grad = terms_grads(np.asarray(x, dtype=float).tolist())
        return sum(terms), np.array(grad)

    def values_grads(X):
        terms, grad = terms_grads(X.ravel().tolist())
        values = [sum(terms[i:i + dim]) for i in range(0, len(terms), dim)]
        return np.array(values, dtype=float), np.array(grad).reshape(X.shape)

    def hessians(X):
        diag = []
        for t in X.ravel().tolist():
            r = math.sqrt(t * t)
            u = t / r if r else 0.0  # the 1-D u = x/r, 0 at r = 0 where the Hessian is c
            c, k = coef_curv(r)
            diag.append(c * (1.0 + k * (u * u)))
        hess = np.zeros((len(X), dim, dim))
        hess.reshape(len(X), -1)[:, :: dim + 1] = np.reshape(diag, X.shape)
        return hess

    return Objective(dim=dim, **_fused(value, value_grad, values_grads, hessians),
                     f_star=0.0, x_star=np.zeros(dim), params=power_norm(1, p, l1).params,
                     name=f"separable_pnorm(d={dim},p={p},l1={l1})")


def sample_ball(rng: np.random.Generator, dim: int, radius: float, n: int) -> np.ndarray:
    """n points uniform in the closed ball of the given radius (rows)."""
    directions = rng.standard_normal((n, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / dim)
    return directions / norms * radii[:, None]


def spectral_norm(h: np.ndarray) -> float | np.ndarray:
    """Largest-magnitude eigenvalue of a symmetric matrix, exactly; for an
    (n, d, d) stack, the array of the n values, from one eigvalsh call.  A
    matrix with a NaN entry gives NaN, else one with an infinite entry gives
    inf: only finite matrices reach eigvalsh."""
    if h.shape[-1] == 1:
        top = np.abs(h[..., 0, 0])
    else:
        finite = np.isfinite(h).all(axis=(-2, -1))
        top = np.where(np.isnan(h).any(axis=(-2, -1)), np.nan, np.inf)
        top[finite] = np.max(np.abs(np.linalg.eigvalsh(h[finite])), axis=-1)
    return float(top) if h.ndim == 2 else top


def certify_smoothness(
    f: Objective,
    params: SmoothnessParams,
    region_radius: float,
    n_samples: int,
    seed: int,
) -> CertificateReport:
    """Sample the ball and report the worst value of

        ||hess f(x)|| - l0 - l1 * ||grad f(x)||.

    Nonpositive max violation certifies the constants on the sampled region;
    a clearly positive value is a counterexample (the spectral norm is
    exact up to rounding).  A NaN violation is the worst of all: the first
    one found is reported, so NaN curvature never certifies; an overflow
    shows there, as an inf or NaN violation, not as a warning.  The points
    are evaluated ROWS_PER_CHUNK at a time, so no Hessian stack grows with
    n_samples.  Deterministic for a fixed seed.
    """
    if f.hessian is None:
        raise ValueError(f"objective {f.name!r} does not provide a Hessian")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not 0 < region_radius < math.inf:
        raise ValueError("region_radius must be positive and finite")
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, f.dim, region_radius, n_samples)
    with np.errstate(all="ignore"):
        violations = np.concatenate([
            spectral_norm(_at_points(f, "hessian", chunk)) - params.l0
            - params.l1 * _row_norms(_at_points(f, "gradient", chunk))
            for chunk in (points[i:i + ROWS_PER_CHUNK]
                          for i in range(0, n_samples, ROWS_PER_CHUNK))])
    # argmax takes the first NaN, else the first of the largest
    i = int(np.argmax(violations))
    worst = float(violations[i])
    return CertificateReport(
        n_samples=n_samples,
        max_violation=worst,
        violating_point=None if worst == -math.inf else points[i].copy(),
        region_radius=region_radius,
    )
