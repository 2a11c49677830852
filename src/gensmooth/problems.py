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

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from .kernels import SmoothnessParams


@dataclass(frozen=True, eq=False)
class Objective:
    """Evaluation contract for a smooth objective on R^dim.

    `value` and `gradient` are required; `hessian` is optional (needed only
    by the certifier).  `f_star`/`x_star` are filled in when the optimum is
    known analytically, otherwise left None.

    Three forms are derived from the three oracles, bit for bit their
    separate calls: `floats(xs)`, the value and the gradient at a point
    given as a list of `dim` Python floats, the gradient a list too (the
    loops' oracle); and over the rows of an (n, d) array `values_grads(X)`,
    the values and the stacked gradients, and `hessians(X)`, the stacked
    Hessians.  `_fused` makes `kernel` = (value, gradient, hessian, floats,
    values_grads, hessians); while the three fields are still its first
    three, the derived forms are its last three.  Otherwise (no kernel,
    or a callable swapped by `dataclasses.replace`) they loop over the
    fields: `floats` calls `value` and `gradient` on `np.array(xs)`, and
    each batch form makes one call per row, so wrapped or corrupted
    oracles are always the ones called.
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
        value, gradient, hessian, kernel = self.value, self.gradient, self.hessian, self.kernel
        if kernel is not None and kernel[:3] == (value, gradient, hessian):
            floats, values_grads, hessians = kernel[3:]
        else:
            def floats(xs):
                x = np.array(xs)
                return value(x), gradient(x).tolist()

            def values_grads(X):
                pairs = [(value(x), gradient(x)) for x in X]
                return (np.array([v for v, _ in pairs], dtype=float),
                        np.array([g for _, g in pairs], dtype=float).reshape(X.shape))

            def hessians(X):
                return np.array([hessian(x) for x in X], dtype=float)
        object.__setattr__(self, "floats", floats)
        object.__setattr__(self, "values_grads", values_grads)
        object.__setattr__(self, "hessians", hessians)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {x.shape}")
        return x


def _fused(value, floats, values_grads, hessians) -> dict:
    """Objective fields for a composition's value, fused oracle on Python
    floats and batched kernels: the gradient is floats' on the point's
    list, the Hessian the batch of one, and the kernel holds all six."""
    def gradient(x):
        return np.array(floats(np.asarray(x, dtype=float).tolist())[1])

    def hessian(x):
        return hessians(np.asarray(x, dtype=float)[None])[0]

    return {"value": value, "gradient": gradient, "hessian": hessian,
            "kernel": (value, gradient, hessian, floats, values_grads, hessians)}


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of sampling the curvature inequality on a ball."""

    n_samples: int
    max_violation: float
    violating_point: np.ndarray | None
    region_radius: float

    def passes(self, tol: float = 1e-8) -> bool:
        """max_violation <= tol, for a finite tol (a negative one is stricter)."""
        if not math.isfinite(tol):
            raise ValueError(f"tol must be finite, got {tol}")
        return self.max_violation <= tol


def _sum(terms) -> float:
    """Python floats added left to right from 0.0 (Python 3.12's sum() compensates)."""
    s = 0.0
    for t in terms:
        s += t
    return s


# Below this many entries numpy's pairwise sum is a left-to-right loop, which
# `_dot`, `_norm`, the loops' norm and `EstimateState.accumulate` run on the
# Python floats.
SHORT_POINT = 8

# Below this many entries `_list_ops` writes a point's arithmetic out as
# straight-line code, faster than the comprehensions at every d measured up
# to 512; its compile, once per dimension and process, grows with d (about
# 0.1 ms at d = 2, 2 ms at 128 and 26 ms at 1000).
UNROLL_BELOW = 128


def _dot(u, v) -> float:
    """<u, v> for two points (lists or 1-D arrays) in np.add.reduce(u * v)'s
    order, not BLAS's, whose ddot rounds as the kernel OpenBLAS picks for the
    CPU (with fused multiply-adds or not).  Below SHORT_POINT entries numpy's
    pairwise sum is `_sum`'s left-to-right loop, run here over the Python floats."""
    if len(u) != len(v):
        raise ValueError(f"cannot take the dot of {len(u)} and {len(v)} entries")
    if len(u) >= SHORT_POINT:
        return float(np.add.reduce(np.multiply(u, v)))
    if type(u) is not list or type(v) is not list:  # the loops' lists pass straight on
        u = u.tolist() if type(u) is np.ndarray else u
        v = v.tolist() if type(v) is np.ndarray else v
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _norm(v) -> float:
    """sqrt(_dot(v, v)) as a Python float, a matrix's entries as one point;
    the short loop inlined, as calling _dot costs 0.4 us more at d <= 3."""
    if len(v) < SHORT_POINT and (type(v) is list or v.ndim == 1):
        s = 0.0
        for t in v if type(v) is list else v.tolist():
            s += t * t
        return math.sqrt(s)
    v = np.ravel(v)
    return math.sqrt(_dot(v, v))


def _scale(c, x):
    return [c * t for t in x]


def _move(x, s, g, n):
    return [xi - s * (gi / n) for xi, gi in zip(x, g)]


@cache
def _list_ops(dim: int) -> tuple:
    """(scale, move) on lists of `dim` Python floats: scale(c, x) is [c*x_i]
    and move(x, s, g, n) is [x_i - s*(g_i/n)], each entry's IEEE operations
    in that order, so numpy's bits.  Below UNROLL_BELOW entries both are
    straight-line code, compiled once per dimension from source made of
    `dim` alone (as namedtuple builds its methods); their unpacking refuses
    a point of any other length with ValueError.  From UNROLL_BELOW on (and
    for a dim below 1) they are the comprehensions `_scale` and `_move`,
    which zip truncates."""
    dim = operator.index(dim)
    if not 0 < dim < UNROLL_BELOW:
        return _scale, _move
    xs, gs = ("".join(f"{v}{i}, " for i in range(dim)) for v in "xg")
    source = (f"def scale(c, x):\n {xs}= x\n"
              f" return [{', '.join(f'c * x{i}' for i in range(dim))}]\n"
              f"def move(x, s, g, n):\n {xs}= x\n {gs}= g\n"
              f" return [{', '.join(f'x{i} - s * (g{i} / n)' for i in range(dim))}]\n")
    namespace = {}
    exec(compile(source, f"<_list_ops({dim})>", "exec"), namespace)
    return namespace["scale"], namespace["move"]


def _inf_past_overflow(fn: Callable) -> Callable:
    """fn on Python floats, where an overflow reads inf, as numpy's scalar
    gives, instead of raising.  Kept scalar on purpose: numpy's array forms
    may take a SIMD pow or expm1 that rounds differently from libm's."""
    def wrapped(*args):
        try:
            return fn(*args)
        except OverflowError:
            return math.inf
    return wrapped


_pow, _expm1 = _inf_past_overflow(operator.pow), _inf_past_overflow(math.expm1)


def _each(fn, a: np.ndarray) -> np.ndarray:
    """fn of each entry of a 1-D array on Python floats: libm's rounding, not SIMD's."""
    return np.array([fn(t) for t in a.tolist()])


def _pows(r: np.ndarray, e: float) -> np.ndarray:
    """`_pow(t, e)` of each entry t of r: `t ** e`, and `_pow` once one overflows."""
    try:
        return np.array([t ** e for t in r.tolist()])
    except OverflowError:
        return np.array([_pow(t, e) for t in r.tolist()])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_dot of each row pair of two 2-D float64 arrays, bit for bit: the same
    reduction along each row of the C-ordered products (of F-ordered ones it
    would add column by column), a block of at most 32 KiB at a time."""
    out, step = np.empty(len(a)), max(1, 2**12 // a.shape[1])
    for i in range(0, len(a), step):
        np.add.reduce(np.multiply(a[i:i + step], b[i:i + step], order="C"), axis=1,
                      out=out[i:i + step])
    return out


def _row_norms(a: np.ndarray) -> np.ndarray:
    """_norm of each row of a 2-D float64 array, bit for bit."""
    return np.sqrt(_row_dots(a, a))


# Rows a chunked pass (a records view, certify_smoothness, the fd-gradient
# check) handles at a time, so no temporary grows with the number of rows.
ROWS_PER_CHUNK = 256


# A 1-D profile h is two functions of a radius r and a namespace M of libm
# calls (pow, expm1, exp, and quot: e/s, 1 at s = 0), + - * / written inline:
# (h, c), the gradient of h(||x||) being c*x with c = h'(r)/r, and (c, k), the
# Hessian being c*(I + k*u u^T) with u = x/r and k = h''(r)/c - 1 (c*I at r = 0).
class _FLOAT:
    """On a Python float, C callables only (no Python frame); an overflow or 0/0 raises."""
    pow, expm1, exp, quot = operator.pow, math.expm1, math.exp, operator.truediv


class _EDGE:
    """The float sites' retry: a power's overflow reads inf, quot 1 at 0; expm1 raises."""
    pow, expm1, quot = _pow, math.expm1, lambda e, s: e / s if s else 1.0


class _ARRAY:
    """On an array of radii: libm entry by entry on Python floats, as on a float."""
    pow, expm1, exp = _pows, partial(_each, math.expm1), partial(_each, math.exp)
    quot = lambda e, s: np.divide(e, s, out=np.ones_like(e), where=s != 0)


def _power(p: float) -> tuple:
    """h(r) = r^p / p: c = r^(p-2) and k = p - 2."""
    q = p - 2

    def value_coef(r, M):
        return M.pow(r, p) / p, M.pow(r, q)

    def coefs_curvs(r, M):
        return M.pow(r, q), q

    return value_coef, coefs_curvs


def _exp(l0: float, l1: float) -> tuple:
    """h(r) = (l0/l1^2) * (exp(s) - s - 1) at s = l1*r: c = l0*expm1(s)/s and
    k = exp(s)/(expm1(s)/s) - 1, which are l0 and 0 at s = 0.  expm1(s) is
    divided by s before it meets x, so the gradient c*x overflows only where
    its norm l0*expm1(s)/l1 does."""
    scale = l0 / l1**2

    def value_coef(r, M, l0=l0):
        s = l1 * r
        e = M.expm1(s)
        return scale * (e - s), l0 * M.quot(e, s)

    def coefs_curvs(r, M):
        q = value_coef(r, M, 1.0)[1]  # expm1(s)/s itself: 1.0 * q is q
        return l0 * q, M.exp(l1 * r) / q - 1.0

    return value_coef, coefs_curvs


def _radial(dim: int, profile: tuple, **fields) -> Objective:
    """h(||x||) for a profile h, minimized at 0: every radial builder's oracles."""
    if dim < 1:
        raise ValueError("dim must be positive")
    value_coef, coefs_curvs = profile
    scale, short, sqrt = _list_ops(dim)[0], dim < SHORT_POINT, math.sqrt

    def value(x):
        r = _norm(x)
        try:
            return value_coef(r, _FLOAT)[0]
        except ArithmeticError:
            return value_coef(r, _EDGE)[0]

    def floats(xs):
        if short:  # _norm's loop, inline: one call fewer per oracle call
            r = 0.0
            for t in xs:
                r += t * t
            r = sqrt(r)
        else:
            r = _norm(xs)
        try:
            v, c = value_coef(r, _FLOAT)
        except ArithmeticError:
            v, c = value_coef(r, _EDGE)
        return v, [0.0] * dim if r == 0.0 else scale(c, xs)

    def values_grads(X):
        r = _row_norms(X)
        v, c = value_coef(r, _ARRAY)
        grads = c[:, None] * X
        grads[r == 0.0] = 0.0
        return v, grads

    def hessians(X):
        r = _row_norms(X)
        c, k = coefs_curvs(r, _ARRAY)
        u = X / np.where(r == 0.0, 1.0, r)[:, None]
        hess = np.reshape(k, (-1, 1, 1)) * (u[:, :, None] * u[:, None, :])
        hess += np.eye(dim)  # in place: a stack is the largest array certify makes
        hess *= c[:, None, None]
        return hess

    return Objective(dim=dim, **_fused(value, floats, values_grads, hessians),
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
    with np.errstate(over="ignore"):
        norm_a = _norm(a)
    if not (0.0 < norm_a < math.inf and math.isfinite(b)):
        raise ValueError(f"a must be nonzero, and a, b and ||a|| finite: ||a|| = {norm_a}, b = {b}")
    if not 0.0 <= l1 <= norm_a:
        raise ValueError(f"l1 must lie in [0, ||a||] = [0, {norm_a}]")
    aa, al = np.outer(a, a), a.tolist()

    def value(x):
        return float(np.logaddexp(0.0, _dot(a, x) + b))

    def floats(xs):
        t = _dot(al, xs) + b
        s = _sigmoid(t)
        return float(np.logaddexp(0.0, t)), [s * u for u in al]

    def affine(X):
        return _row_dots(X, np.broadcast_to(a, X.shape)) + b

    def values_grads(X):
        t = affine(X)
        return np.logaddexp(0.0, t), np.array([_sigmoid(u) for u in t.tolist()])[:, None] * a

    def hessians(X):
        s = [_sigmoid(t) for t in affine(X).tolist()]
        return np.array([u * (1.0 - u) for u in s])[:, None, None] * aa

    return Objective(
        dim=a.size,
        **_fused(value, floats, values_grads, hessians),
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


def separable_pnorm(dim: int, p: float, l1: float) -> Objective:
    """(1/p) * sum_i |x_i|^p: `line = power_norm(1, p, l1)` at each coordinate,
    so its constants are line's.  `floats` is one loop over the coordinates
    with each term's arithmetic, and `value` its value; the batched kernels
    are line's over all coordinates at once, as (n*d, 1) rows, bit for bit:
    a one-entry norm is sqrt(t*t), its dot.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    line = power_norm(1, p, l1)
    value_coef = _power(p)[0]

    def floats(xs):
        total, grad = 0.0, []  # the value added up as `_sum` does
        for t in xs:
            r = math.sqrt(t * t)
            try:
                v, c = value_coef(r, _FLOAT)
            except ArithmeticError:
                v, c = value_coef(r, _EDGE)
            total += v
            grad.append(0.0 if r == 0.0 else c * t)  # +0.0 at t = -0.0
        return total, grad

    def value(x):
        return floats(np.asarray(x, dtype=float).tolist())[0]

    def values_grads(X):
        terms, grads = line.values_grads(X.reshape(-1, 1))
        terms = terms.tolist()
        values = [_sum(terms[i:i + dim]) for i in range(0, len(terms), dim)]
        return np.array(values, dtype=float), grads.reshape(X.shape)

    def hessians(X):
        hess = np.zeros((len(X), dim, dim))
        diag = line.hessians(X.reshape(-1, 1))
        hess.reshape(len(X), -1)[:, :: dim + 1] = diag.reshape(X.shape)
        return hess

    return Objective(dim=dim, **_fused(value, floats, values_grads, hessians),
                     f_star=0.0, x_star=np.zeros(dim), params=line.params,
                     name=f"separable_pnorm(d={dim},p={p},l1={l1})")


def _check_seed(seed: int):
    """A seed is a nonnegative integer; a numpy Generator is refused too, as
    its state moves on between calls while a sample cached on it would not."""
    if not hasattr(type(seed), "__index__"):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _check_sample(name: str, n: int, seed: int = 0, radius: float | None = None,
                  radius_name: str = "radius"):
    """An empty sample or region would pass vacuously, so a sampler refuses it."""
    _check_seed(seed)
    if n < 1:
        raise ValueError(f"{name} must be at least 1")
    if radius is not None and not 0 < radius < math.inf:
        raise ValueError(f"{radius_name} must be positive and finite")


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
    _check_sample("n_samples", n_samples, seed, region_radius, "region_radius")
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, f.dim, region_radius, n_samples)
    with np.errstate(all="ignore"):
        violations = np.concatenate([
            spectral_norm(f.hessians(chunk)) - params.l0
            - params.l1 * _row_norms(f.values_grads(chunk)[1])
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
