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
from dataclasses import dataclass, field
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
    builder writes `value` and a fused `value_grad`; `_fused` adds
    `gradient(x) = value_grad(x)[1]` and the kernel, used only while `value`
    and `gradient` are those callables: without a kernel, or once either is
    swapped (say by `dataclasses.replace`), `value_grad` makes the two calls.
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
    kernel: tuple[Callable, Callable, Callable] | None = field(default=None, repr=False)

    def __post_init__(self):
        value, gradient = self.value, self.gradient
        if self.kernel is not None and self.kernel[:2] == (value, gradient):
            fused = self.kernel[2]
        else:
            def fused(x):
                return value(x), gradient(x)
        object.__setattr__(self, "value_grad", fused)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {x.shape}")
        return x


def _fused(value, value_grad) -> dict:
    """Objective fields for a value and a fused value_grad: the gradient is the kernel's."""
    def gradient(x):
        return value_grad(x)[1]

    return {"value": value, "gradient": gradient, "kernel": (value, gradient, value_grad)}


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
    same in math and numpy).  The dot stays on BLAS: its kernel rounds
    differently from the Python sum a*a + b*b (+ c*c), on 31577 of 200000
    standard normal 2-vectors and 42525 of 200000 3-vectors (seed 0), while
    `u @ v` and `u.dot(v)` agreed on all of 200000 pairs.  `_pow` stays
    scalar for a like reason (see there)."""
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


def _at_points(oracle, points: np.ndarray) -> np.ndarray:
    """oracle(x) for each row x of `points`, one call per point, stacked."""
    return np.array([oracle(x) for x in points], dtype=float)


def _values_grads(f: Objective, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients at the rows of `points`, one value_grad call per point."""
    pairs = [f.value_grad(x) for x in points]
    return (np.array([v for v, _ in pairs], dtype=float),
            np.array([g for _, g in pairs], dtype=float).reshape(points.shape))


def power_norm(dim: int, p: float, l1: float) -> Objective:
    """(1/p) * ||x||^p with p > 2; minimal l0 for a chosen l1 is ((p-2)/l1)^(p-2)."""
    if p <= 2:
        raise ValueError("p must exceed 2")
    if l1 <= 0:
        raise ValueError("l1 must be positive")
    if dim < 1:
        raise ValueError("dim must be positive")

    def value(x):
        return _pow(_norm(x), p) / p

    def value_grad(x):
        r = _norm(x)
        grad = np.zeros(dim) if r == 0.0 else np.multiply(_pow(r, p - 2), x)
        return _pow(r, p) / p, grad

    def hessian(x):
        r = _norm(x)
        if r == 0.0:
            # 0/0 at the origin; the limit is the zero matrix for p > 2
            return np.zeros((dim, dim))
        u = np.divide(x, r)
        return _pow(r, p - 2) * (_eye(dim) + (p - 2) * (u[:, None] * u))

    l0 = ((p - 2) / l1) ** (p - 2)
    return Objective(
        dim=dim,
        **_fused(value, value_grad),
        hessian=hessian,
        f_star=0.0,
        x_star=np.zeros(dim),
        params=SmoothnessParams(l0, l1),
        name=f"power_norm(d={dim},p={p},l1={l1})",
    )


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def logistic_1d(l1: float = 0.0) -> Objective:
    """ln(1 + exp(x)) on R; admits l0 = (1 - l1)^2 / 4 for any l1 in [0, 1].

    The infimum 0 is approached as x -> -infinity but never attained, so
    f_star is left unset; Polyak-style runs must pass an explicit target.
    """
    if not 0.0 <= l1 <= 1.0:
        raise ValueError("l1 must lie in [0, 1]")

    def value(x):
        return float(np.logaddexp(0.0, x[0]))

    def value_grad(x):
        t = x[0]
        return float(np.logaddexp(0.0, t)), np.array([_sigmoid(t)])

    def hessian(x):
        s = _sigmoid(x[0])
        return np.array([[s * (1.0 - s)]])

    return Objective(
        dim=1,
        **_fused(value, value_grad),
        hessian=hessian,
        params=SmoothnessParams(0.25 * (1.0 - l1) ** 2, l1),
        name=f"logistic(l1={l1})",
    )


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

    def hessian(x):
        s = _sigmoid(float(a @ x) + b)
        return s * (1.0 - s) * aa

    return Objective(
        dim=a.size,
        **_fused(value, value_grad),
        hessian=hessian,
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
    if dim < 1:
        raise ValueError("dim must be positive")
    l0, l1 = params.l0, params.l1

    def value(x):
        r = _norm(x)
        return float(l0 / l1**2 * (math.expm1(l1 * r) - l1 * r))

    def value_grad(x):
        r = _norm(x)
        e = math.expm1(l1 * r)  # OverflowError past l1*r ~ 709.8, as in value
        grad = np.zeros(dim) if r == 0.0 else np.multiply((l0 / l1) * e, x) / r
        return float(l0 / l1**2 * (e - l1 * r)), grad

    def hessian(x):
        r = _norm(x)
        if r == 0.0:
            # radial and tangential curvatures both tend to l0 at the origin
            return l0 * _eye(dim)
        u = np.multiply.outer(x, x) / _pow(r, 2)
        radial = l0 * math.exp(l1 * r)
        tangential = (l0 / l1) * math.expm1(l1 * r) / r
        return radial * u + tangential * (_eye(dim) - u)

    return Objective(
        dim=dim,
        **_fused(value, value_grad),
        hessian=hessian,
        f_star=0.0,
        x_star=np.zeros(dim),
        params=params,
        name=f"exp_phi(d={dim},l0={l0},l1={l1})",
    )


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
    """(1/p) * sum_i |x_i|^p, the separable composition of 1-D power terms.

    The constants are those of a 1-D `power_norm`, each term's and so the
    sum's.  Value, gradient and the diagonal Hessian each run one loop over
    the coordinates that does each term's arithmetic, bit for bit: the norm
    of a one-entry block is sqrt(t*t), its one-element dot.
    """
    if dim < 1:
        raise ValueError("dim must be positive")

    def value(x):
        coords = np.asarray(x, dtype=float).tolist()
        return sum([_pow(math.sqrt(t * t), p) / p for t in coords])

    def value_grad(x):
        terms, grad = [], []
        for t in np.asarray(x, dtype=float).tolist():
            r = math.sqrt(t * t)
            terms.append(_pow(r, p) / p)
            grad.append(0.0 if r == 0.0 else _pow(r, p - 2) * t)  # +0.0 at t = -0.0
        return sum(terms), np.array(grad)

    def hessian(x):
        diag = []
        for t in np.asarray(x, dtype=float).tolist():
            r = math.sqrt(t * t)
            u = t / r if r else 0.0  # +0.0 at r = 0, where _pow(r, p - 2) is +0.0
            diag.append(_pow(r, p - 2) * (1.0 + (p - 2) * (u * u)))
        return np.diag(diag)

    return Objective(
        dim=dim,
        **_fused(value, value_grad),
        hessian=hessian,
        f_star=0.0,
        x_star=np.zeros(dim),
        params=power_norm(1, p, l1).params,
        name=f"separable_pnorm(d={dim},p={p},l1={l1})",
    )


def sample_ball(rng: np.random.Generator, dim: int, radius: float, n: int) -> np.ndarray:
    """n points uniform in the closed ball of the given radius (rows)."""
    directions = rng.standard_normal((n, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / dim)
    return directions / norms * radii[:, None]


def spectral_norm(h: np.ndarray) -> float | np.ndarray:
    """Largest-magnitude eigenvalue of a symmetric matrix, exactly; for an
    (n, d, d) stack, the array of the n values, from one eigvalsh call."""
    if h.shape[-1] == 1:
        top = np.abs(h[..., 0, 0])
    else:
        top = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
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
    one found is reported, so NaN curvature never certifies.  Deterministic
    for a fixed seed.
    """
    if f.hessian is None:
        raise ValueError(f"objective {f.name!r} does not provide a Hessian")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not 0 < region_radius < math.inf:
        raise ValueError("region_radius must be positive and finite")
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, f.dim, region_radius, n_samples)
    h_norms = spectral_norm(_at_points(f.hessian, points))
    g_norms = _row_norms(_at_points(f.gradient, points))
    violations = h_norms - params.l0 - params.l1 * g_norms
    # argmax takes the first NaN, else the first of the largest
    i = int(np.argmax(violations))
    worst = float(violations[i])
    return CertificateReport(
        n_samples=n_samples,
        max_violation=worst,
        violating_point=None if worst == -math.inf else points[i].copy(),
        region_radius=region_radius,
    )
