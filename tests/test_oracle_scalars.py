"""The oracles' Python-float arithmetic against a numpy-scalar reference, bit for bit.

The reference below is the numpy-scalar form of the same oracles: every dot
as np.add.reduce of the products and `_norm` as np.sqrt of that dot (a
matrix raveled first), every power of a norm as numpy's scalar `**`, every
outer product as np.outer on each call, and separable_pnorm as the same
reduction over one-dimensional power terms.
The logistic references keep the oracles' math.exp sigmoid.  Values,
gradients and Hessians must agree in every bit, and raise the same
exceptions, at seeded points of scale 1e-170 to 1e300 and at signed zeros,
subnormals, infinities, nan and 1.7e308, given as arrays and as lists; so
must `floats` at the point's list and `values_grads` and `hessians` at the
point as one row, the reference's being its per-point calls.
"""

import math
import warnings

import numpy as np
import pytest

from gensmooth.kernels import SmoothnessParams
from gensmooth.problems import (
    Objective,
    _norm,
    _pow,
    affine_logistic,
    exp_phi,
    logistic_1d,
    power_norm,
    separable_pnorm,
)


def ref_dot(u, v):
    """The fixed-order dot as numpy's reduction takes it, on any host."""
    return float(np.add.reduce(np.multiply(u, v)))


def ref_norm(v):
    v = np.ravel(np.asarray(v, dtype=float))
    return np.sqrt(ref_dot(v, v))


def ref_power_norm(dim, p, l1):
    def value(x):
        return float(ref_norm(x) ** p / p)

    def gradient(x):
        r = ref_norm(x)
        if r == 0.0:
            return np.zeros(dim)
        return np.multiply(r ** (p - 2), x)

    def hessian(x):
        r = ref_norm(x)
        if r == 0.0:
            return np.zeros((dim, dim))
        u = x / r
        return r ** (p - 2) * (np.eye(dim) + (p - 2) * np.outer(u, u))

    return Objective(dim=dim, value=value, gradient=gradient, hessian=hessian,
                     params=SmoothnessParams(1.0, l1))


def ref_exp_phi(dim, params):
    """Gradient c*x and Hessian c*(I + k*u u^T), with c = l0*expm1(s)/s and
    k = exp(s)/(expm1(s)/s) - 1 at s = l1*||x||, and their limits l0 and 0
    where s = 0."""
    l0, l1 = params.l0, params.l1

    def value(x):
        r = ref_norm(x)
        return float(l0 / l1**2 * (math.expm1(l1 * r) - l1 * r))

    def gradient(x):
        r = ref_norm(x)
        if r == 0.0:
            return np.zeros(dim)
        s = l1 * r
        return np.multiply(l0 * (math.expm1(s) / s) if s else l0, x)

    def hessian(x):
        r = ref_norm(x)
        s = l1 * r
        if s == 0.0:
            return l0 * np.eye(dim)
        q = math.expm1(s) / s
        u = x / r
        return l0 * q * (np.eye(dim) + (math.exp(s) / q - 1.0) * np.outer(u, u))

    return Objective(dim=dim, value=value, gradient=gradient, hessian=hessian,
                     params=params)


def ref_sigmoid(t):
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def ref_affine_logistic(a, b, l1):
    a = np.asarray(a, dtype=float)

    def value(x):
        return float(np.logaddexp(0.0, ref_dot(a, x) + b))

    def gradient(x):
        return ref_sigmoid(ref_dot(a, x) + b) * a

    def hessian(x):
        s = ref_sigmoid(ref_dot(a, x) + b)
        return s * (1.0 - s) * np.outer(a, a)

    return Objective(dim=a.size, value=value, gradient=gradient, hessian=hessian,
                     params=SmoothnessParams(1.0, l1))


def ref_logistic(l1):
    def value(x):
        return float(np.logaddexp(0.0, x[0]))

    def gradient(x):
        return np.array([ref_sigmoid(x[0])])

    def hessian(x):
        s = ref_sigmoid(x[0])
        return s * (1.0 - s) * np.outer([1.0], [1.0])

    return Objective(dim=1, value=value, gradient=gradient, hessian=hessian,
                     params=SmoothnessParams(1.0, l1))


def ref_separable_pnorm(dim, p, l1):
    """sum_i f(x_i) over one-entry blocks, f the one-dimensional reference term."""
    part = ref_power_norm(1, p, l1)
    blocks = [slice(i, i + 1) for i in range(dim)]

    def value(x):
        return float(np.add.reduce([part.value(x[b]) for b in blocks]))

    def gradient(x):
        return np.concatenate([part.gradient(x[b]) for b in blocks])

    def hessian(x):
        out = np.zeros((dim, dim))
        for b in blocks:
            out[b, b] = part.hessian(x[b])
        return out

    return Objective(dim=dim, value=value, gradient=gradient, hessian=hessian,
                     params=SmoothnessParams(1.0, l1))


SCALES = (1e-170, 1e-150, 1e-100, 1e-20, 1e-3, 1.0, 1e3, 1e20, 1e77, 1e100, 1e154,
          1e155, 1e200, 1e300)
SPECIAL = (0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, math.inf, -math.inf,
           math.nan, 1.7e308, -1.7e308)


def points(dim, seed):
    """Seeded points at every scale, then each special entry in every
    coordinate of a unit-scale point, and filling the whole point."""
    rng = np.random.default_rng(seed)
    out = [scale * rng.standard_normal(dim) for scale in SCALES for _ in range(4)]
    for entry in SPECIAL:
        out.append(np.full(dim, entry))
        for i in range(dim):
            x = rng.standard_normal(dim)
            x[i] = entry
            out.append(x)
    return out


def outcome(fn, x):
    """The bytes of what fn(x) returns, or the type of what it raises."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            out = fn(x)
        except Exception as exc:  # any exception: its type is the outcome
            return type(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return tuple(np.asarray(part, dtype=np.float64).tobytes() for part in parts)


def mismatches(new, ref, dim, seed):
    bad = []
    for x in points(dim, seed):
        calls = [(op, arg) for arg in (x, x.tolist()) for op in ("value", "gradient", "hessian")]
        calls += [("floats", x.tolist()), ("values_grads", x[None]), ("hessians", x[None])]
        for op, arg in calls:
            got, want = outcome(getattr(new, op), arg), outcome(getattr(ref, op), arg)
            if got != want:
                bad.append((op, type(arg).__name__, x.tolist(), got, want))
    return bad


AFFINE_A = np.array([3.0, -4.0, 1.5])
PAIRS = {
    "power_norm_p4": (lambda d: power_norm(d, 4.0, 1.0), lambda d: ref_power_norm(d, 4.0, 1.0)),
    "power_norm_p8_int": (lambda d: power_norm(d, 8, 1), lambda d: ref_power_norm(d, 8, 1)),
    "power_norm_p2.5": (lambda d: power_norm(d, 2.5, 0.5), lambda d: ref_power_norm(d, 2.5, 0.5)),
    "exp_phi": (lambda d: exp_phi(d, SmoothnessParams(1.0, 1.0)),
                lambda d: ref_exp_phi(d, SmoothnessParams(1.0, 1.0))),
    "exp_phi_small_l1": (lambda d: exp_phi(d, SmoothnessParams(2.0, 1e-160)),
                         lambda d: ref_exp_phi(d, SmoothnessParams(2.0, 1e-160))),
    "separable_pnorm_p4": (lambda d: separable_pnorm(d, 4.0, 1.0),
                           lambda d: ref_separable_pnorm(d, 4.0, 1.0)),
    "separable_pnorm_p6_int": (lambda d: separable_pnorm(d, 6, 1),
                               lambda d: ref_separable_pnorm(d, 6, 1)),
    "separable_pnorm_p3.5": (lambda d: separable_pnorm(d, 3.5, 2.0),
                             lambda d: ref_separable_pnorm(d, 3.5, 2.0)),
    "affine_logistic": (lambda d: affine_logistic(AFFINE_A[:d], 0.25, 1.0),
                        lambda d: ref_affine_logistic(AFFINE_A[:d], 0.25, 1.0)),
    # one-dimensional whatever `dim` is: each dim is one more seed of points
    "logistic": (lambda d: logistic_1d(0.5), lambda d: ref_logistic(0.5)),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_oracles_match_numpy_scalar_reference(name, dim):
    make, make_ref = PAIRS[name]
    new = make(dim)
    bad = mismatches(new, make_ref(dim), new.dim, seed=dim)
    assert not bad, f"{len(bad)} mismatches, first: {bad[0]}"


@pytest.mark.parametrize("p", [3.5, 4.0, 6])
def test_separable_pnorm_hessian_matches_blocks_at_log_uniform_scales(p):
    """Entries from 1e-320 to 1e300, denser where t*t is subnormal: there
    sqrt(t*t) != |t| and t/r != +-1, so the diagonal's rounding shows."""
    rng = np.random.default_rng(20)
    entries = np.concatenate([10.0 ** rng.uniform(-320, 300, 3000),
                              10.0 ** rng.uniform(-165, -153, 3000)])
    entries *= rng.choice([-1.0, 1.0], entries.size)
    new, ref = separable_pnorm(3, p, 1.0), ref_separable_pnorm(3, p, 1.0)
    for x in entries.reshape(-1, 3):
        assert outcome(new.hessian, x) == outcome(ref.hessian, x), x.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_norm_matches_numpy_scalar_reference(dim):
    inputs = points(dim, seed=10 + dim)
    inputs += [x.tolist() for x in inputs] + [np.outer(x, x) for x in inputs[:20]]
    for v in inputs:
        got, want = outcome(_norm, v), outcome(ref_norm, v)
        assert got == want, v
        with np.errstate(over="ignore"):
            assert type(_norm(v)) is float


def test_exp_phi_overflow_still_raises():
    f = exp_phi(2, SmoothnessParams(1.0, 1.0))
    x = np.array([800.0, 0.0])
    for op in (f.value, f.gradient, lambda x: f.floats(x.tolist()), f.hessian):
        with pytest.raises(OverflowError):
            op(x)


@pytest.mark.parametrize("x0", [705.0, 709.0])
def test_exp_phi_gradient_is_finite_where_its_value_is(x0):
    """expm1(l1*r) is divided by r before it meets x, so just below the
    value's overflow the gradient is finite, per point and batched, and
    nothing warns."""
    f = exp_phi(2, SmoothnessParams(1.0, 1.0))
    x = np.array([x0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = f.floats(x.tolist())
        grad = np.array(grad)
        values, grads = f.values_grads(x[None])
        hessian = f.hessian(x)
        assert [f.value(x), values[0]] == [value, value] and math.isfinite(value)
        for g in (grad, f.gradient(x), grads[0]):
            assert g.tobytes() == grad.tobytes()
        assert grad[0] == pytest.approx(math.expm1(x0), rel=1e-15) and grad[1] == 0.0
        assert np.isfinite(hessian).all()


def test_pow_overflow_reads_inf_without_raising_or_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _pow(1e200, 4.0) == math.inf
