"""Kernel-level checks: closed forms, series branches, bounds."""

import math

import numpy as np
import pytest

from gensmooth.kernels import (
    _SERIES_CUTOFF,
    SmoothnessParams,
    phi,
    phi_star,
    psi,
)

# Frozen from a 200-digit evaluation of exp(t) - t - 1 at t = 1e-8
# (mpmath; recomputed live in test_series_branch_matches_extended_precision).
PHI_1E8 = 5.000000016666666708333333e-17


class TestSmoothnessParams:
    def test_valid(self):
        p = SmoothnessParams(4.0, 1.0)
        assert p.l0 == 4.0 and p.l1 == 1.0

    def test_zero_l1_allowed(self):
        assert SmoothnessParams(1.0, 0.0).l1 == 0.0

    @pytest.mark.parametrize("l0,l1", [(-1.0, 1.0), (1.0, -1.0), (0.0, 0.0)])
    def test_rejects_bad_pairs(self, l0, l1):
        with pytest.raises(ValueError):
            SmoothnessParams(l0, l1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SmoothnessParams(math.inf, 1.0)


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_closed_form_at_one(self):
        assert phi(1.0) == pytest.approx(math.e - 2.0, rel=1e-15)

    def test_near_three(self):
        assert phi(2.9) == pytest.approx(math.exp(2.9) - 2.9 - 1.0, rel=1e-15)

    def test_series_branch_matches_extended_precision(self):
        assert phi(1e-8) == pytest.approx(PHI_1E8, rel=1e-15)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 200
        t = mp.mpf("1e-8")
        exact = float(mp.e**t - t - 1)
        assert phi(1e-8) == pytest.approx(exact, rel=1e-15)

    def test_monotone_on_grid(self):
        t = np.linspace(0.0, 20.0, 2001)
        assert np.all(np.diff(phi(t)) > 0)

    @pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            phi(bad)


class TestPhiStar:
    def test_zero(self):
        assert phi_star(0.0) == 0.0

    def test_value_e_minus_one(self):
        # (1+g) = e makes the log term exactly one
        assert phi_star(math.e - 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_at_one(self):
        assert phi_star(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)

    def test_sandwich_bounds(self):
        g = np.linspace(0.0, 100.0, 10001)
        ps = phi_star(g)
        assert np.all(ps >= g * g / (2.0 + g) - 1e-12)
        assert np.all(ps <= g * g / 2.0 + 1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            phi_star(-0.5)


class TestPsi:
    def test_zero(self):
        assert psi(0.0, SmoothnessParams(2.0, 5.0)) == 0.0

    def test_threshold_identity(self):
        # psi(l0/l1) = l0 / (5*l1^2), the hand-over level of the two-stage run
        p = SmoothnessParams(2.0, 5.0)
        assert psi(p.l0 / p.l1, p) == pytest.approx(p.l0 / (5.0 * p.l1**2), rel=1e-14)

    def test_l1_zero_reduces_to_quadratic_over_2l0(self):
        assert psi(1.0, SmoothnessParams(1.0, 0.0)) == pytest.approx(0.5)

    def test_strictly_increasing(self):
        p = SmoothnessParams(1.0, 2.0)
        g = np.linspace(0.0, 100.0, 1001)
        assert np.all(np.diff(psi(g, p)) > 0)

    @pytest.mark.parametrize("l0,l1", [(1.0, 1.0), (0.0, 2.0), (3.0, 0.0)])
    def test_array_matches_each_scalar_and_masked_form(self, l0, l1):
        """An array gives, entry by entry, the bits of each entry as a scalar
        and of g*g/(2*l0 + 3*l1*g) evaluated on the positive entries alone."""
        p = SmoothnessParams(l0, l1)
        g = np.concatenate([EDGES, 10.0 ** np.random.default_rng(3).uniform(-320, 308, 1000)])
        with np.errstate(over="ignore", invalid="ignore"):
            got = psi(g, p)
            each = [psi(t, p) for t in g.tolist()]
            want = np.zeros_like(g)
            pos = g > 0
            want[pos] = g[pos] * g[pos] / (2.0 * l0 + 3.0 * l1 * g[pos])
        assert all(type(v) is float for v in each)
        assert got.tobytes() == np.array(each).tobytes() == want.tobytes()


class TestConjugacy:
    def test_grid_maximum_matches_conjugate(self):
        """phi_star(g) = max_t {g*t - phi(t)} on a fine grid, within 1e-6."""
        rng = np.random.default_rng(11)
        for g in 10.0 * rng.random(50):
            t = np.linspace(0.0, math.log1p(g) + 0.5, 40001)
            grid_max = float(np.max(g * t - phi(t)))
            assert abs(float(phi_star(g)) - grid_max) < 1e-6


def masked_phi(t):
    """phi as two masked evaluations, series below the cutoff and closed form above."""
    arr = np.asarray(t, dtype=float)
    small = arr < _SERIES_CUTOFF
    out = np.empty_like(arr)
    ts = arr[small]
    out[small] = ts * ts * (0.5 + ts * (1.0 / 6.0 + ts / 24.0))
    out[~small] = np.expm1(arr[~small]) - arr[~small]
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def masked_phi_star(g):
    """phi_star as two masked evaluations, like masked_phi."""
    arr = np.asarray(g, dtype=float)
    small = arr < _SERIES_CUTOFF
    out = np.empty_like(arr)
    gs = arr[small]
    out[small] = gs * gs * (0.5 + gs * (-1.0 / 6.0 + gs / 12.0))
    gl = arr[~small]
    out[~small] = (1.0 + gl) * np.log1p(gl) - gl
    return float(out) if np.isscalar(g) or np.ndim(g) == 0 else out


# The cutoff and its neighbours, subnormals and the smallest normal, ordinary
# values, and values past expm1's overflow near 709.78.
EDGES = (0.0, -0.0, _SERIES_CUTOFF, float(np.nextafter(_SERIES_CUTOFF, 0.0)),
         float(np.nextafter(_SERIES_CUTOFF, 1.0)), 5e-324, 1e-310, 2.2250738585072014e-308,
         1e-200, 1e-8, 1e-3, 0.5, 1.0, 30.0, 709.78, 709.8, 710.0, 1e3, 1e300,
         1.7976931348623157e308)


# Entries that a kernel refuses: a NaN and a negative entry, in either order.
REFUSED = (np.array([0.5, -1.0, math.nan, 2e-6]), np.array([math.nan, 0.5, -1.0]))


def kernel_inputs():
    rng = np.random.default_rng(5)
    edges = np.array(EDGES)
    out = [*EDGES, 0, 1, 3, 800, True, np.float64(1e-6), np.array(2e-5), np.array(0.0),
           [1e-6], [0, 1e-7, 2.0], list(EDGES), edges, edges.reshape(4, 5), edges[::3],
           edges.reshape(4, 5).T, np.array([[0.0, 1e-6, 2.0], [3e-6, 0.5, 1e-7]]).T,
           np.array([]), np.array([1e-6]), np.array([4.0]), *REFUSED]
    for n in (1, 7, 33, 1000):
        out += [3.0 * rng.random(n), 2.0 * _SERIES_CUTOFF * rng.random(n),
                10.0 ** rng.uniform(-320, 2.9, n)]
    return out


@pytest.mark.parametrize("kernel,reference", [(phi, masked_phi), (phi_star, masked_phi_star)],
                         ids=["phi", "phi_star"])
def test_one_pass_matches_masked_form_bit_for_bit(kernel, reference):
    """The whole-array closed form with the series written over the small
    entries gives the bits, the shape and the return type of the masked form
    (on an F-ordered array too); an input it refuses is refused for its NaN."""
    for x in kernel_inputs():
        if any(x is bad for bad in REFUSED):
            with pytest.raises(ValueError, match="must be finite"):
                kernel(x)
            continue
        with np.errstate(over="ignore"):
            got, want = kernel(x), reference(x)
        assert type(got) is type(want), repr(x)
        assert np.shape(got) == np.shape(want), repr(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), repr(x)


@pytest.mark.parametrize("kernel", [phi, phi_star, lambda g: psi(g, SmoothnessParams(1.0, 1.0))],
                         ids=["phi", "phi_star", "psi"])
@pytest.mark.parametrize("bad, error", [
    (np.array([1.0, -2.0, math.nan]), "must be finite"),
    (np.array([math.nan, -2.0]), "must be finite"),
    (np.array([-math.inf, 1.0]), "must be finite"),
    (np.array([[1.0, -2.0], [3.0, math.inf]]).T, "must be finite"),
    (np.array([1.0, -0.5, 2.0]), "must be nonnegative"),
    (-5e-324, "must be nonnegative"),
    (math.nan, "must be finite"),
])
def test_not_finite_is_refused_before_negative(kernel, bad, error):
    """Each kernel names a NaN or an inf entry before a negative one."""
    with pytest.raises(ValueError, match=error):
        kernel(bad)


@pytest.mark.parametrize("kernel", [phi, phi_star], ids=["phi", "phi_star"])
def test_one_pass_does_not_write_into_its_input(kernel):
    x = np.array(EDGES)
    before = x.tobytes()
    with np.errstate(over="ignore"):
        kernel(x)
    assert x.tobytes() == before
