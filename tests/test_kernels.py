"""Kernel-level checks: closed forms, series branches, bounds, inverses."""

import math

import numpy as np
import pytest

from gensmooth.kernels import (
    SmoothnessParams,
    phi,
    phi_star,
    phi_star_prime,
    psi,
    psi_inverse,
)

# Frozen from a 200-digit evaluation of exp(t) - t - 1 at t = 1e-8
# (mpmath; recomputed live in test_series_branch_matches_extended_precision).
PHI_1E8 = 5.000000016666666708333333e-17
LOG1P_1E12 = 9.999999999995000000000003e-13


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


class TestPhiStarPrime:
    def test_zero(self):
        assert phi_star_prime(0.0) == 0.0

    def test_ln_e(self):
        assert phi_star_prime(math.e - 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_tiny_argument(self):
        assert phi_star_prime(1e-12) == pytest.approx(LOG1P_1E12, rel=1e-6)

    def test_bracket(self):
        g = np.linspace(0.0, 50.0, 5001)
        v = phi_star_prime(g)
        assert np.all(v >= 2.0 * g / (2.0 + g) - 1e-12)
        assert np.all(v <= g + 1e-12)


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


class TestPsiInverse:
    def test_zero(self):
        assert psi_inverse(0.0, SmoothnessParams(2.0, 5.0)) == 0.0

    def test_threshold_inverse(self):
        p = SmoothnessParams(2.0, 5.0)
        t = p.l0 / (5.0 * p.l1**2)
        assert psi_inverse(t, p) == pytest.approx(p.l0 / p.l1, rel=1e-12)

    def test_round_trip_at_point(self):
        p = SmoothnessParams(2.0, 5.0)
        assert psi_inverse(psi(3.7, p), p) == pytest.approx(3.7, rel=1e-10)

    def test_round_trip_identity_on_range(self):
        p = SmoothnessParams(0.3, 2.0)
        t = np.geomspace(1e-12, 1e6, 400)
        back = psi(psi_inverse(t, p), p)
        np.testing.assert_allclose(back, t, rtol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            psi_inverse(-1.0, SmoothnessParams(1.0, 1.0))


class TestConjugacy:
    def test_grid_maximum_matches_conjugate(self):
        """phi_star(g) = max_t {g*t - phi(t)} on a fine grid, within 1e-6."""
        rng = np.random.default_rng(11)
        for g in 10.0 * rng.random(50):
            t = np.linspace(0.0, math.log1p(g) + 0.5, 40001)
            grid_max = float(np.max(g * t - phi(t)))
            assert abs(float(phi_star(g)) - grid_max) < 1e-6
