"""Objective constructors: constants, oracles, certification."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gensmooth
from gensmooth.kernels import SmoothnessParams
from gensmooth.problems import (
    Objective,
    _norm,
    affine_logistic,
    certify_smoothness,
    exp_phi,
    logistic_1d,
    power_norm,
    sample_ball,
    separable_pnorm,
    spectral_norm,
)


def fd_gradient(f, x, h=1e-6):
    h = h * (1.0 + np.linalg.norm(x))
    out = np.empty(f.dim)
    for j in range(f.dim):
        e = np.zeros(f.dim)
        e[j] = h
        out[j] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    return out


def fd_hessian(f, x, h=1e-5):
    h = h * (1.0 + np.linalg.norm(x))
    out = np.empty((f.dim, f.dim))
    for j in range(f.dim):
        e = np.zeros(f.dim)
        e[j] = h
        out[:, j] = (f.gradient(x + e) - f.gradient(x - e)) / (2.0 * h)
    return 0.5 * (out + out.T)


def assert_oracles_consistent(f, n_points=200, radius=3.0, seed=3):
    rng = np.random.default_rng(seed)
    for x in sample_ball(rng, f.dim, radius, n_points):
        grad = f.gradient(x)
        np.testing.assert_allclose(
            grad, fd_gradient(f, x), rtol=1e-5, atol=1e-5 * (1 + np.linalg.norm(grad))
        )
        if f.hessian is not None:
            hess = f.hessian(x)
            np.testing.assert_allclose(hess, hess.T, atol=1e-10)
            scale = 1.0 + np.abs(hess).max()
            np.testing.assert_allclose(hess, fd_hessian(f, x), atol=1e-4 * scale)


class TestPowerNorm:
    def test_constants_p4(self):
        assert power_norm(2, 4, 1).params == SmoothnessParams(4.0, 1)

    def test_constants_p6(self):
        assert power_norm(2, 6, 1).params.l0 == pytest.approx(256.0)

    def test_point_values(self):
        f = power_norm(2, 4, 1)
        x = np.array([1.0, 1.0])
        assert f.value(x) == pytest.approx(1.0)
        np.testing.assert_allclose(f.gradient(x), [2.0, 2.0])

    def test_origin(self):
        f = power_norm(3, 4, 1)
        zero = np.zeros(3)
        assert f.value(zero) == 0.0
        np.testing.assert_allclose(f.gradient(zero), zero)
        np.testing.assert_allclose(f.hessian(zero), np.zeros((3, 3)))

    def test_overflow_gives_inf_not_an_exception(self):
        f = power_norm(2, 8, 1)
        x = np.array([1e60, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert f.value(x) == math.inf
            assert f.value(x.tolist()) == math.inf
            assert not np.isfinite(f.gradient(x)).all()

    def test_oracles(self):
        assert_oracles_consistent(power_norm(3, 4, 1))
        assert_oracles_consistent(power_norm(2, 6, 1))
        assert_oracles_consistent(power_norm(2, 8, 1))

    def test_value_above_optimum(self):
        f = power_norm(2, 4, 1)
        rng = np.random.default_rng(0)
        assert all(f.value(x) >= f.f_star for x in sample_ball(rng, 2, 5.0, 100))

    @pytest.mark.parametrize("p,l1", [(2.0, 1.0), (1.5, 1.0), (4.0, 0.0), (4.0, -1.0)])
    def test_rejects_bad_parameters(self, p, l1):
        with pytest.raises(ValueError):
            power_norm(2, p, l1)


class TestLogistic:
    def test_constants(self):
        assert logistic_1d(0.0).params == SmoothnessParams(0.25, 0.0)
        assert logistic_1d(0.5).params == SmoothnessParams(0.0625, 0.5)
        assert logistic_1d(1.0).params.l0 == 0.0

    def test_point_values(self):
        f = logistic_1d(0.5)
        zero = np.zeros(1)
        assert f.value(zero) == pytest.approx(math.log(2.0))
        assert f.gradient(zero)[0] == pytest.approx(0.5)
        assert f.hessian(zero)[0, 0] == pytest.approx(0.25)

    def test_no_recorded_optimum(self):
        # the infimum is unattained; callers must supply explicit targets
        f = logistic_1d(0.5)
        assert f.f_star is None and f.x_star is None

    def test_overflow_safe(self):
        f = logistic_1d(0.0)
        assert f.value(np.array([800.0])) == pytest.approx(800.0)
        assert f.value(np.array([-800.0])) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(f.gradient(np.array([800.0]))).all()

    def test_oracles(self):
        assert_oracles_consistent(logistic_1d(0.5), radius=5.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            logistic_1d(1.5)


class TestAffineLogistic:
    def test_constants(self):
        f = affine_logistic(np.array([2.0, 0.0]), 0.0, 2.0)
        assert f.params.l0 == 0.0
        g = affine_logistic(np.array([3.0, 0.0]), 0.0, 1.0)
        assert g.params == SmoothnessParams(1.0, 1.0)

    def test_reduces_to_logistic_at_zero(self):
        f = affine_logistic(np.array([1.0, 0.0]), 0.0, 0.5)
        assert f.value(np.zeros(2)) == pytest.approx(math.log(2.0))

    def test_certifier_confirms_derived_constants(self):
        f = affine_logistic(np.array([3.0, 0.0]), 0.0, 1.0)
        report = certify_smoothness(f, f.params, 5.0, 2000, seed=5)
        assert report.passes(1e-8)

    def test_oracles(self):
        assert_oracles_consistent(affine_logistic(np.array([1.5, -2.0]), 0.3, 1.0))

    def test_rejects_l1_above_norm(self):
        with pytest.raises(ValueError):
            affine_logistic(np.array([1.0, 0.0]), 0.0, 1.5)

    @pytest.mark.parametrize("a, b", [([1e300, 1.0], 0.0), ([math.inf, 1.0], 0.0),
                                      ([math.nan], 0.0), ([1e200] * 9, 0.0), ([3.0], math.inf),
                                      ([3.0], math.nan)])
    def test_rejects_a_non_finite_a_b_or_norm_without_a_warning(self, a, b):
        """Refused before a*a^T is formed, whose overflow numpy warns about."""
        with pytest.raises(ValueError, match=r"a, b and \|\|a\|\| finite"):
            affine_logistic(np.array(a), b, 1.0)

    @pytest.mark.parametrize("f, x", [(logistic_1d(0.5), [1.0, 2.0]),
                                      (affine_logistic(np.ones(8), 0.0, 1.0), [1.0]),
                                      (affine_logistic(np.ones(8), 0.0, 1.0), np.ones(9))],
                             ids=["logistic", "d8_one_entry", "d8_nine_entries"])
    @pytest.mark.parametrize("oracle", ["value", "value_grad", "gradient"])
    def test_a_point_of_the_wrong_length_is_refused(self, f, x, oracle):
        """A direct oracle call does not truncate or broadcast the point."""
        with pytest.raises(ValueError, match="dot of"):
            getattr(f, oracle)(np.array(x))


class TestExpPhi:
    def test_origin(self):
        f = exp_phi(2, SmoothnessParams(1.0, 1.0))
        assert f.value(np.zeros(2)) == 0.0
        np.testing.assert_allclose(f.gradient(np.zeros(2)), np.zeros(2))

    def test_value_on_unit_sphere(self):
        f = exp_phi(2, SmoothnessParams(1.0, 1.0))
        x = np.array([math.sqrt(0.5), math.sqrt(0.5)])
        assert f.value(x) == pytest.approx(math.e - 2.0, rel=1e-12)

    def test_curvature_inequality_is_tight(self):
        f = exp_phi(2, SmoothnessParams(1.0, 1.0))
        report = certify_smoothness(f, f.params, 3.0, 10**4, seed=2)
        assert report.max_violation <= 1e-8

    def test_oracles(self):
        assert_oracles_consistent(exp_phi(2, SmoothnessParams(1.0, 1.0)))
        assert_oracles_consistent(exp_phi(3, SmoothnessParams(2.0, 0.5)))

    def test_rejects_zero_l1(self):
        with pytest.raises(ValueError):
            exp_phi(2, SmoothnessParams(1.0, 0.0))


class TestSeparablePnorm:
    def test_pnorm_composition(self):
        h = separable_pnorm(4, 4, 1.0)
        assert h.params == SmoothnessParams(4.0, 1.0)
        x = np.array([1.0, -1.0, 2.0, 0.0])
        assert h.value(x) == pytest.approx((1 + 1 + 16) / 4)
        assert h.f_star == 0.0
        assert_oracles_consistent(h)

    def test_large_dimension_builds_in_little_memory(self):
        """The build makes no per-coordinate object: it peaks under 1 MiB."""
        tracemalloc.start()
        try:
            f = separable_pnorm(10**4, 4, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.dim == 10**4 and f.x_star.tolist() == [0.0] * 10**4
        assert peak < 2**20


class TestNorm:
    @staticmethod
    def assert_bitwise_reduction(v):
        """_norm(v) is np.sqrt of numpy's reduction of v*v, bit for bit."""
        got = _norm(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.sqrt(np.add.reduce(v * v)).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9])
    def test_matches_the_reduction_on_random_vectors(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(50):
                self.assert_bitwise_reduction(scale * rng.standard_normal(dim))

    @pytest.mark.parametrize("entry", [0.0, 1e-170, 1e160, math.nan])
    def test_matches_the_reduction_on_edge_cases(self, entry):
        with np.errstate(over="ignore", under="ignore"):
            for dim in (1, 2, 3, 8):
                self.assert_bitwise_reduction(np.full(dim, entry))

    @pytest.mark.parametrize(
        "v", [[3.0, 4.0], np.array([3, 4]), np.array([[1.0, 2.0], [3.0, 4.0]])],
        ids=["list", "int_array", "matrix"],
    )
    def test_other_inputs_fall_back_to_linalg_norm(self, v):
        assert _norm(v) == np.linalg.norm(v)


@pytest.mark.parametrize(
    "f",
    [power_norm(2, 8, 1.0), exp_phi(2, SmoothnessParams(1.0, 1.0)), separable_pnorm(3, 4, 1.0)],
    ids=["power_norm", "exp_phi", "separable_pnorm"],
)
def test_oracles_accept_lists(f):
    """A list point gives bit for bit what the same ndarray point gives."""
    rng = np.random.default_rng(11)
    for x in [np.zeros(f.dim), np.eye(f.dim)[0], *rng.standard_normal((5, f.dim))]:
        as_list = x.tolist()
        assert f.value(as_list) == f.value(x)
        np.testing.assert_array_equal(f.gradient(as_list), f.gradient(x))
        np.testing.assert_array_equal(f.hessian(as_list), f.hessian(x))


class TestHessianBuffers:
    """A Hessian shares the cached identity and a precomputed outer product
    with no caller, and no builder allocates a d x d matrix."""

    @pytest.mark.parametrize(
        "build", [lambda: power_norm(10**4, 4, 1), lambda: exp_phi(10**4, SmoothnessParams(1, 1))],
        ids=["power_norm", "exp_phi"],
    )
    def test_large_dimension_builds_and_runs_without_a_dense_matrix(self, build):
        tracemalloc.start()
        try:
            f = build()
            x = np.full(f.dim, 1e-3)
            f.value(x), f.gradient(x), f.value_grad(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "f",
        [power_norm(3, 4, 1.0), exp_phi(3, SmoothnessParams(2.0, 0.5)), separable_pnorm(3, 6, 1.0),
         affine_logistic(np.array([3.0, -4.0, 1.5]), 0.25, 1.0), logistic_1d(0.5)],
        ids=["power_norm", "exp_phi", "separable_pnorm", "affine_logistic", "logistic"],
    )
    def test_writing_into_a_hessian_leaves_the_next_one(self, f):
        for x in (np.zeros(f.dim), np.linspace(-1.0, 2.0, f.dim)):
            first = f.hessian(x)
            want = first.copy()
            first += 7.0
            assert f.hessian(x).tobytes() == want.tobytes()


class TestSpectralNorm:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            h = m + m.T
            expected = float(np.linalg.norm(h, 2))
            assert spectral_norm(h) == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_stack_matches_each_matrix(self, d):
        """An (n, d, d) stack gives, bit for bit, each matrix's own value."""
        m = np.random.default_rng(d).standard_normal((50, d, d))
        stack = m + m.transpose(0, 2, 1)
        values = spectral_norm(stack)
        assert values.shape == (50,)
        assert values.tolist() == [spectral_norm(h) for h in stack]


class TestCertifier:
    def test_power_norm_true_constants_pass(self):
        f = power_norm(3, 4, 1)
        report = certify_smoothness(f, f.params, 10.0, 10**4, seed=7)
        assert report.max_violation <= 1e-8
        assert report.n_samples == 10**4
        assert report.region_radius == 10.0

    def test_loosened_constants_leave_slack(self):
        f = power_norm(3, 4, 1)
        loose = SmoothnessParams(f.params.l0 + 1.0, f.params.l1)
        report = certify_smoothness(f, loose, 10.0, 10**4, seed=7)
        assert report.max_violation <= -1.0 + 1e-8

    def test_understated_floor_is_detected(self):
        # curvature of ln(1+exp(x)) peaks at 1/4 > 0.2 near the origin
        f = logistic_1d(0.0)
        report = certify_smoothness(f, SmoothnessParams(0.2, 0.0), 0.001, 10**4, seed=7)
        assert report.max_violation >= 0.05 - 1e-8
        assert not report.passes(1e-8)
        assert report.violating_point is not None

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_passes_refuses_a_tolerance_that_is_not_finite(self, tol):
        f = power_norm(2, 4, 1)
        report = certify_smoothness(f, f.params, 5.0, 100, seed=0)
        with pytest.raises(ValueError, match="tol must be finite"):
            report.passes(tol)

    def test_negative_tolerance_is_stricter(self):
        f = power_norm(2, 4, 1)
        loose = SmoothnessParams(f.params.l0 + 1.0, f.params.l1)
        report = certify_smoothness(f, loose, 5.0, 100, seed=0)
        assert report.passes(-0.5) and not report.passes(-2.0)

    def test_deterministic_given_seed(self):
        f = power_norm(2, 4, 1)
        a = certify_smoothness(f, f.params, 5.0, 500, seed=13)
        b = certify_smoothness(f, f.params, 5.0, 500, seed=13)
        assert a.max_violation == b.max_violation
        np.testing.assert_array_equal(a.violating_point, b.violating_point)

    def test_requires_hessian(self):
        f = power_norm(2, 4, 1)
        bare = Objective(dim=2, value=f.value, gradient=f.gradient, name="bare")
        with pytest.raises(ValueError):
            certify_smoothness(bare, f.params, 1.0, 10, seed=0)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_radius_not_positive_and_finite(self, radius):
        f = power_norm(2, 4, 1)
        with pytest.raises(ValueError, match="region_radius must be positive and finite"):
            certify_smoothness(f, f.params, radius, 10, seed=0)

    @pytest.mark.parametrize("oracle,shape", [("hessian", (2, 2)), ("gradient", (2,))])
    def test_nan_curvature_never_certifies(self, oracle, shape):
        """A NaN violation is the worst case: the first sampled point is
        named and the report fails."""
        f = power_norm(2, 4, 1)
        broken = replace(f, **{oracle: lambda x: np.full(shape, np.nan)})
        report = certify_smoothness(broken, f.params, 5.0, 100, seed=0)
        assert math.isnan(report.max_violation)
        assert not report.passes()
        first = sample_ball(np.random.default_rng(0), 2, 5.0, 100)[0]
        np.testing.assert_array_equal(report.violating_point, first)

    def test_first_nan_beats_a_later_large_violation(self):
        f = logistic_1d(0.0)
        calls = []

        def hessian(x):
            calls.append(x)
            return np.array([[np.nan if len(calls) == 3 else 1e9]])

        report = certify_smoothness(replace(f, hessian=hessian), f.params, 1.0, 10, seed=1)
        assert math.isnan(report.max_violation)
        np.testing.assert_array_equal(report.violating_point, calls[2])


def test_every_exported_name_resolves():
    """Each name in `gensmooth.__all__` is an attribute of the package."""
    assert len(set(gensmooth.__all__)) == len(gensmooth.__all__)
    missing = [name for name in gensmooth.__all__ if not hasattr(gensmooth, name)]
    assert missing == []
