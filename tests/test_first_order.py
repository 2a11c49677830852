"""Stepsize rules, run loop behavior, and per-step descent invariants."""

import math

import numpy as np
import pytest

from gensmooth.kernels import SmoothnessParams, phi, phi_star, psi
from gensmooth.problems import Objective, power_norm
from gensmooth import first_order
from gensmooth.first_order import (
    StepRule,
    Trace,
    best_iterate,
    gd_run,
    ngd_run,
    stepsize_clipped,
    stepsize_optimal,
    stepsize_polyak,
    stepsize_simplified,
)

# (1/4) * ln(1.5) to 200 digits, the optimal step at l0=4, l1=1, g=4
OPT_STEP_4_1_4 = 0.1013662770270410954945033


def quadratic(dim=2):
    return Objective(
        dim=dim,
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x.copy(),
        hessian=lambda x: np.eye(dim),
        f_star=0.0,
        x_star=np.zeros(dim),
        params=SmoothnessParams(1.0, 0.0),
        name="quadratic",
    )


class TestStepsizeOptimal:
    def test_l1_zero_gives_inverse_l0(self):
        p = SmoothnessParams(4.0, 0.0)
        assert stepsize_optimal(0.7, p) == 0.25
        assert stepsize_optimal(100.0, p) == 0.25

    def test_l0_zero_gives_ln2_over_l1g(self):
        p = SmoothnessParams(0.0, 2.0)
        assert stepsize_optimal(3.0, p) == pytest.approx(math.log(2.0) / 6.0, rel=1e-14)

    def test_frozen_value(self):
        p = SmoothnessParams(4.0, 1.0)
        assert stepsize_optimal(4.0, p) == pytest.approx(OPT_STEP_4_1_4, rel=1e-15)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        exact = float(mp.log(mp.mpf(3) / 2) / 4)
        assert stepsize_optimal(4.0, p) == pytest.approx(exact, rel=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            stepsize_optimal(0.0, SmoothnessParams(0.0, 1.0))


class TestStepsizeSimplified:
    def test_l1_zero(self):
        assert stepsize_simplified(5.0, SmoothnessParams(4.0, 0.0)) == 0.25

    def test_direct_formula(self):
        assert stepsize_simplified(4.0, SmoothnessParams(4.0, 1.0)) == pytest.approx(0.1)

    def test_never_exceeds_optimal(self):
        """The simplified step underestimates the optimal one everywhere."""
        rng = np.random.default_rng(21)
        for _ in range(500):
            l0, l1 = rng.uniform(0.01, 50.0, size=2)
            g = rng.uniform(1e-6, 1e4)
            p = SmoothnessParams(l0, l1)
            assert stepsize_simplified(g, p) <= stepsize_optimal(g, p) + 1e-15

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            stepsize_simplified(0.0, SmoothnessParams(0.0, 1.0))


class TestStepsizeClipped:
    def test_gradient_branch(self):
        assert stepsize_clipped(10.0, SmoothnessParams(4.0, 1.0)) == pytest.approx(1 / 30)

    def test_constant_branch(self):
        assert stepsize_clipped(1.0, SmoothnessParams(4.0, 1.0)) == pytest.approx(0.125)

    def test_l1_zero(self):
        assert stepsize_clipped(7.0, SmoothnessParams(4.0, 0.0)) == 0.125

    def test_ordering_bracket(self):
        """1/(2l0+3l1g) <= clipped <= 1/(l0+1.5l1g) on sampled inputs."""
        rng = np.random.default_rng(22)
        for _ in range(500):
            l0, l1 = rng.uniform(0.01, 50.0, size=2)
            g = rng.uniform(1e-6, 1e4)
            p = SmoothnessParams(l0, l1)
            step = stepsize_clipped(g, p)
            assert step >= 1.0 / (2 * l0 + 3 * l1 * g) - 1e-18
            assert step <= stepsize_simplified(g, p) + 1e-18

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            stepsize_clipped(0.0, SmoothnessParams(0.0, 1.0))


class TestStepsizePolyak:
    def test_zero_at_target(self):
        assert stepsize_polyak(1.0, 1.0, 2.0) == 0.0

    def test_power_norm_example(self):
        # f = x^4/4 at x=1: value 1/4, gradient 1, target 0
        assert stepsize_polyak(0.25, 0.0, 1.0) == 0.25

    def test_direct_formula(self):
        assert stepsize_polyak(2.0, 0.0, 4.0) == 0.125

    def test_rejects_stationary(self):
        with pytest.raises(ValueError):
            stepsize_polyak(1.0, 0.0, 0.0)

    def test_rejects_inconsistent_target(self):
        with pytest.raises(ValueError):
            stepsize_polyak(0.5, 1.0, 1.0)


class TestOptimalStepIsModelArgmax:
    """The optimal rule maximizes r -> g*r - (a/l1^2)*phi(l1*r), the
    certified progress of a step of length r; check against a grid scan."""

    def test_step_length_matches_grid_argmax(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            l0, l1 = rng.uniform(0.1, 10.0, size=2)
            g = rng.uniform(0.1, 50.0)
            p = SmoothnessParams(l0, l1)
            step = stepsize_optimal(g, p) * g
            a = l0 + l1 * g
            r = np.linspace(0.0, 4.0 * step, 200001)
            model = g * r - a / l1**2 * phi(l1 * r)
            r_best = r[np.argmax(model)]
            assert step == pytest.approx(r_best, abs=r[1] * 2)

    def test_progress_level_matches_grid_maximum(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            l0, l1 = rng.uniform(0.1, 10.0, size=2)
            g = rng.uniform(0.1, 50.0)
            p = SmoothnessParams(l0, l1)
            a = l0 + l1 * g
            delta = a / l1**2 * float(phi_star(l1 * g / a))
            step = stepsize_optimal(g, p) * g
            r = np.linspace(0.0, 4.0 * step, 200001)
            model_max = float(np.max(g * r - a / l1**2 * phi(l1 * r)))
            assert delta == pytest.approx(model_max, rel=1e-8)


class TestContinuityInL1:
    def test_stepsizes_match_their_l1_zero_forms(self):
        """l1 = 1e-12 must agree with the l1 = 0 closed forms to 1e-6."""
        tiny = SmoothnessParams(4.0, 1e-12)
        flat = SmoothnessParams(4.0, 0.0)
        for g in (1e-3, 1.0, 1e3):
            assert stepsize_optimal(g, tiny) == pytest.approx(
                stepsize_optimal(g, flat), rel=1e-6
            )
            assert stepsize_simplified(g, tiny) == pytest.approx(
                stepsize_simplified(g, flat), rel=1e-6
            )
            assert stepsize_clipped(g, tiny) == pytest.approx(
                stepsize_clipped(g, flat), rel=1e-6
            )


class TestGdRun:
    def test_quadratic_one_step(self):
        f = quadratic()
        trace = gd_run(f, StepRule(variant="optimal", params=f.params),
                       np.array([3.0, -4.0]), budget=10)
        assert trace.termination == "StationaryExact"
        assert trace.records[1].f_val == 0.0
        np.testing.assert_array_equal(trace.final_x, np.zeros(2))

    def test_budget_counts_gradient_evaluations(self):
        f = power_norm(2, 4, 1)
        trace = gd_run(f, StepRule(variant="simplified", params=f.params),
                       np.array([10.0, 0.0]), budget=50)
        assert len(trace) == 50
        assert trace.records[-1].oracle_calls == 50
        assert [r.oracle_calls for r in trace.records] == list(range(1, 51))

    def test_budget_one_gives_single_record(self):
        f = power_norm(2, 4, 1)
        trace = gd_run(f, StepRule(variant="simplified", params=f.params),
                       np.array([10.0, 0.0]), budget=1)
        assert len(trace) == 1 and trace.records[0].k == 0
        assert trace.termination == "BudgetExhausted"

    def test_grad_tol_termination(self):
        f = power_norm(2, 4, 1)
        trace = gd_run(f, StepRule(variant="simplified", params=f.params),
                       np.array([10.0, 0.0]), budget=10**5, grad_tol=1e-3)
        assert trace.termination == "GradToleranceMet"
        assert trace.records[-1].grad_norm <= 1e-3

    def test_gap_tol_termination(self):
        f = power_norm(2, 4, 1)
        trace = gd_run(f, StepRule(variant="simplified", params=f.params),
                       np.array([10.0, 0.0]), budget=10**5, gap_tol=1e-2)
        assert trace.termination == "GapToleranceMet"
        assert trace.records[-1].f_gap <= 1e-2

    def test_divergence_guard(self):
        # understating l0 on the quadratic gives step 2.5 > 2/L: geometric blowup
        f = quadratic()
        bad = StepRule(variant="optimal", params=SmoothnessParams(0.4, 0.0))
        trace = gd_run(f, bad, np.array([3.0, 0.0]), budget=2000)
        assert trace.termination == "Diverged"
        assert abs(trace.records[-1].f_val) > 1e150

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run", [
        lambda f, x0: gd_run(f, StepRule("optimal", SmoothnessParams(1.0, 0.0)), x0, 2000),
        lambda f, x0: ngd_run(f, 1e200, "sqrt", x0, 2000),
    ], ids=["gd", "ngd"])
    def test_divergence_raises_no_numpy_warning(self, run):
        """The overflow of a diverging run is recorded, not warned about,
        also when the method is called directly rather than from the CLI."""
        trace = run(power_norm(2, 4, 1), np.array([10.0, 0.0]))
        assert trace.termination == "Diverged"

    def test_polyak_uses_objective_f_star(self):
        f = power_norm(2, 4, 1)
        trace = gd_run(f, StepRule(variant="polyak"), np.array([10.0, 0.0]), budget=200)
        assert min(r.f_gap for r in trace.records) < 1e-12

    def test_polyak_without_target_errors(self):
        f = quadratic()
        bare = Objective(dim=2, value=f.value, gradient=f.gradient, name="no-target")
        with pytest.raises(ValueError):
            gd_run(bare, StepRule(variant="polyak"), np.ones(2), budget=10)

    def test_descent_guarantee_per_step(self):
        """f(x_k) - f(x_{k+1}) >= a * g^2/(2l0+3l1g), a = 1 (optimal,
        simplified) or 1/2 (clipped)."""
        f = power_norm(2, 4, 1)
        x0 = np.array([10.0, 0.0])
        for variant, a in (("optimal", 1.0), ("simplified", 1.0), ("clipped", 0.5)):
            trace = gd_run(f, StepRule(variant=variant, params=f.params), x0, 2000)
            for prev, nxt in zip(trace.records, trace.records[1:]):
                guaranteed = a * psi(prev.grad_norm, f.params)
                assert prev.f_val - nxt.f_val >= guaranteed - 1e-9

    def test_optimal_rule_exact_progress(self):
        """The optimal rule achieves the conjugate-kernel progress level."""
        f = power_norm(2, 4, 1)
        p = f.params
        trace = gd_run(f, StepRule(variant="optimal", params=p), np.array([10.0, 0.0]), 2000)
        for prev, nxt in zip(trace.records, trace.records[1:]):
            g = prev.grad_norm
            aa = p.l0 + p.l1 * g
            delta = aa / p.l1**2 * float(phi_star(p.l1 * g / aa))
            assert prev.f_val - nxt.f_val >= delta - 1e-9

    def test_support_distance_recorded(self):
        f = power_norm(2, 4, 1)
        trace = gd_run(f, StepRule(variant="simplified", params=f.params),
                       np.array([3.0, 0.0]), budget=5)
        rec = trace.records[0]
        # grad is parallel to x - x_star here, so v equals the distance
        assert rec.support_dist == pytest.approx(3.0)
        assert rec.dist_opt == pytest.approx(3.0)

    def test_rejects_normalized_variant(self):
        with pytest.raises(ValueError, match="unknown stepsize variant"):
            StepRule(variant="normalized")


class TestNgdRun:
    def test_one_step_exact_minimizer(self):
        """With beta_0 equal to the start distance the first step lands at 0."""
        f = power_norm(2, 4, 1)
        x0 = np.array([7.0, 0.0])
        horizon = 48
        r_hat = 7.0 * math.sqrt(horizon + 1)
        trace = ngd_run(f, r_hat, "fixed", x0, budget=10**4, horizon=horizon)
        assert trace.records[1].f_val == 0.0
        assert trace.termination == "StationaryExact"

    def test_fixed_schedule_constant_steps(self):
        f = power_norm(2, 4, 1)
        trace = ngd_run(f, 5.0, "fixed", np.array([10.0, 0.0]), 10**4, horizon=100)
        beta = 5.0 / math.sqrt(101)
        for rec in trace.records:
            if rec.grad_norm > 0:
                assert rec.step_len == beta

    def test_sqrt_schedule_steps(self):
        f = power_norm(2, 6, 1)
        trace = ngd_run(f, 2.0, "sqrt", np.array([10.0, 0.0]), budget=50)
        for rec in trace.records:
            if rec.grad_norm > 0:
                assert rec.step_len == pytest.approx(2.0 / math.sqrt(rec.k + 1))

    def test_linear_schedule_steps(self):
        f = power_norm(2, 6, 1)
        trace = ngd_run(f, 2.0, "linear", np.array([10.0, 0.0]), budget=50)
        for rec in trace.records:
            if rec.grad_norm > 0:
                assert rec.step_len == pytest.approx(2.0 / (rec.k + 1))

    @pytest.mark.parametrize("budget, horizon, last_k", [
        (10**4, 25, 25),  # the horizon stops the run
        (10, 25, 9),      # the budget runs out first
    ])
    def test_horizon_limits_iterations(self, budget, horizon, last_k):
        f = power_norm(2, 6, 1)
        trace = ngd_run(f, 1.0, "fixed", np.array([10.0, 0.0]), budget, horizon=horizon)
        assert trace.records[-1].k == last_k
        assert trace.termination == "BudgetExhausted"

    def test_rejects_bad_args(self):
        f = power_norm(2, 4, 1)
        with pytest.raises(ValueError):
            ngd_run(f, -1.0, "sqrt", np.zeros(2), 10)
        for r_hat in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r_hat must be positive"):
                ngd_run(f, r_hat, "linear", np.array([10.0, 0.0]), 10)
        with pytest.raises(ValueError):
            ngd_run(f, 1.0, "fixed", np.zeros(2), 10, horizon=None)
        with pytest.raises(ValueError):
            ngd_run(f, 1.0, "both", np.zeros(2), 10)


class TestBestIterate:
    def _trace_with_values(self, values):
        n = len(values)
        cols = first_order._columns(n, 1, None, None, {}, f_val=np.array(values),
                                    grad_norm=np.ones(n), step_len=np.zeros(n),
                                    oracle_calls=np.arange(1, n + 1))
        return Trace(columns=cols, final_x=np.zeros(1), termination="BudgetExhausted")

    def test_monotone_gives_last(self):
        trace = self._trace_with_values([5.0, 3.0, 1.0])
        assert best_iterate(trace) == (2, 1.0)

    def test_first_minimum_tie_break(self):
        trace = self._trace_with_values([3.0, 1.0, 1.0, 2.0])
        assert best_iterate(trace) == (1, 1.0)

    def test_single_record(self):
        trace = self._trace_with_values([4.0])
        assert best_iterate(trace) == (0, 4.0)


class TestMoveOnPythonFloats:
    """`first_order._move` is the loops' x - step * (grad / g), bit for bit."""

    # subnormals, signed zeros and extremes, so that quotients and products
    # overflow to inf or underflow to zero or a subnormal
    SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 1e-300, -1e-300, 1.0, -1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_bitwise_numpy_update(self, dim):
        rng = np.random.default_rng(1300 + dim)
        shape = (2000, 2 * dim + 2)  # x, grad, g and step per row
        # magnitudes over the whole exponent range, a third of them special
        draws = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 307, shape)
        special = rng.random(draws.shape) < 1 / 3
        draws[special] = rng.choice(self.SPECIAL, special.sum())
        seen = set()
        with np.errstate(all="ignore"):
            for row in draws:
                x, grad = row[:dim], row[dim:2 * dim]
                # as at the update: g finite and > 0, step a Python float >= 0
                g, step = abs(float(row[-2])) or 5e-324, abs(float(row[-1]))
                want = x - step * (grad / g)
                got = first_order._move(x.tolist(), step, grad.tolist(), g)
                assert got.dtype == np.float64 and got.shape == (dim,)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                seen.update(("-0.0" if v == 0.0 and math.copysign(1.0, v) < 0 else
                             "inf" if math.isinf(v) else "nan" if math.isnan(v) else
                             "subnormal" if 0.0 < abs(v) < 2.2250738585072014e-308 else "")
                            for v in got.tolist())
        assert {"-0.0", "inf", "nan", "subnormal"} <= seen  # the edge cases were drawn
