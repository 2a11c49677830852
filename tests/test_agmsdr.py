"""Segment search, estimate-model bookkeeping, and the two-stage procedure."""

import math

import numpy as np
import pytest

from gensmooth.kernels import SmoothnessParams
from gensmooth.problems import Objective, power_norm
from gensmooth.agmsdr import (
    LS_MAX_EVALS,
    EstimateState,
    LineSearchError,
    agmsdr_run,
    segment_line_search,
    two_stage_run,
)
from gensmooth.verify import rate_monitor


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


class TestSegmentLineSearch:
    def test_minimum_at_far_endpoint(self):
        f = quadratic()
        res = segment_line_search(f, np.array([2.0, 0.0]), np.zeros(2), 0.0)
        assert res.f_y <= 1e-12
        np.testing.assert_allclose(res.y, np.zeros(2), atol=1e-9)

    def test_symmetric_interior_minimum(self):
        f = quadratic()
        res = segment_line_search(f, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), 0.5)
        assert res.beta == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(res.y, np.zeros(2), atol=1e-9)

    def test_never_worse_than_endpoints(self):
        f = power_norm(2, 4, 1)
        rng = np.random.default_rng(17)
        for _ in range(25):
            v = rng.uniform(-3, 3, size=2)
            x = rng.uniform(-3, 3, size=2)
            res = segment_line_search(f, v, x, f.value(x))
            assert res.f_y <= min(f.value(v), f.value(x)) + 1e-15

    def test_matches_dense_grid_scan(self):
        """A million-point scan of the segment agrees to 1e-8."""
        f = power_norm(2, 4, 1)
        v = np.array([2.0, -1.0])
        x = np.array([-1.5, 2.5])
        res = segment_line_search(f, v, x, f.value(x))
        betas = np.linspace(0.0, 1.0, 10**6 + 1)
        pts = v[None, :] + betas[:, None] * (x - v)[None, :]
        vals = np.linalg.norm(pts, axis=1) ** 4 / 4.0
        assert res.f_y <= float(vals.min()) + 1e-8

    def test_eval_budget_respected(self):
        f = power_norm(2, 4, 1)
        x = np.array([-1.5, 2.5])
        res = segment_line_search(f, np.array([2.0, -1.0]), x, f.value(x))
        assert 0 < res.evals <= LS_MAX_EVALS

    def test_degenerate_segment_short_circuits(self):
        f = quadratic()
        x = np.array([1.0, 1.0])
        res = segment_line_search(f, x, x, f.value(x))
        assert res.evals == 0
        np.testing.assert_array_equal(res.y, x)

    def test_known_endpoint_values_save_calls(self):
        """The caller's f(x) is used, not evaluated again."""
        f = quadratic()
        probes = []
        counted = Objective(dim=2, value=lambda x: probes.append(x) or f.value(x),
                            gradient=f.gradient, name="counted")
        x = np.array([1.0, 0.0])
        res = segment_line_search(counted, np.array([-1.0, 0.0]), x, 0.5)
        assert res.evals == len(probes) > 0
        assert not any(np.array_equal(p, x) for p in probes)

    def test_non_finite_raises_with_offset(self):
        spiky = Objective(
            dim=1,
            value=lambda x: math.inf if 0.3 < x[0] < 0.7 else float(x[0] ** 2),
            gradient=lambda x: 2 * x,
            name="spiky",
        )
        with pytest.raises(LineSearchError) as err:
            segment_line_search(spiky, np.array([0.0]), np.array([1.0]), 1.0)
        assert 0.3 < err.value.beta < 0.7


class TestEstimateState:
    def test_initial_state(self):
        s = EstimateState(x0=np.array([1.0, 2.0]))
        assert s.a_capital == 0.0
        assert s.model_minimum() == 0.0
        np.testing.assert_array_equal(s.minimizer, [1.0, 2.0])

    def test_minimizer_is_model_stationary_point(self):
        """The tracked minimizer zeroes the model gradient exactly."""
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(3)
        s = EstimateState(x0=x0.copy())
        ys, grads, avals = [], [], []
        for _ in range(6):
            y = rng.standard_normal(3)
            gy = rng.standard_normal(3)
            a = rng.uniform(0.1, 2.0)
            s.accumulate(a, y, float(rng.random()), gy)
            ys.append(y)
            grads.append(gy)
            avals.append(a)
        v = s.minimizer
        model_grad = (v - x0) + sum(a * g for a, g in zip(avals, grads))
        np.testing.assert_allclose(model_grad, np.zeros(3), atol=1e-10)

    def test_model_minimum_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(2)
        s = EstimateState(x0=x0.copy())
        terms = []
        for _ in range(4):
            y = rng.standard_normal(2)
            gy = rng.standard_normal(2)
            fy = float(rng.random())
            a = rng.uniform(0.1, 2.0)
            s.accumulate(a, y, fy, gy)
            terms.append((a, y, fy, gy))

        def zeta(x):
            total = 0.5 * float((x - x0) @ (x - x0))
            for a, y, fy, gy in terms:
                total += a * (fy + float(gy @ (x - y)))
            return total

        assert s.model_minimum() == pytest.approx(zeta(s.minimizer), abs=1e-12)


class TestAgmsdrRun:
    def test_first_coefficient(self):
        # with A_0 = 0 the recursion L*a^2 = A + a gives a_1 = 1/L
        f = quadratic()
        trace = agmsdr_run(f, np.array([3.0, 4.0]), l_const=2.0, budget=50)
        assert trace.records[1].a_capital == pytest.approx(0.5)

    def test_quadratic_rate_and_monotonicity(self):
        f = quadratic()
        x0 = np.array([3.0, 4.0])
        trace = agmsdr_run(f, x0, l_const=1.0, budget=200)
        r0 = float(np.linalg.norm(x0))
        for rec in trace.records:
            if rec.k >= 1:
                assert rec.f_gap <= 2.0 * r0**2 / rec.k**2 + 1e-12
        rep = rate_monitor(trace, "accelerated", l_const=1.0, r=r0)
        assert rep.n_failures == 0

    def test_coefficient_growth(self):
        f = power_norm(2, 4, 1)
        start = np.array([1.5, 0.0])
        l_const = 3.0 * f.params.l0
        trace = agmsdr_run(f, start, l_const, budget=3000)
        for rec in trace.records:
            if rec.k >= 1:
                assert rec.a_capital >= rec.k**2 / (4.0 * l_const)

    def test_monotone_chain_on_power_norm(self):
        f = power_norm(2, 6, 1)
        start = np.array([2.0, 0.0])  # inside the small-gradient region
        trace = agmsdr_run(f, start, 3.0 * f.params.l0, budget=5000)
        for rec, nxt in zip(trace.records, trace.records[1:]):
            if rec.f_y is not None:
                assert rec.f_y <= rec.f_val + 1e-9
                assert nxt.f_val <= rec.f_y + 1e-9

    def test_estimate_certificate(self):
        f = power_norm(2, 6, 1)
        trace = agmsdr_run(f, np.array([2.0, 0.0]), 3.0 * f.params.l0, budget=5000)
        for rec in trace.records:
            assert rec.a_capital * rec.f_val <= rec.zeta_star + 1e-7

    def test_wrong_constants_abort(self):
        # pretending the quadratic is much flatter forces an ascent step
        f = quadratic()
        with pytest.raises(RuntimeError):
            agmsdr_run(
                f,
                np.array([3.0, 0.0]),
                l_const=1.0,
                budget=100,
                t_params=SmoothnessParams(0.05, 0.0),
            )

    def test_oracle_calls_cover_line_search(self):
        f = power_norm(2, 6, 1)
        trace = agmsdr_run(f, np.array([2.0, 0.0]), 3.0 * f.params.l0, budget=2000)
        iter_records = [r for r in trace.records if r.ls_evals is not None]
        total_ls = sum(r.ls_evals for r in iter_records)
        # initial value + per-iteration (ls evals + gradient + value)
        expected = 1 + total_ls + 2 * len(iter_records)
        assert trace.records[-1].oracle_calls == expected


class TestTwoStage:
    def test_l1_zero_is_pure_accelerated_run(self):
        f = quadratic()
        x0 = np.array([3.0, 4.0])
        direct = agmsdr_run(f, x0, 3.0, budget=300)
        staged = two_stage_run(f, x0, f.params, budget=300, l_const=3.0)
        assert staged.method == "agmsdr"
        assert [r.f_val for r in staged.records] == [r.f_val for r in direct.records]

    def test_stage1_exit_gradient_bound(self):
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget=10**5)
        stage1 = [r for r in trace.records if r.stage == 1]
        assert stage1, "stage 1 must run when l1 > 0"
        assert stage1[-1].grad_norm <= f.params.l0 / f.params.l1
        # hand-over happened on the gap target (optimal value is known)
        assert stage1[-1].f_gap <= f.params.l0 / (5.0 * f.params.l1**2)

    def test_stage_marker_transitions_once(self):
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget=10**5)
        stages = [r.stage for r in trace.records]
        flips = sum(1 for a, b in zip(stages, stages[1:]) if a != b)
        assert flips == 1 and stages[0] == 1 and stages[-1] == 2

    def test_oracle_count_is_cumulative_across_stages(self):
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget=10**4)
        calls = [r.oracle_calls for r in trace.records]
        assert all(a <= b for a, b in zip(calls, calls[1:]))
        # strict growth at every record that did oracle work (the terminal
        # arrival row repeats the count: nothing runs after the last step)
        working = [r.oracle_calls for r in trace.records if r.ls_evals is not None or r.stage == 1]
        assert all(a < b for a, b in zip(working, working[1:]))

    def test_grad_norm_fallback_target(self):
        f = power_norm(2, 6, 1)
        hidden = Objective(
            dim=f.dim, value=f.value, gradient=f.gradient, hessian=f.hessian,
            params=f.params, name="hidden-optimum",
        )
        trace = two_stage_run(hidden, np.array([10.0, 0.0]), f.params, budget=10**4)
        stage1 = [r for r in trace.records if r.stage == 1]
        assert all(r.f_gap is None for r in trace.records)
        assert stage1[-1].grad_norm <= f.params.l0 / f.params.l1
        assert all(r.grad_norm > f.params.l0 / f.params.l1 for r in stage1[:-1])

    def test_budget_exhaustion_returns_partial_stage1(self):
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget=3)
        assert trace.termination == "BudgetExhausted"
        assert all(r.stage == 1 for r in trace.records)

    def test_two_stage_monitor_passes(self):
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget=10**5)
        rep = rate_monitor(trace, "two_stage", params=f.params, r=10.0)
        assert rep.n_failures == 0
