"""Segment search, estimate-model bookkeeping, and the two-stage procedure."""

import math

import numpy as np
import pytest

from gensmooth import agmsdr as agmsdr_mod
from gensmooth.first_order import DIVERGENCE_GUARD
from gensmooth.cli import execute_method, parse_method, parse_problem
from gensmooth.kernels import SmoothnessParams
from gensmooth.problems import Objective, _dot, exp_phi, power_norm, separable_pnorm
from gensmooth.agmsdr import (
    LS_MAX_PROBES,
    EstimateState,
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


def counting(f, calls):
    """`f` without its kernel, appending ("v" or "g", x) to `calls` per call."""
    def value(x):
        calls.append(("v", x))
        return f.value(x)

    def gradient(x):
        calls.append(("g", x))
        return f.gradient(x)

    return Objective(dim=f.dim, value=value, gradient=gradient, f_star=f.f_star,
                     x_star=f.x_star, params=f.params, name=f.name)


def array_search(f, v, x, f_x):
    """segment_line_search's x-first order on numpy arrays: (y, f_y, grad_y)."""
    direction = x - v
    grad_x = f.gradient(x)
    if _dot(grad_x, direction) <= 0.0:
        return x, f_x, grad_x
    f_v, grad_v = f.value(v), f.gradient(v)
    if f_v <= f_x:
        return v, f_v, grad_v
    lo, hi = 0.0, 1.0
    for _ in range(LS_MAX_PROBES):
        beta = 0.5 * (lo + hi)
        y = v + beta * direction
        f_y, grad_y = f.value(y), f.gradient(y)
        if not math.isfinite(f_y) or f_y > f_x:
            lo = beta
        elif _dot(grad_y, direction) > 0.0:
            hi = beta
        else:
            return y, f_y, grad_y
    return x, f_x, grad_x


class TestSegmentLineSearch:
    def test_minimum_at_far_endpoint(self):
        f = quadratic()
        res = segment_line_search(f, [2.0, 0.0], [0.0, 0.0], 0.0)
        assert res.f_y <= 1e-12
        np.testing.assert_allclose(res.y, np.zeros(2), atol=1e-9)

    @pytest.mark.parametrize("f, scale", [
        (power_norm(2, 4, 1), 3.0),
        (separable_pnorm(3, 4, 1), 3.0),
        (exp_phi(2, SmoothnessParams(1.0, 1.0)), 5.0),
    ], ids=["power_norm", "separable_pnorm", "exp_phi"])
    def test_relaxation_conditions_on_seeded_segments(self, f, scale):
        """f(y) <= f(x) and <grad f(y), v - y> >= 0, with y on [v, x] and
        the returned value and gradient those of the oracle at y, in either
        probe order; each order meets all three ways to end."""
        for v_first in (False, True):
            rng = np.random.default_rng(17)
            probes = set()
            for _ in range(200):
                vs = rng.uniform(-scale, scale, size=f.dim).tolist()
                xs = rng.uniform(-scale, scale, size=f.dim).tolist()
                v, x = np.array(vs), np.array(xs)
                f_x = f.value(x)
                res = segment_line_search(f, vs, xs, f_x, v_first)
                probes.add("x" if res.y is xs else "v" if res.y is vs else "bisection")
                y, grad_y = np.array(res.y), np.array(res.grad_y)
                assert res.f_y <= f_x
                slack = 1e-12 * float(np.linalg.norm(grad_y) * np.linalg.norm(x - v))
                assert float(grad_y @ (v - y)) >= -slack
                beta = float((y - v) @ (x - v)) / float((x - v) @ (x - v))
                np.testing.assert_allclose(y, v + beta * (x - v), rtol=0,
                                           atol=1e-12 * scale)
                assert -1e-15 <= beta <= 1.0 + 1e-15
                assert res.f_y == f.value(y)
                np.testing.assert_array_equal(grad_y, f.gradient(y))
            assert probes == {"x", "v", "bisection"}, v_first

    def test_eval_budget_respected(self):
        f = power_norm(2, 4, 1)
        x = [-1.5, 2.5]
        res = segment_line_search(f, [2.0, -1.0], x, f.value(np.array(x)))
        assert 0 < res.evals <= 2 + 2 * LS_MAX_PROBES

    def test_probe_one_short_circuits(self):
        """<grad f(x), x - v> <= 0 keeps y = x at the cost of one gradient."""
        calls = []
        f = counting(quadratic(), calls)
        x = [1.0, 0.0]
        res = segment_line_search(f, [2.0, 1.0], x, 0.5)
        assert [kind for kind, _ in calls] == ["g"] and res.evals == 0
        assert res.y is x and res.f_y == 0.5
        np.testing.assert_array_equal(res.grad_y, x)

    def test_probe_two_short_circuits(self):
        """f(v) <= f(x) takes y = v after one floats call at v."""
        calls = []
        f = counting(quadratic(), calls)
        v = [-1.0, 0.0]
        res = segment_line_search(f, v, [1.0, 0.0], 0.5)
        assert [kind for kind, _ in calls] == ["g", "v", "g"] and res.evals == 2
        np.testing.assert_array_equal(res.y, v)
        np.testing.assert_array_equal(res.grad_y, v)

    def test_v_first_takes_v_after_one_floats_call(self):
        calls = []
        f = counting(quadratic(), calls)
        v = [-1.0, 0.0]
        res = segment_line_search(f, v, [1.0, 0.0], 0.5, v_first=True)
        assert [kind for kind, _ in calls] == ["v", "g"] and res.evals == 1
        assert res.y is v and res.f_y == 0.5
        np.testing.assert_array_equal(res.grad_y, v)

    def test_v_first_falls_back_to_x(self):
        """f(v) > f(x) costs the value and gradient at v, then x's test."""
        calls = []
        f = counting(quadratic(), calls)
        x = [1.0, 0.0]
        res = segment_line_search(f, [2.0, 1.0], x, 0.5, v_first=True)
        assert [kind for kind, _ in calls] == ["v", "g", "g"] and res.evals == 2
        assert res.y is x and res.f_y == 0.5
        np.testing.assert_array_equal(res.grad_y, x)

    def test_v_first_bisection_counts_every_call_but_one(self):
        """Both endpoint probes fail: bisection as in the x-first order, and
        `evals` counts all calls but the gradient at the returned y."""
        f = power_norm(2, 4, 1)
        calls = []
        v, x = [2.0, -1.0], [-1.5, 0.5]
        f_x = f.value(np.array(x))
        res = segment_line_search(counting(f, calls), v, x, f_x, v_first=True)
        assert [kind for kind, _ in calls[:3]] == ["v", "g", "g"]
        assert res.y is not x and res.y is not v
        assert res.evals == len(calls) - 1 > 2
        x_first = segment_line_search(f, v, x, f_x)
        np.testing.assert_array_equal(res.y, x_first.y)
        assert res.evals == x_first.evals

    def test_degenerate_segment_short_circuits(self):
        f = quadratic()
        x = [1.0, 1.0]
        res = segment_line_search(f, x, x, f.value(np.array(x)))
        assert res.evals == 0
        np.testing.assert_array_equal(res.y, x)

    def test_known_endpoint_values_save_calls(self):
        """The caller's f(x) is used, not evaluated again, and `evals`
        counts every call but the gradient at the returned point."""
        f = power_norm(2, 4, 1)
        calls = []
        v, x = [2.0, -1.0], [-1.5, 0.5]
        res = segment_line_search(counting(f, calls), v, x, f.value(np.array(x)))
        assert res.evals > 2  # the search bisected
        assert res.evals == len(calls) - 1
        assert not any(kind == "v" and np.array_equal(p, x) for kind, p in calls)

    def test_inf_probe_rejected(self):
        """A non-finite value moves the bracket toward x instead of raising."""
        spiky = Objective(
            dim=1,
            value=lambda x: math.inf if 0.4 < x[0] < 0.6 else float((x[0] - 0.8) ** 2),
            gradient=lambda x: 2 * (x - 0.8),
            name="spiky",
        )
        res = segment_line_search(spiky, [0.0], [1.0], 0.04)
        assert res.y[0] == 0.75 and res.f_y == pytest.approx(0.0025)
        assert res.evals == 2 + 2 * 2  # beta = 0.5 rejected, 0.75 accepted

    def test_gives_up_after_max_probes(self):
        """Every point of [v, x) off the cliff x stands on is rejected, so
        the search spends all LS_MAX_PROBES probes and settles for x."""
        cliff = Objective(dim=1, value=lambda y: 0.0 if y[0] >= 1.0 else math.inf,
                          gradient=lambda y: np.ones(1), name="cliff")
        calls = []
        x = [1.0]
        res = segment_line_search(counting(cliff, calls), [0.0], x, 0.0)
        assert res.y is x and res.f_y == 0.0 and res.grad_y == [1.0]
        assert res.evals == 2 + 2 * LS_MAX_PROBES
        assert len(calls) == res.evals + 1  # the gradient at x is not counted

    def test_overflow_error_propagates(self):
        f = exp_phi(2, SmoothnessParams(1.0, 1.0))
        x = [1.0, 0.0]
        with pytest.raises(OverflowError):
            segment_line_search(f, [-800.0, 0.0], x, f.value(np.array(x)))

    @pytest.mark.parametrize("dim", [2, 9, 30])
    def test_list_points_match_the_array_formulas(self, dim):
        """On seeded segments every search ends where the same search on
        numpy arrays ends, with the same value and gradient, bit for bit;
        the bisection among them."""
        rng = np.random.default_rng(dim)
        bisected = 0
        for f in (power_norm(dim, 4, 1), separable_pnorm(dim, 4, 1)):
            for _ in range(50):
                v, x = rng.uniform(-3.0, 3.0, size=(2, dim))
                f_x = f.value(x)
                res = segment_line_search(f, v.tolist(), x.tolist(), f_x)
                y, f_y, grad_y = array_search(f, v, x, f_x)
                assert res.y == y.tolist() and res.f_y == f_y
                assert res.grad_y == grad_y.tolist()
                bisected += res.evals > 2
        assert bisected > 0


class TestEstimateState:
    def test_initial_state(self):
        s = EstimateState(x0=[1.0, 2.0])
        assert s.a_capital == 0.0
        assert s.zeta_star_lower == 0.0
        np.testing.assert_array_equal(s.minimizer, [1.0, 2.0])

    def test_minimizer_is_model_stationary_point(self):
        """The tracked minimizer zeroes the model gradient exactly."""
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(3)
        s = EstimateState(x0=x0.tolist())
        ys, grads, avals = [], [], []
        for _ in range(6):
            y = rng.standard_normal(3)
            gy = rng.standard_normal(3)
            a = rng.uniform(0.1, 2.0)
            s.accumulate(a, y.tolist(), float(rng.random()), gy.tolist())
            ys.append(y)
            grads.append(gy)
            avals.append(a)
        v = np.array(s.minimizer)
        model_grad = (v - x0) + sum(a * g for a, g in zip(avals, grads))
        np.testing.assert_allclose(model_grad, np.zeros(3), atol=1e-10)

    def test_model_minimum_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(2)
        s = EstimateState(x0=x0.tolist())
        terms = []
        for _ in range(4):
            y = rng.standard_normal(2)
            gy = rng.standard_normal(2)
            fy = float(rng.random())
            a = rng.uniform(0.1, 2.0)
            s.accumulate(a, y.tolist(), fy, gy.tolist())
            terms.append((a, y, fy, gy))

        def zeta(x):
            total = 0.5 * float((x - x0) @ (x - x0))
            for a, y, fy, gy in terms:
                total += a * (fy + float(gy @ (x - y)))
            return total

        assert s.zeta_star_lower == pytest.approx(zeta(np.array(s.minimizer)), abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 30])
    def test_list_state_matches_the_array_formulas(self, dim):
        """The accumulated term, the minimizer and the model minimum on
        lists are the array formulas' bits on seeded data, below 8 entries
        (one pass, `_dot`'s loop inline) and from 8 on (`_dot` itself)."""
        rng = np.random.default_rng(dim)
        x0 = rng.standard_normal(dim)
        s = EstimateState(x0=x0.tolist())
        lin_accum, affine_accum = np.zeros(dim), 0.0
        for _ in range(8):
            y, gy = rng.standard_normal((2, dim))
            fy, a = float(rng.random()), rng.uniform(0.1, 2.0)
            s.accumulate(a, y.tolist(), fy, gy.tolist())
            lin_accum = lin_accum + a * gy
            affine_accum += a * (fy - _dot(gy, y))
            assert s.lin_accum == lin_accum.tolist()
            assert s.minimizer == (x0 - lin_accum).tolist()
            minimum = _dot(lin_accum, x0) - 0.5 * _dot(lin_accum, lin_accum) + affine_accum
            assert s.zeta_star_lower == minimum


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

    def test_oracle_calls_equal_the_calls_made(self):
        """Every value and gradient call, the search's included, counts once."""
        f = separable_pnorm(3, 4, 1)
        x0 = np.random.default_rng(0).standard_normal(3)
        calls = []
        trace = agmsdr_run(counting(f, calls), 10.0 * x0 / np.linalg.norm(x0), None, 2000)
        assert max(trace.ls_evals) > 2  # some iterations bisected
        assert trace.oracle_calls[-1] == len(calls)

    def test_stationary_start_stops_after_one_iteration(self):
        """At the optimum the search keeps y = x, the gradient is 0 and
        x_{k+1} = y: one iteration of three calls, then StationaryExact."""
        f = power_norm(2, 4, 1)
        trace = agmsdr_run(f, np.zeros(2), None, 50)
        assert trace.termination == "StationaryExact"
        assert len(trace) == 2 and trace.oracle_calls.tolist() == [3, 3]
        assert type(trace.final_x) is np.ndarray and trace.final_x.dtype == np.float64
        np.testing.assert_array_equal(trace.final_x, f.x_star)

    @pytest.mark.filterwarnings("error")  # inf * 0 in the first slope test warns nothing
    def test_non_finite_gradient_ends_diverged(self):
        f = Objective(dim=1, value=lambda x: float(x @ x), gradient=lambda x: np.full(1, np.inf),
                      params=SmoothnessParams(1.0, 0.0), name="inf-gradient")
        trace = agmsdr_run(f, np.array([1.0]), 1.0, budget=100)
        assert trace.termination == "Diverged"
        assert len(trace) == 1 and trace.records[0].f_val == 1.0


    def test_value_above_the_guard_after_a_step_ends_diverged(self):
        """From radius 1e38 the value 2.5e151 is finite but above
        DIVERGENCE_GUARD: the run stops `Diverged` after its first step."""
        f = power_norm(2, 4, 1)
        trace = agmsdr_run(f, np.array([1e38, 0.0]), None, budget=100)
        assert trace.termination == "Diverged"
        assert len(trace) == 2
        assert math.isfinite(trace.f_val[1]) and trace.f_val[1] > DIVERGENCE_GUARD


class TestOracleLedger:
    """Counted value and gradient calls reproduce every stage-2 row's
    oracle_calls increment and its ls_evals, in either probe order."""

    @pytest.mark.parametrize("f, x0, l_const, flips_back", [
        (power_norm(2, 6, 1), [5.0, 0.0], 1024.0, False),  # fig3 R=5: v keeps winning
        # v first, both endpoints fail, bisection: back to x first
        (exp_phi(3, SmoothnessParams(1.0, 1.0)), [3.0, -4.0, 5.0], 1.0, True),
    ], ids=["fig3", "exp_phi"])
    def test_rows_match_counted_calls(self, monkeypatch, f, x0, l_const, flips_back):
        calls, searches = [], []
        counted = counting(f, calls)  # no kernel: a floats call is a value and a gradient call
        search = agmsdr_mod.segment_line_search

        def logged(f, v, x, f_x, v_first):
            before = len(calls)
            res = search(f, v, x, f_x, v_first)
            searches.append((v_first, before, len(calls), res.y is v))
            return res

        monkeypatch.setattr(agmsdr_mod, "segment_line_search", logged)
        trace = two_stage_run(counted, np.array(x0), f.params, 3000, l_const=l_const)
        stage2 = trace.stage == 2
        iters = stage2 & ~np.isnan(trace.f_y)
        assert iters.sum() == len(searches) and stage2.sum() == len(searches) + 1
        # a row holds the count after its iteration; the closing row repeats
        # it, and the first pays for the value at the hand-over point too
        ends = [before for _, before, _, _ in searches[1:]] + [len(calls)]
        charged = np.diff(trace.oracle_calls[np.flatnonzero(stage2)[0] - 1:])
        np.testing.assert_array_equal(
            charged, [1 + ends[0] - searches[0][1], *np.diff(ends), 0])
        np.testing.assert_array_equal(trace.ls_evals[iters],
                                      [after - before - 1 for _, before, after, _ in searches])
        orders = [v_first for v_first, *_ in searches]
        assert orders == [False] + [v_won for *_, v_won in searches[:-1]]
        assert True in orders and False in orders
        assert any(a and not b for a, b in zip(orders, orders[1:])) == flips_back


def bench_starts(seed):
    """The seeded starts of the benchmark's accelerated mix: three per entry,
    uniform on the sphere of the entry's radius, drawn in entry order."""
    rng = np.random.default_rng(seed)
    starts = []
    for dim, radius in [(2, 5.0), (2, 100.0), (2, 500.0), (2, 10.0), (3, 10.0), (2, 10.0),
                        (3, 10.0), (2, 10.0)]:
        for _ in range(3):
            v = rng.standard_normal(dim)
            starts.append(radius * v / np.linalg.norm(v))
    return starts


class TestPlainAgmsdrOutsideItsRegion:
    """The default l = 3*l0 holds only where ||grad|| <= l0/l1; plain
    `agmsdr:` from R=10 leaves that region on these two objectives."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exp_phi_overflows(self, seed):
        f = parse_problem("exp_phi:d=2,l0=1,l1=1")
        for x0 in bench_starts(seed)[21:24]:
            with pytest.raises(OverflowError):
                execute_method(f, parse_method("agmsdr:"), x0, 20000, 0.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_separable_pnorm_fails_rate_accelerated(self, seed):
        f = parse_problem("separable_pnorm:d=3,p=4,l1=1")
        for x0 in bench_starts(seed)[18:21]:
            trace = execute_method(f, parse_method("agmsdr:"), x0, 20000, 0.0)
            rep = rate_monitor(trace, "accelerated", l_const=3.0 * f.params.l0,
                               r=float(np.linalg.norm(x0 - f.x_star)))
            assert rep.n_failures > 0 and not rep.informational


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

    @pytest.mark.parametrize("budget", [13, 14, 15])
    def test_hand_over_stays_within_budget(self, budget):
        """From 10*e1 stage 1 meets its target on its 14th call: with no
        call left it ends there, out of budget, instead of charging the
        accelerated stage's first value."""
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget)
        assert trace.oracle_calls[-1] <= budget
        assert trace.termination == "BudgetExhausted"
        if budget == 14:
            assert len(trace) == 14 and (trace.stage == 1).all()

    def test_stops_at_an_exactly_stationary_start(self):
        """Stage 1 ends StationaryExact at the optimum, short of a hand-over."""
        f = power_norm(2, 4, 1)
        trace = two_stage_run(f, np.zeros(2), f.params, budget=10)
        assert trace.termination == "StationaryExact"
        assert trace.method == "two_stage"
        assert [(r.stage, r.oracle_calls) for r in trace.records] == [(1, 1)]

    def test_two_stage_monitor_passes(self):
        f = power_norm(2, 6, 1)
        trace = two_stage_run(f, np.array([10.0, 0.0]), f.params, budget=10**5)
        rep = rate_monitor(trace, "two_stage", params=f.params, r=10.0)
        assert rep.n_failures == 0


EPS_GRID = (1e-1, 1e-2, 1e-3)
# Oracle calls to the first gap <= eps in EPS_GRID of `two_stage` from R*e1
# with the search probing x_k first at every iteration, the order before it
# followed the previous winner; fig3's rows use its l = 4*l0 = 1024.
X_FIRST_CALLS_TO_EPS = [
    ("power_norm:d=2,p=6,l1=1", "two_stage:l=1024", 5.0, (121, 293, 665)),
    ("power_norm:d=2,p=6,l1=1", "two_stage:l=1024", 100.0, (266, 438, 810)),
    ("power_norm:d=2,p=6,l1=1", "two_stage:l=1024", 500.0, (866, 1038, 1410)),
    ("power_norm:d=2,p=4,l1=1", "two_stage:", 10.0, (24, 36, 68)),
    ("power_norm:d=2,p=8,l1=1", "two_stage:", 10.0, (1315, 3135, 7455)),
    ("separable_pnorm:d=3,p=6,l1=1", "two_stage:", 10.0, (123, 271, 599)),
    ("exp_phi:d=3,l0=1,l1=1", "two_stage:", 10.0, (21, 23, 23)),
]


def calls_to_eps(problem, method, radius, budget=10**4):
    """The oracle count of the first row with gap <= eps, per eps in
    EPS_GRID (None if the run never gets there), from radius*e1."""
    f = parse_problem(problem)
    x0 = np.zeros(f.dim)
    x0[0] = radius
    trace = execute_method(f, parse_method(method), x0, budget, 0.0)
    gap = trace.f_val - f.f_star
    return [int(trace.oracle_calls[np.argmax(gap <= eps)]) if (gap <= eps).any() else None
            for eps in EPS_GRID]


@pytest.mark.parametrize("problem, method, radius, x_first", X_FIRST_CALLS_TO_EPS,
                         ids=[f"{p.split(':')[0]}-{p.split(',')[1]}-R{r:g}"
                              for p, _, r, _ in X_FIRST_CALLS_TO_EPS])
def test_calls_to_eps_never_above_x_first(problem, method, radius, x_first):
    got = calls_to_eps(problem, method, radius)
    assert None not in got
    assert all(a <= b for a, b in zip(got, x_first)), (got, x_first)
