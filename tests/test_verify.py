"""The verification layer itself: oracles, samplers, monitors, controls.

Positive cases must report zero failures; the deliberately broken inputs
(corrupted gradient, halved curvature floor, understated constants) must
be caught, otherwise the layer proves nothing.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gensmooth.kernels import SmoothnessParams, phi, phi_star
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
)
from gensmooth.first_order import StepRule, gd_run, ngd_run
from gensmooth.agmsdr import two_stage_run
from gensmooth.verify import (
    CheckReport,
    _case_min,
    _Margins,
    _sample_pairs,
    check_convex_lower_bounds,
    check_smoothness_envelopes,
    conjugate_grid_consistency,
    fd_gradient_check,
    kernel_bound_checks,
    merge_reports,
    rate_monitor,
    serialize_reports,
    support_distance,
)

SHIPPED = [
    power_norm(2, 4, 1),
    power_norm(2, 6, 1),
    power_norm(2, 8, 1),
    logistic_1d(0.5),
    affine_logistic(np.array([3.0, 0.0]), 0.0, 1.0),
    exp_phi(2, SmoothnessParams(1.0, 1.0)),
    separable_pnorm(3, 4, 1.0),
]


class TestFdGradientCheck:
    def test_shipped_objectives_pass(self):
        for f in SHIPPED:
            report = fd_gradient_check(f, n_points=100, seed=1)
            assert report.n_failures == 0, f.name

    def test_affine_function_is_exact(self):
        slope = np.array([1.0, -2.0])
        f = Objective(
            dim=2,
            value=lambda x: float(slope @ x),
            gradient=lambda x: slope.copy(),
            name="affine",
        )
        report = fd_gradient_check(f, n_points=50, seed=1, rel_tol=1e-9)
        assert report.n_failures == 0

    def test_corrupted_gradient_is_caught(self):
        f = power_norm(2, 4, 1)
        broken = Objective(
            dim=2,
            value=f.value,
            gradient=lambda x: f.gradient(x) + np.array([0.01, 0.0]),
            name="corrupted",
        )
        report = fd_gradient_check(broken, n_points=50, seed=1)
        assert report.n_failures > 0


class TestSmoothnessEnvelopes:
    @pytest.mark.parametrize("f", SHIPPED, ids=lambda f: f.name)
    def test_shipped_objectives_pass(self, f):
        report = check_smoothness_envelopes(f, f.params, n_pairs=1000, seed=1)
        assert report.n_failures == 0
        assert report.worst_margin >= -1e-9

    def test_coincident_pair_has_zero_slack(self):
        f = power_norm(2, 4, 1)
        p = f.params
        x = np.array([1.0, 2.0])
        g = float(np.linalg.norm(f.gradient(x)))
        a = p.l0 + p.l1 * g
        # both sides vanish at separation zero
        assert a * math.expm1(0.0) == 0.0

    def test_halved_floor_is_caught(self):
        f = power_norm(2, 4, 1)
        halved = SmoothnessParams(f.params.l0 / 2.0, f.params.l1)
        report = check_smoothness_envelopes(f, halved, n_pairs=1000, seed=1, radius=3.0)
        assert report.n_failures > 0
        assert report.worst_margin < -1e-9


class TestConvexLowerBounds:
    @pytest.mark.parametrize("f", SHIPPED, ids=lambda f: f.name)
    def test_shipped_objectives_pass(self, f):
        report = check_convex_lower_bounds(f, f.params, n_pairs=1000, seed=1)
        assert report.n_failures == 0

    def test_l1_zero_limit_branch(self):
        report = check_convex_lower_bounds(
            logistic_1d(0.0), SmoothnessParams(0.25, 0.0), n_pairs=500, seed=2
        )
        assert report.n_failures == 0

    def test_halved_floor_is_caught(self):
        f = power_norm(2, 4, 1)
        halved = SmoothnessParams(f.params.l0 / 2.0, f.params.l1)
        report = check_convex_lower_bounds(f, halved, n_pairs=1000, seed=1, radius=3.0)
        assert report.n_failures > 0

    def test_rejects_nonconvex_flag(self):
        f = power_norm(2, 4, 1)
        bumpy = Objective(
            dim=2, value=f.value, gradient=f.gradient, params=f.params,
            convex=False, name="bumpy",
        )
        with pytest.raises(ValueError):
            check_convex_lower_bounds(bumpy, f.params)


class TestSupportDistance:
    def test_quadratic_distance(self):
        f = Objective(
            dim=2,
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x.copy(),
            name="quad",
        )
        assert support_distance(f, np.array([3.0, 0.0]), np.zeros(2)) == 3.0

    def test_negative_inner_product_clamps_to_zero(self):
        f = Objective(
            dim=2,
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x.copy(),
            name="quad",
        )
        # "optimum" placed beyond x flips the inner product's sign
        assert support_distance(f, np.array([1.0, 0.0]), np.array([5.0, 0.0])) == 0.0

    def test_rejects_stationary_point(self):
        f = power_norm(2, 4, 1)
        with pytest.raises(ValueError):
            support_distance(f, np.zeros(2), np.zeros(2))

    def test_gap_bounded_by_ball_maximum(self):
        """f(x) - f(x*) never exceeds the max of f over the ball of radius
        v around x*, scanned on a dense grid (1-D logistic)."""
        f = logistic_1d(0.5)
        x_star = np.array([-12.0])  # far-left stand-in for the infimum
        for x0 in (0.5, 1.0, 2.5):
            x = np.array([x0])
            v = support_distance(f, x, x_star)
            grid = np.linspace(x_star[0] - v, x_star[0] + v, 20001)
            ball_max = max(f.value(np.array([z])) for z in grid)
            assert f.value(x) - f.value(x_star) <= ball_max - f.value(x_star) + 1e-12


class TestKernelGridChecks:
    def test_all_grids_pass(self):
        for report in kernel_bound_checks(n_grid=10**4):
            assert report.n_failures == 0
            assert report.worst_margin >= -1e-12

    def test_conjugate_grid_consistency(self):
        report = conjugate_grid_consistency(n_samples=50, seed=3)
        assert report.n_failures == 0


class TestRateMonitors:
    def setup_method(self):
        self.f = power_norm(2, 4, 1)
        self.x0 = np.array([10.0, 0.0])
        self.r = 10.0
        self.f0 = self.f.value(self.x0)

    def test_min_grad_on_simplified_rule(self):
        trace = gd_run(self.f, StepRule(variant="simplified", params=self.f.params),
                       self.x0, 3000)
        report = rate_monitor(trace, "min_grad", params=self.f.params, f0=self.f0)
        assert report.n_failures == 0

    def test_convex_gap_on_both_rules(self):
        for variant in ("optimal", "simplified"):
            trace = gd_run(self.f, StepRule(variant=variant, params=self.f.params),
                           self.x0, 5000)
            report = rate_monitor(trace, "convex_gap", params=self.f.params, r=self.r)
            assert report.n_failures == 0
            assert not report.informational

    def test_convex_gap_informational_for_clipped(self):
        trace = gd_run(self.f, StepRule(variant="clipped", params=self.f.params),
                       self.x0, 2000)
        report = rate_monitor(trace, "convex_gap", params=self.f.params, r=self.r)
        assert report.informational

    def test_polyak_contraction_and_gap(self):
        trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 4000)
        report = rate_monitor(trace, "polyak", params=self.f.params, r=self.r)
        assert report.n_failures == 0

    def test_normalized_fixed_horizon(self):
        trace = ngd_run(self.f, self.r, "fixed", self.x0, 10**4, horizon=1000)
        report = rate_monitor(trace, "normalized", params=self.f.params,
                              r=self.r, r_hat=self.r)
        assert report.n_failures == 0

    def test_normalized_decay_is_informational(self):
        trace = ngd_run(self.f, self.r, "sqrt", self.x0, 500)
        report = rate_monitor(trace, "normalized", params=self.f.params,
                              r=self.r, r_hat=self.r)
        assert report.informational

    def test_two_stage_monitor(self):
        f6 = power_norm(2, 6, 1)
        trace = two_stage_run(f6, self.x0, f6.params, budget=10**5)
        report = rate_monitor(trace, "two_stage", params=f6.params, r=self.r)
        assert report.n_failures == 0

    def test_accelerated_progress_contract(self):
        """Per-step progress must reach g^2/(2L); a too-small L is flagged."""
        f6 = power_norm(2, 6, 1)
        trace = two_stage_run(f6, self.x0, f6.params, budget=10**4)
        stage2_local = [r for r in trace.records if r.stage == 2]
        for rec, nxt in zip(stage2_local, stage2_local[1:]):
            if rec.f_y is not None:
                assert rec.f_y - nxt.f_val >= rec.grad_norm**2 / (6.0 * f6.params.l0) - 1e-9

    def test_accelerated_flags_unsupported_scaling(self):
        from gensmooth.agmsdr import agmsdr_run
        from gensmooth.problems import Objective

        quad = Objective(
            dim=2, value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x.copy(),
            f_star=0.0, x_star=np.zeros(2), params=SmoothnessParams(1.0, 0.0),
            name="quad",
        )
        trace = agmsdr_run(quad, np.array([3.0, 4.0]), 1.0, budget=100)
        # demanding progress for a much smaller scaling constant must fail
        rep = rate_monitor(trace, "accelerated", l_const=0.4, r=5.0)
        assert rep.n_failures > 0

    def test_unknown_bound_rejected(self):
        trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 10)
        with pytest.raises(ValueError):
            rate_monitor(trace, "no_such_bound")

    def test_missing_metadata_rejected(self):
        trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 10)
        with pytest.raises(ValueError):
            rate_monitor(trace, "min_grad")

    def test_wrong_trace_kind_rejected(self):
        gd_trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 10)
        with pytest.raises(ValueError, match="accelerated-method trace"):
            rate_monitor(gd_trace, "accelerated", l_const=1.0, r=1.0)
        hidden = Objective(dim=2, value=self.f.value, gradient=self.f.gradient,
                           params=self.f.params, name="hidden")
        trace = ngd_run(hidden, 10.0, "fixed", self.x0, 10**3, horizon=50)
        with pytest.raises(ValueError, match="support distances"):
            rate_monitor(trace, "normalized", params=self.f.params, r=10.0, r_hat=10.0)


class TestReports:
    def test_determinism(self):
        f = power_norm(2, 4, 1)
        a = check_smoothness_envelopes(f, f.params, n_pairs=200, seed=42)
        b = check_smoothness_envelopes(f, f.params, n_pairs=200, seed=42)
        assert a.line() == b.line()
        assert a.worst_case_input == b.worst_case_input

    def test_line_format(self):
        rep = CheckReport("demo", 10, 1, -0.5, seed=3)
        assert rep.line() == "demo\t10\t1\t-0.5\t3"

    def test_serialize_round(self):
        reps = [CheckReport("a", 1, 0, 0.25), CheckReport("b", 2, 1, -1.0)]
        text = serialize_reports(reps)
        assert text.count("\n") == 2
        assert text.splitlines()[1].startswith("b\t2\t1\t")

    def test_merge_takes_min_margin_and_sums(self):
        reps = [
            CheckReport("x", 5, 0, 0.5, worst_case_input="p"),
            CheckReport("x", 7, 2, -0.25, worst_case_input="q"),
        ]
        merged = merge_reports(reps)
        assert merged.n_cases == 12
        assert merged.n_failures == 2
        assert merged.worst_margin == -0.25
        assert merged.worst_case_input == "q"

    def test_merge_takes_first_nan_margin(self):
        reps = [
            CheckReport("x", 5, 0, 0.5, worst_case_input="p"),
            CheckReport("x", 7, 2, math.nan, worst_case_input="q"),
            CheckReport("x", 3, 3, -9.0, worst_case_input="r"),
            CheckReport("x", 2, 2, math.nan, worst_case_input="s"),
        ]
        merged = merge_reports(reps)
        assert merged.line() == "x\t17\t7\tnan\t0"
        assert merged.worst_case_input == "q"

    def test_failures_iff_margin_below_tolerance(self):
        rep = CheckReport("demo", 4, 0, 5e-10)
        assert rep.passed


class TestNanMargins:
    def test_first_nan_margin_is_the_worst(self):
        margins = [-1.0, math.nan, -5.0, math.nan]
        one_by_one, batched = _Margins(tol=0.0), _Margins(tol=0.0)
        for i, m in enumerate(margins):
            one_by_one.add(m, f"case {i}")
        batched.add_all(np.array(margins), lambda i: f"case {i}")
        for rep in (one_by_one.report("demo"), batched.report("demo")):
            assert rep.line() == "demo\t4\t4\tnan\t0"
            assert rep.worst_case_input == "case 1"

    @pytest.mark.parametrize("check", [check_smoothness_envelopes, check_convex_lower_bounds])
    def test_nan_valued_objective_fails(self, check):
        """A NaN in any component of a case makes its margin NaN: every
        case fails, and the report names the first."""
        f = power_norm(2, 4, 1)
        nan_valued = replace(f, value=lambda x: math.nan)
        rep = check(nan_valued, f.params, n_pairs=200, seed=0)
        assert rep.line().split("\t")[1:4] == ["200", "200", "nan"]
        xs, ys = _sample_pairs(np.random.default_rng(0), 2, 200, 2.0, 5.0)
        assert rep.worst_case_input == f"x={xs[0].tolist()} y={ys[0].tolist()}"

    def test_case_min_keeps_pythons_tie_rule(self):
        """On a tie the earlier margin wins, so 0 then -0 prints 0."""
        first = np.array([0.0, -0.0, 1.0, math.nan, 2.0])
        second = np.array([-0.0, 0.0, 1.0, 3.0, math.nan])
        got = _case_min(first, second)
        want = [min(a, b) for a, b in zip(first.tolist(), second.tolist())]
        assert [format(v, "g") for v in got[:3]] == [format(v, "g") for v in want[:3]]
        assert np.isnan(got[3:]).all()


# The per-case loops that the batched samplers and the certifier replaced,
# kept as the reference they must match bit for bit.  They differ only on
# NaN margins, which the loops let pass.

def _ref_fd_gradient_check(f, n_points, seed, rel_tol=1e-5, radius=5.0):
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, f.dim, radius, n_points)
    margins = _Margins(tol=0.0)
    for x in points:
        h = 1e-6 * (1.0 + float(_norm(x)))
        fd = np.empty(f.dim)
        for j in range(f.dim):
            e = np.zeros(f.dim)
            e[j] = h
            fd[j] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
        grad = f.gradient(x)
        err = float(_norm(fd - grad)) / (1.0 + float(_norm(grad)))
        margins.add(rel_tol - err, f"x={x.tolist()}")
    return margins.report(f"fd_gradient[{f.name}]", seed=seed)


def _ref_envelopes(f, p, n_pairs, seed, max_sep=2.0, radius=5.0, tol=1e-9):
    rng = np.random.default_rng(seed)
    xs, ys = _sample_pairs(rng, f.dim, n_pairs, max_sep, radius)
    margins = _Margins(tol=tol)
    for x, y in zip(xs, ys):
        gx = f.gradient(x)
        gy = f.gradient(y)
        a = p.l0 + p.l1 * float(_norm(gx))
        s = float(_norm(y - x))
        if p.l1 > 0:
            grad_bound = a * math.expm1(p.l1 * s) / p.l1
            taylor_bound = a * float(phi(p.l1 * s)) / p.l1**2
        else:
            grad_bound = a * s
            taylor_bound = 0.5 * a * s * s
        m1 = grad_bound - float(_norm(gy - gx))
        m2 = taylor_bound - abs(f.value(y) - f.value(x) - float(gx @ (y - x)))
        margins.add(min(m1, m2), f"x={x.tolist()} y={y.tolist()}")
    return margins.report(f"smoothness_envelopes[{f.name}]", seed=seed)


def _ref_conjugate_term(s, a, l1):
    if a <= 0:
        return math.inf if s > 0 else 0.0
    if l1 == 0.0:
        return s * s / (2.0 * a)
    return a / l1**2 * float(phi_star(l1 * s / a))


def _ref_lower_bounds(f, p, n_pairs, seed, max_sep=2.0, radius=5.0, tol=1e-9):
    rng = np.random.default_rng(seed)
    xs, ys = _sample_pairs(rng, f.dim, n_pairs, max_sep, radius)
    margins = _Margins(tol=tol)
    for x, y in zip(xs, ys):
        gx, gy = f.gradient(x), f.gradient(y)
        a_x = p.l0 + p.l1 * float(_norm(gx))
        a_y = p.l0 + p.l1 * float(_norm(gy))
        s = float(_norm(gy - gx))
        bregman = f.value(y) - f.value(x) - float(gx @ (y - x))
        m1 = bregman - _ref_conjugate_term(s, a_y, p.l1)
        m2 = float((gx - gy) @ (x - y)) - (
            _ref_conjugate_term(s, a_y, p.l1) + _ref_conjugate_term(s, a_x, p.l1)
        )
        denom = 2.0 * a_y + p.l1 * s
        m3 = bregman - s * s / denom if denom > 0 else (0.0 if s == 0 else -math.inf)
        margins.add(min(m1, m2, m3), f"x={x.tolist()} y={y.tolist()}")
    return margins.report(f"convex_lower_bounds[{f.name}]", seed=seed)


def _ref_certify(f, params, region_radius, n_samples, seed):
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, f.dim, region_radius, n_samples)
    worst = -math.inf
    worst_point = None
    for x in points:
        h = f.hessian(x)
        h_norm = (abs(float(h[0, 0])) if h.shape[0] == 1
                  else float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        violation = h_norm - params.l0 - params.l1 * float(_norm(f.gradient(x)))
        if violation > worst:
            worst = violation
            worst_point = x.copy()
    return worst, worst_point


_SLOPE = np.array([1.0, -2.0])
# (objective, curvature pair, sampler keywords): each row hits one branch
BRANCH_CASES = {
    # accepts one point only: a batch would make float() raise
    "single_point_oracle": (
        Objective(dim=2, value=lambda x: float(_SLOPE @ x),
                  gradient=lambda x: _SLOPE.copy(), name="affine"),
        SmoothnessParams(1.0, 1.0), {}),
    "l1_zero": (logistic_1d(0.0), SmoothnessParams(0.25, 0.0), {}),
    # a = 0 everywhere, so every conjugate term takes the a <= 0 branch
    "a_zero": (
        Objective(dim=2, value=lambda x: 3.0, gradient=lambda x: np.zeros(2),
                  name="constant"),
        SmoothnessParams(0.0, 1.0), {}),
    # a_y = 0 < s where x0 > 0 >= y0: the conjugate term is inf
    "a_zero_gradient_jump": (
        Objective(dim=2, value=lambda x: 0.5 * max(x[0], 0.0) ** 2,
                  gradient=lambda x: np.array([max(x[0], 0.0), 0.0]), name="hinge"),
        SmoothnessParams(0.0, 1.0), {}),
    # y == x: every margin is a signed zero and every case ties
    "coincident_pairs": (power_norm(2, 4, 1), power_norm(2, 4, 1).params, {"max_sep": 0.0}),
    "halved_floor": (power_norm(2, 4, 1), SmoothnessParams(2.0, 1.0), {"radius": 3.0}),
}


class TestBatchedMatchesLoops:
    @staticmethod
    def same(got, want):
        assert got.line() == want.line()
        assert got.worst_case_input == want.worst_case_input

    @pytest.mark.parametrize("case", BRANCH_CASES)
    def test_samplers_on_branches(self, case):
        f, p, kw = BRANCH_CASES[case]
        self.same(check_smoothness_envelopes(f, p, n_pairs=300, seed=5, **kw),
                  _ref_envelopes(f, p, n_pairs=300, seed=5, **kw))
        self.same(check_convex_lower_bounds(f, p, n_pairs=300, seed=5, **kw),
                  _ref_lower_bounds(f, p, n_pairs=300, seed=5, **kw))

    @pytest.mark.parametrize("f", SHIPPED, ids=lambda f: f.name)
    def test_shipped_objectives(self, f):
        self.same(fd_gradient_check(f, n_points=40, seed=3),
                  _ref_fd_gradient_check(f, n_points=40, seed=3))
        self.same(check_smoothness_envelopes(f, f.params, n_pairs=300, seed=3),
                  _ref_envelopes(f, f.params, n_pairs=300, seed=3))
        self.same(check_convex_lower_bounds(f, f.params, n_pairs=300, seed=3),
                  _ref_lower_bounds(f, f.params, n_pairs=300, seed=3))
        report = certify_smoothness(f, f.params, 5.0, 300, 3)
        worst, point = _ref_certify(f, f.params, 5.0, 300, 3)
        assert format(report.max_violation, ".17g") == format(worst, ".17g")
        np.testing.assert_array_equal(report.violating_point, point)

    def test_fd_gradient_single_point_oracle_and_control(self):
        f = BRANCH_CASES["single_point_oracle"][0]
        self.same(fd_gradient_check(f, n_points=50, seed=1, rel_tol=1e-9),
                  _ref_fd_gradient_check(f, n_points=50, seed=1, rel_tol=1e-9))
        g = power_norm(2, 4, 1)
        broken = replace(g, gradient=lambda x: g.gradient(x) + np.array([0.01, 0.0]))
        self.same(fd_gradient_check(broken, n_points=50, seed=1),
                  _ref_fd_gradient_check(broken, n_points=50, seed=1))

    def test_certify_understated_floor(self):
        f = logistic_1d(0.0)
        p = SmoothnessParams(0.2, 0.0)
        report = certify_smoothness(f, p, 0.001, 2000, 7)
        worst, point = _ref_certify(f, p, 0.001, 2000, 7)
        assert format(report.max_violation, ".17g") == format(worst, ".17g")
        np.testing.assert_array_equal(report.violating_point, point)
