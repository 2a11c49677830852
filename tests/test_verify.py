"""The verification layer itself: oracles, samplers, monitors, controls.

Positive cases must report zero failures; the deliberately broken inputs
(corrupted gradient, halved curvature floor, understated constants) must
be caught, otherwise the layer proves nothing.
"""

import math
import tracemalloc
from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest

from gensmooth.kernels import SmoothnessParams, phi, phi_star
from gensmooth.problems import (
    Objective,
    _norm,
    _pow,
    affine_logistic,
    certify_smoothness,
    exp_phi,
    logistic_1d,
    power_norm,
    sample_ball,
    separable_pnorm,
)
from gensmooth import first_order
from gensmooth import cli as cli_mod
from gensmooth import verify as verify_mod
from gensmooth.cli import RunConfig, run_config, run_verify_suite
from gensmooth.first_order import StepRule, Trace, gd_run, ngd_run
from gensmooth.agmsdr import agmsdr_run, two_stage_run
from gensmooth.verify import (
    MONITOR_BOUNDS,
    CheckReport,
    _case_min,
    _Margins,
    _pair_sample,
    _sample_pairs,
    check_convex_lower_bounds,
    check_smoothness_envelopes,
    conjugate_grid_consistency,
    fd_gradient_check,
    kernel_bound_checks,
    rate_monitor,
    serialize_reports,
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

    def test_memory_does_not_grow_with_points_times_dim_squared(self):
        """The 2*d probes of each point are evaluated a chunk at a time; all
        8 points' probes at once (the unchunked check) peak at 29 MB here."""
        f = power_norm(300, 4, 1)
        tracemalloc.start()
        try:
            report = fd_gradient_check(f, n_points=8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.line() == f"fd_gradient[{f.name}]\t8\t0\t9.9993567800502043e-06\t0"
        assert peak < 25e6


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


def _counting(f: Objective, calls: list) -> Objective:
    """f with every value and gradient call appended to `calls`."""
    def value(x):
        calls.append("value")
        return f.value(x)

    def gradient(x):
        calls.append("gradient")
        return f.gradient(x)

    return replace(f, value=value, gradient=gradient)


class TestSharedPairSample:
    """The envelope and lower-bound checks share the last evaluated sample."""

    @pytest.mark.parametrize("f", SHIPPED, ids=lambda f: f.name)
    def test_checks_on_a_shared_sample_call_no_oracle(self, f):
        calls = []
        counted = _counting(f, calls)
        kw = dict(n_pairs=300, max_sep=1.5, seed=4, radius=3.0)
        shared = [check_smoothness_envelopes(counted, f.params, **kw)]
        assert len(calls) == 4 * 300  # a value and a gradient at both ends
        shared.append(check_convex_lower_bounds(counted, f.params, **kw))
        assert len(calls) == 4 * 300
        own = [check_smoothness_envelopes(replace(f), f.params, **kw),
               check_convex_lower_bounds(replace(f), f.params, **kw)]
        for got, want in zip(shared, own):
            assert got.line() == want.line()
            assert got.worst_case_input == want.worst_case_input

    def test_suite_evaluates_one_sample_per_objective(self, monkeypatch):
        """Each objective's kernel sees the 2000 pair ends once, besides the
        fd-gradient check's 50 points and their 2*d probes each."""
        points, dims = {}, {}
        parse = cli_mod.parse_problem

        def counted(spec):
            f = parse(spec)
            evaluate, dims[f.name] = f.values_grads, f.dim

            def values_grads(X):
                points[f.name] = points.get(f.name, 0) + len(X)
                return evaluate(X)

            object.__setattr__(f, "values_grads", values_grads)
            return f

        monkeypatch.setattr(cli_mod, "parse_problem", counted)
        run_verify_suite(scope="lemmas", seed=0)
        assert len(points) == 7
        assert points == {name: 2000 + 50 * (1 + 2 * d) for name, d in dims.items()}

    @pytest.mark.parametrize("check", [check_smoothness_envelopes, check_convex_lower_bounds])
    @pytest.mark.parametrize("other", [
        {"copy": True},  # an objective equal in every field, but another one
        {"seed": 5}, {"radius": 4.0}, {"max_sep": 1.0}, {"n_pairs": 299},
    ], ids=["objective", "seed", "radius", "max_sep", "n_pairs"])
    def test_another_objective_or_argument_draws_a_fresh_sample(self, check, other):
        calls = []
        f = _counting(power_norm(2, 4, 1), calls)
        kw = dict(n_pairs=300, max_sep=2.0, seed=4, radius=5.0)
        check(f, f.params, **kw)
        assert len(calls) == 4 * 300
        kw.update(other)
        check(replace(f) if kw.pop("copy", False) else f, f.params, **kw)
        assert len(calls) == 4 * 300 + 4 * kw["n_pairs"]

    def test_sample_is_read_only(self):
        sample = _pair_sample(power_norm(2, 4, 1), 50, 2.0, 0, 5.0)
        assert len(sample) == 6
        for a in sample:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("seed", [1.5, np.random.default_rng(0)], ids=["float", "generator"])
    @pytest.mark.parametrize("check", [check_smoothness_envelopes, check_convex_lower_bounds,
                                       fd_gradient_check])
    def test_non_integer_seed_is_refused(self, check, seed):
        """A Generator keys the cache by identity while its state moves on,
        so it would be handed a stale sample."""
        calls = []
        f = _counting(power_norm(2, 4, 1), calls)
        args = () if check is fd_gradient_check else (f.params,)
        with pytest.raises(TypeError):
            check(f, *args, seed=seed)
        assert calls == []


BAD_SAMPLES = {"empty": (0, 5.0), "negative_count": (-3, 5.0), "zero_radius": (10, 0.0),
               "negative_radius": (10, -1.0), "nan_radius": (10, math.nan),
               "inf_radius": (10, math.inf)}


class TestEmptySampleRefused:
    """A sampler given no cases or no region raises, as certify_smoothness
    does, instead of passing vacuously; it makes no oracle call first."""

    @staticmethod
    def refused(entry, count_name, case):
        n, radius = BAD_SAMPLES[case]
        match = f"{count_name} must be at least 1" if n < 1 else "radius must be positive"
        calls = []
        f = _counting(power_norm(2, 4, 1), calls)
        with pytest.raises(ValueError, match=match):
            entry(f, n, radius)
        assert calls == []

    @pytest.mark.parametrize("case", BAD_SAMPLES)
    def test_smoothness_envelopes(self, case):
        self.refused(lambda f, n, r: check_smoothness_envelopes(f, f.params, n_pairs=n, radius=r),
                     "n_pairs", case)

    @pytest.mark.parametrize("case", BAD_SAMPLES)
    def test_convex_lower_bounds(self, case):
        self.refused(lambda f, n, r: check_convex_lower_bounds(f, f.params, n_pairs=n, radius=r),
                     "n_pairs", case)

    @pytest.mark.parametrize("case", BAD_SAMPLES)
    def test_shared_pair_sample(self, case):
        self.refused(lambda f, n, r: _pair_sample(f, n_pairs=n, radius=r), "n_pairs", case)

    @pytest.mark.parametrize("case", BAD_SAMPLES)
    def test_fd_gradient(self, case):
        self.refused(lambda f, n, r: fd_gradient_check(f, n_points=n, radius=r), "n_points", case)


class TestSupportDistance:
    """support_dist = max(<grad f(x), x - x_star>, 0) / ||grad f(x)||, as
    the support_dist column holds it for the one row of a run from x."""

    QUAD = Objective(dim=2, value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x.copy(),
                     name="quad")

    @staticmethod
    def support_at(f, x, x_star):
        f = replace(f, x_star=np.array(x_star))
        rule = StepRule("simplified", SmoothnessParams(1.0, 0.0))
        trace = gd_run(f, rule, np.array(x), budget=1)
        assert trace.present("support_dist").tolist() == [True]
        return float(trace.support_dist[0])

    def test_quadratic_distance(self):
        assert self.support_at(self.QUAD, [3.0, 0.0], [0.0, 0.0]) == 3.0

    def test_negative_inner_product_clamps_to_zero(self):
        # "optimum" placed beyond x flips the inner product's sign
        assert self.support_at(self.QUAD, [1.0, 0.0], [5.0, 0.0]) == 0.0

    def test_rejects_stationary_point(self):
        f = power_norm(2, 4, 1)  # x_star = 0; the row at 0 gets no support distance
        trace = gd_run(f, StepRule("simplified", f.params), np.zeros(2), budget=1)
        assert trace.present("support_dist").tolist() == [False]
        assert math.isnan(trace.support_dist[0])

    def test_gap_bounded_by_ball_maximum(self):
        """f(x) - f(x*) never exceeds the max of f over the ball of radius
        v around x*, scanned on a dense grid (1-D logistic)."""
        f = logistic_1d(0.5)
        x_star = np.array([-12.0])  # far-left stand-in for the infimum
        for x0 in (0.5, 1.0, 2.5):
            x = np.array([x0])
            v = self.support_at(f, x, x_star)
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

    def test_convex_gap_fails_a_short_run_under_small_constants(self):
        """Negative control: replayed with much smaller l0 and l1, every eps's
        threshold lies inside a 10-step run that reached none of them."""
        trace = gd_run(self.f, StepRule(variant="optimal", params=self.f.params), self.x0, 10)
        assert rate_monitor(trace, "convex_gap", params=self.f.params, r=self.r).n_failures == 0
        report = rate_monitor(trace, "convex_gap", params=SmoothnessParams(1e-6, 1e-3), r=self.r)
        assert report.n_failures == 3
        assert report.worst_margin == -math.inf
        assert report.worst_case_input == "eps=0.1 never reached"

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
        quad = Objective(
            dim=2, value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x.copy(),
            f_star=0.0, x_star=np.zeros(2), params=SmoothnessParams(1.0, 0.0),
            name="quad",
        )
        trace = agmsdr_run(quad, np.array([3.0, 4.0]), 1.0, budget=100)
        # demanding progress for a much smaller scaling constant must fail
        rep = rate_monitor(trace, "accelerated", l_const=0.4, r=5.0)
        assert rep.n_failures > 0

    def test_accelerated_certificate_has_its_own_tolerance(self):
        """Certificate rows fail below -1e-7, the chain rows below -tol, in
        one report."""
        trace = agmsdr_run(self.f, np.array([1.0, 0.5]), None, 50)  # ||grad|| <= l0/l1
        assert rate_monitor(trace, "accelerated", l_const=12.0, r=1.2).passed
        trace.zeta_star = trace.a_capital * trace.f_val
        trace.zeta_star[2] -= 5e-8
        trace.zeta_star[3] -= 5e-7
        rep = rate_monitor(trace, "accelerated", l_const=12.0, r=1.2)
        assert (rep.n_failures, rep.worst_case_input) == (1, "certificate k=3")
        assert -6e-7 < rep.worst_margin < -4e-7

    def test_unknown_bound_rejected(self):
        trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 10)
        with pytest.raises(ValueError):
            rate_monitor(trace, "no_such_bound")

    def test_missing_metadata_rejected(self):
        trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 10)
        with pytest.raises(ValueError):
            rate_monitor(trace, "min_grad")

    @pytest.mark.parametrize("l_const", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_l_const_rejected(self, l_const):
        """Also inf and nan: with L = inf the growth and gap bounds hold on any trace."""
        trace = agmsdr_run(self.f, np.array([1.5, -2.0]), None, 50)
        with pytest.raises(ValueError, match="l_const must be positive and finite"):
            rate_monitor(trace, "accelerated", l_const=l_const, r=1.0)

    def test_wrong_trace_kind_rejected(self):
        gd_trace = gd_run(self.f, StepRule(variant="polyak"), self.x0, 10)
        with pytest.raises(ValueError, match="accelerated-method trace"):
            rate_monitor(gd_trace, "accelerated", l_const=1.0, r=1.0)
        hidden = Objective(dim=2, value=self.f.value, gradient=self.f.gradient,
                           params=self.f.params, name="hidden")
        trace = ngd_run(hidden, 10.0, "fixed", self.x0, 10**3, horizon=50)
        with pytest.raises(ValueError, match="support distances"):
            rate_monitor(trace, "normalized", params=self.f.params, r=10.0, r_hat=10.0)


# Edge traces the rate monitors replay: (problem spec, method spec, budget),
# each from 10*e1.  A diverged run with inf and NaN rows; plain accelerated
# runs, whose closing row has no gradient norm, f(y) or search cost (the
# second is the failing bench case); a two-stage run with no known optimum,
# so no gap on any row; and the decaying normalized schedules.
EDGE_RUNS = {
    "gd_diverged": ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal,l0=1,l1=0", 100),
    "agmsdr": ("power_norm:d=2,p=4,l1=1", "agmsdr:", 2000),
    "agmsdr_failing": ("separable_pnorm:d=3,p=4,l1=1", "agmsdr:", 20000),
    "two_stage_no_gap": ("logistic:l1=0.5", "two_stage:", 2000),
    "ngd_sqrt": ("power_norm:d=2,p=4,l1=1", "ngd:r_hat=3,schedule=sqrt", 300),
    "ngd_linear": ("power_norm:d=2,p=4,l1=1", "ngd:r_hat=3,schedule=linear", 300),
}


def _gap_gone_trace():
    """Hand-built: stage 1 then stage 2, a gap missing mid-trace, a NaN
    gradient norm, and no f(y) or search cost on the stage-1 rows and the
    closing row."""
    i = np.arange(8)
    no_step = (i < 3) | (i == 7)
    cols = first_order._columns(
        8, 2, 0.0, None, {"f_y": no_step, "ls_evals": no_step},
        f_val=10.0 / (i + 1), grad_norm=np.where(i == 6, math.nan, 4.0 / (i + 1)),
        step_len=np.full(8, 0.1), oracle_calls=3 * i + 1,
        f_y=np.where(no_step, math.nan, 10.0 / (i + 1.5)), a_capital=0.05 * i * i,
        zeta_star=0.5 * i, ls_evals=np.where(no_step, 0, i))
    cols["stage"][:3] = 1
    cols["f_gap"] = np.array([5.0, 3.0, 2.5, 0.5, math.nan, 0.01, 1e-4, 2e-5])
    cols["missing"][4, first_order.OPTIONAL.index("f_gap")] = True
    return Trace(columns=cols, termination="BudgetExhausted", method="two_stage")


# (trace, bound) -> (report line, worst case input), or ("raised:<type>",
# message) where the monitor refuses the trace
_REFUSED = "raised:ValueError"
_NOT_ACCELERATED = _REFUSED, "accelerated monitor requires an accelerated-method trace"
_NO_GRAD_NORM = _REFUSED, "min_grad monitor requires gradient norms on every record"
_NO_SUPPORT = (_REFUSED,
               "normalized monitor requires recorded support distances (known x_star)")
_NO_GAP = _REFUSED, "gap monitors require a known optimal value on every record"
_NO_F0 = _REFUSED, "min_grad monitor needs params and f0"
MONITOR_GOLDEN = {
    ("gd_diverged", "min_grad"): ("rate_min_grad\t5\t0\t563.24555320336754\t0", "K=4"),
    ("gd_diverged", "convex_gap"): ("rate_convex_gap\t4\t4\t-inf\t0", "monotone gap k=3"),
    ("gd_diverged", "normalized"): ("rate_normalized_decay\t0\t0\tinf\t0", ""),
    ("gd_diverged", "polyak"): ("rate_polyak\t4\t4\t-5.8115574081463999e+161\t0", "k=3"),
    ("gd_diverged", "accelerated"): _NOT_ACCELERATED,
    ("gd_diverged", "two_stage"): ("rate_two_stage\t1\t1\t-inf\t0", "stage-1 exit gradient"),
    ("agmsdr", "min_grad"): _NO_GRAD_NORM,
    ("agmsdr", "convex_gap"):
        ("rate_convex_gap\t999\t0\t2.0032889248490243e-09\t0", "monotone gap k=995"),
    ("agmsdr", "normalized"): _NO_SUPPORT,
    ("agmsdr", "polyak"): ("rate_polyak\t999\t983\t-3638058.1846145578\t0", "k=1"),
    ("agmsdr", "accelerated"):
        ("rate_accelerated\t5977\t997\t-41065.195052279443\t0", "step progress k=0"),
    ("agmsdr", "two_stage"): ("rate_two_stage\t1996\t1\t-995.999999\t0", "stage-2 gradient k=0"),
    ("agmsdr_failing", "min_grad"): _NO_GRAD_NORM,
    ("agmsdr_failing", "convex_gap"):
        ("rate_convex_gap\t9999\t0\t1.9993241058036805e-12\t0", "monotone gap k=9995"),
    ("agmsdr_failing", "normalized"): _NO_SUPPORT,
    ("agmsdr_failing", "polyak"): ("rate_polyak\t9999\t9983\t-3638058.1846145578\t0", "k=1"),
    ("agmsdr_failing", "accelerated"):
        ("rate_accelerated\t59977\t9997\t-41065.195052279443\t0", "step progress k=0"),
    ("agmsdr_failing", "two_stage"):
        ("rate_two_stage\t19996\t1\t-995.999999\t0", "stage-2 gradient k=0"),
    ("two_stage_no_gap", "min_grad"): _NO_F0,
    ("two_stage_no_gap", "convex_gap"): _NO_GAP,
    ("two_stage_no_gap", "normalized"): _NO_SUPPORT,
    ("two_stage_no_gap", "polyak"): _NO_GAP,
    ("two_stage_no_gap", "accelerated"): _NOT_ACCELERATED,
    ("two_stage_no_gap", "two_stage"): ("rate_two_stage\t1332\t0\t0\t0", "sublevel k=11"),
    ("ngd_sqrt", "min_grad"): ("rate_min_grad\t300\t0\t33.164965809277263\t0", "K=299"),
    ("ngd_sqrt", "convex_gap"):
        ("rate_convex_gap\t302\t147\t-0.17674587120113644\t0", "monotone gap k=5"),
    ("ngd_sqrt", "normalized"): ("rate_normalized_decay\t284\t0\t0\t0", "K=16"),
    ("ngd_sqrt", "polyak"): ("rate_polyak\t302\t147\t-0.75874847693625791\t0", "k=5"),
    ("ngd_sqrt", "accelerated"): _NOT_ACCELERATED,
    ("ngd_sqrt", "two_stage"): ("rate_two_stage\t1\t0\t4\t0", "stage-1 exit gradient"),
    ("ngd_linear", "min_grad"): ("rate_min_grad\t300\t0\t33.164965809277263\t0", "K=299"),
    ("ngd_linear", "convex_gap"):
        ("rate_convex_gap\t302\t142\t-0.00010112917983709805\t0", "monotone gap k=15"),
    ("ngd_linear", "normalized"): ("rate_normalized_decay\t284\t0\t0\t0", "K=16"),
    ("ngd_linear", "polyak"): ("rate_polyak\t302\t142\t-0.018292196745735345\t0", "k=15"),
    ("ngd_linear", "accelerated"): _NOT_ACCELERATED,
    ("ngd_linear", "two_stage"):
        ("rate_two_stage\t1\t0\t3.9999999999999618\t0", "stage-1 exit gradient"),
    ("hand_gap_gone", "min_grad"): ("rate_min_grad\t8\t0\t2.4930339887498949\t0", "K=7"),
    ("hand_gap_gone", "convex_gap"): _NO_GAP,
    ("hand_gap_gone", "normalized"): _NO_SUPPORT,
    ("hand_gap_gone", "polyak"): _NO_GAP,
    ("hand_gap_gone", "accelerated"): ("rate_accelerated\t33\t8\tnan\t0", "step progress k=6"),
    ("hand_gap_gone", "two_stage"): ("rate_two_stage\t11\t2\tnan\t0", "stage-2 gradient k=6"),
}


@pytest.fixture(scope="module")
def edge_traces():
    """name -> (curvature constants, trace, r_hat) for every edge trace."""
    out = {}
    for name, (problem, spec, budget) in EDGE_RUNS.items():
        with np.errstate(all="ignore"):
            f, method, trace = run_config(RunConfig(problem, spec, radius=10.0, budget=budget))
        out[name] = (f.params, trace, method.r_hat)
    out["hand_gap_gone"] = (SmoothnessParams(1.0, 1.0), _gap_gone_trace(), None)
    return out


def _replay(params, trace, r_hat, bound):
    try:
        rep = rate_monitor(trace, bound, params=params, f0=trace.column("f_gap")[0], r=10.0,
                           r_hat=10.0 if r_hat is None else r_hat, l_const=3.0 * params.l0)
    except ValueError as exc:
        return "raised:ValueError", str(exc)
    return rep.line(), rep.worst_case_input


class TestMonitorGoldens:
    @pytest.mark.parametrize("case", MONITOR_GOLDEN, ids="-".join)
    def test_edge_trace(self, edge_traces, case):
        name, bound = case
        assert _replay(*edge_traces[name], bound) == MONITOR_GOLDEN[case]

    def test_every_bound_on_every_trace(self):
        assert set(MONITOR_GOLDEN) == {(name, bound) for name in [*EDGE_RUNS, "hand_gap_gone"]
                                       for bound in MONITOR_BOUNDS}


class TestMonitorsBuildNoRows:
    """Monitors read the trace's columns: with the row type made to raise,
    the theorem suite and every bound on every edge trace still run."""

    @pytest.fixture
    def no_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row object was built")
        monkeypatch.setattr(first_order, "IterRecord", refuse)

    def test_theorem_suite(self, no_rows):
        code, reports = run_verify_suite(scope="theorems")
        assert code == 0
        assert [r.check_name for r in reports] == [
            "rate_min_grad", "rate_convex_gap", "rate_min_grad", "rate_convex_gap",
            "rate_polyak", "rate_normalized_fixed", "rate_two_stage"]

    def test_every_bound(self, no_rows, edge_traces):
        with pytest.raises(AssertionError, match="row object"):
            edge_traces["agmsdr"][1].records[0]
        for (name, bound), want in MONITOR_GOLDEN.items():
            assert _replay(*edge_traces[name], bound) == want, (name, bound)


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


class TestOverflowMargins:
    """A check reads a finite overflow as inf, as the oracles do (`_pow`,
    `_expm1`): the overflow shows as a margin, never as an exception."""

    def test_polyak_monitor_on_a_diverged_trace(self):
        trace = gd_run(power_norm(2, 4, 1), StepRule("polyak", f_star=-1e160),
                       np.array([1.0, 0.0]), 50)
        assert (trace.termination, len(trace)) == ("Diverged", 2)
        rep = rate_monitor(trace, "polyak", params=SmoothnessParams(1.0, 1.0), r=1.0)
        assert rep.line() == "rate_polyak\t1\t1\t-inf\t0"
        assert rep.worst_case_input == "k=0"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_envelopes_past_the_growth_terms_overflow(self):
        f, p = power_norm(2, 4, 1), SmoothnessParams(1.0, 400.0)
        xs, ys = _pair_sample(f, 200, 2.0, 0, 5.0)[:2]
        assert (p.l1 * np.linalg.norm(ys - xs, axis=1) > 710.0).any()  # expm1 overflows
        rep = check_smoothness_envelopes(f, p, n_pairs=200, seed=0)
        assert rep.line().split("\t")[1:4] == ["200", "0", "0.1574098518116025"]


# The per-case loops that the batched samplers and the certifier replaced,
# kept as the reference they must match bit for bit, each dot taken in the
# library's fixed order (numpy's reduction).  They differ only on NaN
# margins, which the loops let pass.

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
        m2 = taylor_bound - abs(f.value(y) - f.value(x) - float(np.add.reduce(gx * (y - x))))
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
        bregman = f.value(y) - f.value(x) - float(np.add.reduce(gx * (y - x)))
        m1 = bregman - _ref_conjugate_term(s, a_y, p.l1)
        m2 = float(np.add.reduce((gx - gy) * (x - y))) - (
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


# The row-by-row monitors that the column monitors replaced, kept as the
# reference they must match: the same report and worst case, or a raise.
# They read the rows through `trace.records`.

def _ref_first_hit(recs, eps):
    best = math.inf
    for rec in recs:
        if rec.f_gap is None:
            return None
        best = min(best, rec.f_gap)
        if best <= eps:
            return rec
    return None


def _ref_gap_threshold(margins, recs, eps_grid, threshold, use_best):
    if any(rec.f_gap is None for rec in recs):
        raise ValueError("gap monitors require a known optimal value on every record")
    if not use_best:
        for prev, nxt in pairwise(recs):
            margins.add(prev.f_gap - nxt.f_gap, f"monotone gap k={prev.k}")
    horizon = recs[-1].k
    for eps in eps_grid:
        limit = threshold(eps)
        hit = _ref_first_hit(recs, eps)
        if hit is not None:
            margins.add(float(limit - hit.k), f"eps={eps}")
        elif horizon >= limit:
            margins.add(-math.inf, f"eps={eps} never reached")


def _ref_rate_monitor(trace, bound, params, f0, r, r_hat, l_const, tol=1e-9,
                      eps_grid=(1e-1, 1e-2, 1e-3)):
    recs = list(trace.records)
    margins = _Margins(tol=tol)
    threshold = lambda eps: max(4.0 * params.l0 * r * r / eps, 36.0 * params.l1**2 * r * r)
    if bound == "min_grad":
        if any(rec.grad_norm is None for rec in recs):
            raise ValueError("min_grad monitor requires gradient norms on every record")
        running = math.inf
        for rec in recs:
            running = min(running, rec.grad_norm)
            k1 = rec.k + 1
            limit = math.sqrt(2.0 * params.l0 * f0 / k1) + 3.0 * params.l1 * f0 / k1
            margins.add(limit - running, f"K={rec.k}")
        return margins.report("rate_min_grad")
    if bound == "convex_gap":
        _ref_gap_threshold(margins, recs, eps_grid, threshold, use_best=False)
        return margins.report("rate_convex_gap", informational=trace.method == "gd:clipped")
    if bound == "normalized":
        if all(rec.support_dist is None for rec in recs):
            raise ValueError("no support distances")
        if trace.method == "ngd:fixed":
            horizon = recs[-1].k
            v_min = min(rec.support_dist for rec in recs if rec.support_dist is not None)
            v_bound = (r * r + r_hat * r_hat) / (2.0 * r_hat * math.sqrt(horizon + 1))
            margins.add(v_bound - v_min, f"K={horizon}")
            r_bar = r * r / r_hat + r_hat
            if horizon >= (4.0 / 9.0) * params.l1**2 * r_bar**2:
                eps = params.l0 * r_bar**2 / horizon
                best_gap = min(rec.f_gap for rec in recs if rec.f_gap is not None)
                margins.add(eps - best_gap, f"gap at K={horizon}")
            return margins.report("rate_normalized_fixed")
        running, v_at = math.inf, {}
        for rec in recs:
            if rec.support_dist is not None:
                running = min(running, rec.support_dist)
            v_at[rec.k] = running
        if 16 in v_at and math.isfinite(v_at[16]):
            c = v_at[16] * math.sqrt(17.0) / math.log(17.0)
            for k, v in v_at.items():
                if k >= 16:
                    margins.add(c * math.log(k + 1) / math.sqrt(k + 1) - v, f"K={k}")
        return margins.report("rate_normalized_decay", informational=True)
    if bound == "polyak":
        for prev, nxt in pairwise(recs):
            if prev.dist_opt is None or not prev.grad_norm:
                continue
            drop = _pow(prev.f_gap / prev.grad_norm, 2)
            margins.add(_pow(prev.dist_opt, 2) - drop - _pow(nxt.dist_opt, 2), f"k={prev.k}")
        _ref_gap_threshold(margins, recs, eps_grid, threshold, use_best=True)
        return margins.report("rate_polyak")
    if bound == "accelerated":
        if recs[0].a_capital is None:
            raise ValueError("accelerated monitor requires an accelerated-method trace")
        for rec, nxt in pairwise(recs):
            if rec.f_y is not None:
                margins.add(rec.f_val - rec.f_y, f"f(y)<=f(x) at k={rec.k}")
                margins.add(rec.f_y - nxt.f_val, f"f(x+)<=f(y) at k={rec.k}")
                required = _pow(rec.grad_norm, 2) / (2.0 * l_const)
                margins.add(rec.f_y - nxt.f_val - required, f"step progress k={rec.k}")
        for rec in recs:
            if rec.k >= 1:
                margins.add(rec.a_capital - rec.k**2 / (4.0 * l_const), f"A_k growth k={rec.k}")
                if rec.f_gap is not None:
                    margins.add(2.0 * l_const * r * r / rec.k**2 - rec.f_gap,
                                f"gap bound k={rec.k}")
        for rec in recs:
            margins.add(rec.zeta_star - rec.a_capital * rec.f_val, f"certificate k={rec.k}",
                        tol=1e-7)
        return margins.report("rate_accelerated")
    stage1 = [rec for rec in recs if rec.stage == 1]
    stage2 = [rec for rec in recs if rec.stage == 2]
    if params.l1 > 0 and stage1:
        margins.add(params.l0 / params.l1 - stage1[-1].grad_norm, "stage-1 exit gradient")
    if stage2:
        for rec in stage2:
            margins.add(stage2[0].f_val - rec.f_val, f"sublevel k={rec.k}")
            if rec.grad_norm is not None and params.l1 > 0:
                margins.add(params.l0 / params.l1 + 1e-6 - rec.grad_norm,
                            f"stage-2 gradient k={rec.k}")
        ls = [rec.ls_evals for rec in stage2 if rec.ls_evals is not None]
        mbar = float(np.mean(ls)) if ls else 1.0
        for eps in eps_grid:
            limit = mbar * math.sqrt(12.0 * params.l0 * r * r / eps) + 36.0 * params.l1**2 * r * r
            hit = _ref_first_hit(recs, eps)
            if hit is not None:
                margins.add(limit - hit.oracle_calls, f"oracle calls to eps={eps}")
    return margins.report("rate_two_stage")


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]


def _random_trace(rng):
    """A short trace with random NaN, infinite, signed-zero, tied and
    missing entries in every column, distances included."""
    n = int(rng.integers(1, 30))
    cols = {}
    for name in ("f_val", "f_gap", "grad_norm", "step_len", "support_dist", "dist_opt", "f_y",
                 "a_capital", "zeta_star"):
        v = np.round(rng.uniform(-1.0, 5.0, n), int(rng.integers(1, 4)))
        odd = rng.random(n) < 0.08
        v[odd] = rng.choice(_SPECIAL, odd.sum())
        cols[name] = v
    cols["grad_norm"] = np.abs(cols["grad_norm"])
    cols["k"] = np.arange(n)
    cols["oracle_calls"] = np.cumsum(rng.integers(1, 5, n))
    cols["stage"] = np.where(np.arange(n) < rng.integers(0, n + 1), 1, 2).astype(np.int8)
    cols["ls_evals"] = rng.integers(0, 6, n)
    # each OPTIONAL column is missing on no row, every row, the last row
    # or random rows
    patterns = [np.zeros(n, bool), np.ones(n, bool), np.arange(n) == n - 1, rng.random(n) < 0.2]
    picks = rng.integers(0, len(patterns), len(first_order.OPTIONAL))
    cols["missing"] = np.stack([patterns[i] for i in picks], axis=1)
    method = str(rng.choice(["ngd:fixed", "ngd:sqrt", "gd:clipped", "agmsdr"]))
    return Trace(columns=cols, termination="BudgetExhausted", method=method)


def _outcome(monitor, *args, **kwargs):
    try:
        rep = monitor(*args, **kwargs)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc).__name__
    return rep.line(), rep.worst_case_input, rep.informational


class TestColumnMonitorsMatchRows:
    @staticmethod
    def same(trace, bound, **kw):
        got = _outcome(rate_monitor, trace, bound, **kw)
        assert got == _outcome(_ref_rate_monitor, trace, bound, **kw), bound

    @pytest.mark.parametrize("name", [*EDGE_RUNS, "hand_gap_gone"])
    def test_edge_traces(self, edge_traces, name):
        params, trace, r_hat = edge_traces[name]
        for bound in MONITOR_BOUNDS:
            self.same(trace, bound, params=params, f0=5.0, r=10.0, r_hat=r_hat or 10.0,
                      l_const=3.0 * params.l0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            trace = _random_trace(rng)
            pick = lambda *values: float(rng.choice(values))
            params = SmoothnessParams(pick(0.5, 1.0, 4.0), pick(0.0, 0.5, 1.0))
            for bound in MONITOR_BOUNDS:
                self.same(trace, bound, params=params, f0=pick(0.0, 1.0, 50.0, math.nan),
                          r=pick(1.0, 10.0), r_hat=pick(0.5, 3.0), l_const=pick(0.1, 1.0, 12.0))

    def test_squares_follow_python_power(self):
        """pow(v, 2) and v*v differ in the last bit for some v; the monitors
        square as Python does, through `_pow`, so a finite square that
        overflows reads inf."""
        base = gd_run(power_norm(2, 4, 1), StepRule(variant="polyak"), np.array([1.0, 0.0]), 2)
        v = next(v for v in np.linspace(0.3, 0.4, 10**4).tolist() if v ** 2 != v * v)
        for x in (v, 1e200):
            cols = {name: getattr(base, name).copy() for name in first_order.ARRAYS}
            cols["dist_opt"][:] = [x, 0.0]  # the only contraction margin is x**2
            cols["f_gap"][:] = 0.0
            trace = Trace(columns=cols, termination="BudgetExhausted", method="gd:polyak")
            self.same(trace, "polyak", params=SmoothnessParams(1.0, 1.0), f0=1.0, r=1.0,
                      r_hat=1.0, l_const=1.0)
        rep = rate_monitor(trace, "polyak", params=SmoothnessParams(1.0, 1.0), r=1.0)
        assert (rep.n_failures, rep.worst_case_input) == (0, "eps=0.1")  # 1e200**2 reads inf
