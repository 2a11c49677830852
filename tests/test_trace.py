"""The columnar trace, its records view, and the fused oracle `floats`."""

import math
import struct
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from gensmooth.agmsdr import EstimateState, agmsdr_run, segment_line_search, two_stage_run
from gensmooth.cli import SHIPPED_FOR_VERIFY, parse_problem
from gensmooth.first_order import (
    COLUMNS,
    DIVERGENCE_GUARD,
    ROWS_PER_CHUNK,
    IterRecord,
    StepRule,
    gd_run,
    ngd_run,
    stepsize_clipped,
    stepsize_optimal,
    stepsize_polyak,
    stepsize_simplified,
)
from gensmooth.kernels import SmoothnessParams
from gensmooth.problems import (
    Objective,
    _norm,
    exp_phi,
    logistic_1d,
    power_norm,
    separable_pnorm,
)


# Reference rows: the per-record arithmetic of the loops that built
# IterRecords directly, kept here to pin the columnar trace's records view.

def _ref_make_record(f, k, x, f_val, grad, g, step_len, calls, f_star):
    gap = f_val - f_star if f_star is not None else None
    support = None
    dist = None
    if f.x_star is not None:
        diff = x - f.x_star
        dist = float(_norm(diff))
        if g > 0:
            support = max(float(np.add.reduce(grad * diff)), 0.0) / g
    return IterRecord(k, f_val, gap, g, step_len, calls, 1, support, dist)


def _ref_descent(f, x, budget, step_len, f_star, grad_tol=0.0, gap_tol=None):
    """(records, last x, whether a tolerance ended the run)."""
    f_val = f.value(x)
    grad = f.gradient(x)
    calls = 1
    records = []
    while True:
        k = len(records)
        g = float(_norm(grad))
        if not math.isfinite(f_val) or abs(f_val) > DIVERGENCE_GUARD or not math.isfinite(g):
            records.append(_ref_make_record(f, k, x, f_val, grad, g, 0.0, calls, f_star))
            return records, x, False
        step = step_len(k, g, f_val) if g > 0 else 0.0
        records.append(_ref_make_record(f, k, x, f_val, grad, g, step, calls, f_star))
        if g == 0.0 or calls >= budget:
            return records, x, False
        if g <= grad_tol or (gap_tol is not None and f_val - f_star <= gap_tol):
            return records, x, True
        x = x - step * (grad / g)
        f_val = f.value(x)
        grad = f.gradient(x)
        calls += 1


def _ref_agmsdr(f, x, l_const, budget, params):
    state = EstimateState(x0=x.tolist())
    f_x = f.value(x)
    calls = 1
    records = []
    v_first = False

    def arrival_record(k):
        return IterRecord(
            k=k,
            f_val=f_x,
            f_gap=f_x - f.f_star if f.f_star is not None else None,
            grad_norm=None,
            step_len=0.0,
            oracle_calls=calls,
            stage=2,
            a_capital=state.a_capital,
            zeta_star=state.zeta_star_lower,
            dist_opt=float(_norm(x - f.x_star)) if f.x_star is not None else None,
        )

    while calls < budget:
        k = len(records)
        v = state.minimizer
        ls = segment_line_search(f, v, x.tolist(), f_x, v_first)  # last winner first
        v_first = ls.y is v
        calls += ls.evals
        y, f_y = np.array(ls.y), ls.f_y
        grad_y = f.gradient(y)
        calls += 1
        g = float(_norm(grad_y))
        step_len = stepsize_simplified(g, params) * g if g > 0 else 0.0
        x_next = y - step_len * (grad_y / g) if g > 0 else y
        f_next = f.value(x_next)
        calls += 1
        rec = arrival_record(k)
        rec.grad_norm = g
        rec.step_len = step_len
        rec.f_y = f_y
        rec.ls_evals = ls.evals
        records.append(rec)
        a_next = (1.0 + math.sqrt(1.0 + 4.0 * l_const * state.a_capital)) / (2.0 * l_const)
        state.accumulate(a_next, y.tolist(), f_y, grad_y.tolist())
        x, f_x = x_next, f_next
        if g == 0.0 or not math.isfinite(f_x) or abs(f_x) > DIVERGENCE_GUARD:
            break
    records.append(arrival_record(len(records)))
    return records


def _ref_two_stage(f, x, p, budget):
    rule = lambda k, g, f_val: stepsize_simplified(g, p) * g
    if f.f_star is not None:
        stage1, x, handed = _ref_descent(f, x, budget, rule, f.f_star,
                                         gap_tol=p.l0 / (5.0 * p.l1**2))
    else:
        stage1, x, handed = _ref_descent(f, x, budget, rule, None, grad_tol=p.l0 / p.l1)
    if not handed:
        return stage1
    calls = stage1[-1].oracle_calls
    stage2 = _ref_agmsdr(f, x, 3.0 * p.l0, budget - calls, p)
    for rec in stage2:
        rec.k += stage1[-1].k + 1
        rec.oracle_calls += calls
    return stage1 + stage2


def _gd_step(variant, params, f_star):
    if variant == "polyak":
        return lambda k, g, f_val: stepsize_polyak(f_val, f_star, g) * g
    rule = {"optimal": stepsize_optimal, "simplified": stepsize_simplified,
            "clipped": stepsize_clipped}[variant]
    return lambda k, g, f_val: rule(g, params) * g


def _bits(v):
    return struct.pack("<d", v) if isinstance(v, float) else v


def assert_same_rows(got, want):
    """Every field of every row: same bits, same None, same Python type."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for fld in fields(IterRecord):
            u, v = getattr(a, fld.name), getattr(b, fld.name)
            assert type(u) is type(v), (a.k, fld.name, u, v)
            assert _bits(u) == _bits(v), (a.k, fld.name, u, v)


PN = power_norm(2, 6, 1)
# x_star off the minimizer makes <grad, x - x_star> negative: support 0.0
OFF_STAR = Objective(dim=2, value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x.copy(),
                     f_star=0.0, x_star=np.array([5.0, -5.0]),
                     params=SmoothnessParams(1.0, 0.0), name="quadratic")
DESCENT_OBJECTIVES = {
    "power_norm": (PN, [6.0, -8.0]),
    "separable_pnorm": (separable_pnorm(3, 4, 1), [3.0, -4.0, 5.0]),
    "exp_phi": (exp_phi(2, SmoothnessParams(1.0, 1.0)), [1.5, -2.0]),
    "logistic": (logistic_1d(0.5), [3.0]),  # no x_star: distances are None
    "off_star": (OFF_STAR, [3.0, -4.0]),
    # d >= 8: the dots and norms of the rows take the reduction branch
    "power_norm_d9": (power_norm(9, 4, 1), 5 * np.random.default_rng(3).standard_normal(9)),
}


class TestRecordsMatchRowArithmetic:
    @pytest.mark.parametrize("variant", ["optimal", "simplified", "clipped", "polyak"])
    @pytest.mark.parametrize("name", list(DESCENT_OBJECTIVES))
    def test_gd(self, name, variant):
        f, x0 = DESCENT_OBJECTIVES[name]
        # logistic has no f_star: polyak gets a target, the others no gaps
        f_star = 0.0 if f.f_star is None and variant == "polyak" else f.f_star
        rule = StepRule(variant=variant, params=f.params, f_star=f_star)
        trace = gd_run(f, rule, np.array(x0), budget=300)
        want, _, _ = _ref_descent(f, np.array(x0), 300, _gd_step(variant, f.params, f_star),
                                  f_star)
        assert_same_rows(trace.records, want)
        assert "records" not in vars(trace)

    @pytest.mark.parametrize("schedule", ["fixed", "sqrt", "linear"])
    @pytest.mark.parametrize("name", list(DESCENT_OBJECTIVES))
    def test_ngd(self, name, schedule):
        f, x0 = DESCENT_OBJECTIVES[name]
        beta = {"fixed": lambda k, g, v: 4.0 / math.sqrt(201),
                "sqrt": lambda k, g, v: 4.0 / math.sqrt(k + 1),
                "linear": lambda k, g, v: 4.0 / (k + 1)}[schedule]
        budget = 201 if schedule == "fixed" else 300
        trace = ngd_run(f, 4.0, schedule, np.array(x0), 300, horizon=200)
        want, _, _ = _ref_descent(f, np.array(x0), budget, beta, f.f_star)
        assert_same_rows(trace.records, want)

    def test_stationary_exact_row(self):
        f = power_norm(2, 4, 1)
        r_hat = 7.0 * math.sqrt(49)
        trace = ngd_run(f, r_hat, "fixed", np.array([7.0, 0.0]), 10**4, horizon=48)
        assert trace.termination == "StationaryExact"
        want, _, _ = _ref_descent(f, np.array([7.0, 0.0]), 49,
                                  lambda k, g, v: r_hat / math.sqrt(49), f.f_star)
        assert_same_rows(trace.records, want)
        assert trace.records[-1].support_dist is None  # zero gradient

    def test_diverged_row(self):
        bad = SmoothnessParams(1.0, 0.0)
        with np.errstate(all="ignore"):
            trace = gd_run(PN, StepRule("optimal", bad), np.array([10.0, 0.0]), 2000)
            want, _, _ = _ref_descent(PN, np.array([10.0, 0.0]), 2000,
                                      _gd_step("optimal", bad, None), PN.f_star)
        assert trace.termination == "Diverged"
        assert math.isnan(trace.records[-1].grad_norm)  # a NaN, not a None
        assert_same_rows(trace.records, want)

    def test_diverged_records_read_without_warnings(self):
        f = power_norm(2, 4, 1)
        with np.errstate(all="ignore"):
            trace = gd_run(f, StepRule("optimal", SmoothnessParams(1.0, 0.0)),
                           np.array([10.0, 0.0]), 2000)
        assert trace.termination == "Diverged"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = list(trace.records)
        assert math.isnan(rows[-1].support_dist)  # inf/inf: defined, but NaN

    @pytest.mark.parametrize("name", ["power_norm", "exp_phi", "logistic", "power_norm_d9"])
    def test_agmsdr(self, name):
        f, x0 = DESCENT_OBJECTIVES[name]
        trace = agmsdr_run(f, np.array(x0) / 4.0, None, 400)
        assert_same_rows(trace.records, _ref_agmsdr(f, np.array(x0) / 4.0, 3.0 * f.params.l0,
                                                    400, f.params))

    @pytest.mark.parametrize("name", ["power_norm", "separable_pnorm", "logistic"])
    def test_two_stage(self, name):
        f, x0 = DESCENT_OBJECTIVES[name]
        trace = two_stage_run(f, np.array(x0), f.params, 3000)
        want = _ref_two_stage(f, np.array(x0), f.params, 3000)
        assert {r.stage for r in want} == {1, 2}
        assert_same_rows(trace.records, want)

    def test_records_view(self):
        trace = gd_run(PN, StepRule("optimal", PN.params), np.array([6.0, -8.0]), 50)
        view = trace.records
        assert len(view) == 50 and view[-1].k == 49
        assert [r.k for r in view[1:3]] == [1, 2]
        assert view[0] == trace.records[0] and view is not trace.records

    def test_records_view_reads_in_chunks(self):
        """Iteration, indexing and stepped slices agree across chunk edges."""
        n = 3 * ROWS_PER_CHUNK
        trace = gd_run(PN, StepRule("optimal", PN.params), np.array([6.0, -8.0]), n)
        view = trace.records
        rows = list(view)
        assert [r.k for r in rows] == list(range(n))
        for sl in (slice(1, None), slice(ROWS_PER_CHUNK - 3, None, 7), slice(None, None, -1),
                   slice(-5, 2, -ROWS_PER_CHUNK // 2)):
            assert_same_rows(view[sl], rows[sl])
        assert_same_rows([view[i] for i in (0, ROWS_PER_CHUNK, -1)],
                         [rows[0], rows[ROWS_PER_CHUNK], rows[-1]])

    def test_accelerated_gradients_take_no_memory(self):
        trace = agmsdr_run(PN, np.array([1.5, -2.0]), None, 400)
        assert not trace.present("support_dist").any()
        assert trace.present("dist_opt").all()
        blocks = [name for name, v in vars(trace).items()
                  if isinstance(v, np.ndarray) and v.ndim > 1]
        assert blocks == ["missing"]  # no (n, d) array


def _same_pair(got, want):
    assert type(got[0]) is type(want[0]) is float
    assert _bits(got[0]) == _bits(want[0])
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def _floats(f, x):
    """f.floats at x's list, its gradient (a list of Python floats) as an array."""
    value, grad = f.floats(np.asarray(x, dtype=float).tolist())
    assert type(grad) is list and all(type(t) is float for t in grad)
    return value, np.array(grad)


class TestFloats:
    @pytest.mark.parametrize("spec", SHIPPED_FOR_VERIFY)
    def test_bitwise_equal_to_two_calls(self, spec):
        f = parse_problem(spec)
        rng = np.random.default_rng(11)
        points = [rng.standard_normal(f.dim) * s for s in (0.1, 1.0, 5.0, 30.0)]
        points += [np.zeros(f.dim), np.zeros(f.dim).tolist(), (points[1]).tolist()]
        with np.errstate(all="ignore"):
            for x in points:
                _same_pair(_floats(f, x), (f.value(x), f.gradient(x)))

    def test_overflowing_point(self):
        f = power_norm(2, 8, 1)
        with np.errstate(all="ignore"):
            got = _floats(f, [1e60, 0.0])
            _same_pair(got, (f.value(np.array([1e60, 0.0])), f.gradient(np.array([1e60, 0.0]))))
        assert got[0] == math.inf

    def test_exp_phi_overflow_raises_as_value_does(self):
        f = exp_phi(2, SmoothnessParams(1.0, 1.0))
        x = np.array([710.0, 0.0])
        with pytest.raises(OverflowError):
            f.value(x)
        with pytest.raises(OverflowError):
            f.floats(x.tolist())
        near = np.array([709.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the gradient does not overflow
            got = _floats(f, near)
            _same_pair(got, (f.value(near), f.gradient(near)))
        assert np.isfinite(got[1]).all()

    @pytest.mark.parametrize("swapped", ["value", "gradient"])
    def test_replaced_oracle_falls_back(self, swapped):
        """A swapped value or gradient is what floats calls, and the runs
        match an objective built from the same callables without a kernel."""
        calls = []

        def counted(fn):
            def wrapper(x):
                calls.append(1)
                return fn(x)
            return wrapper

        swapped_f = replace(PN, **{swapped: counted(getattr(PN, swapped))})
        assert swapped_f.floats is not PN.floats
        bare = Objective(dim=2, value=swapped_f.value, gradient=swapped_f.gradient,
                         f_star=PN.f_star, x_star=PN.x_star, params=PN.params)
        x0 = np.array([6.0, -8.0])

        def runs(f):
            return [gd_run(f, StepRule("optimal", PN.params), x0, 200),
                    ngd_run(f, 20.0, "sqrt", x0, 200)]

        got = runs(swapped_f)
        assert len(calls) == sum(map(len, got))  # one call per recorded point
        for g, w in zip(got, runs(bare)):
            assert g.termination == w.termination
            assert_same_rows(g.records, w.records)

    def test_objective_without_kernel_makes_two_calls(self):
        seen = []
        f = Objective(dim=1, value=lambda x: seen.append("v") or 1.0,
                      gradient=lambda x: seen.append("g") or np.zeros(1))
        assert f.floats([0.0]) == (1.0, [0.0]) and seen == ["v", "g"]
        values, grads = f.values_grads(np.zeros((2, 1)))
        assert values.tolist() == [1.0, 1.0] and grads.tolist() == [[0.0], [0.0]]
        assert seen == ["v", "g"] * 3


TRACE_RUNS = {
    "gd": lambda x0: gd_run(PN, StepRule("optimal", PN.params), x0, 200),
    "ngd": lambda x0: ngd_run(PN, 5.0, "sqrt", x0, 200),
    "agmsdr": lambda x0: agmsdr_run(PN, x0, None, 200),
    "two_stage": lambda x0: two_stage_run(PN, x0, PN.params, 2000),
}


@pytest.mark.parametrize("method", TRACE_RUNS)
def test_trace_column_types(method):
    """`write_csv` writes %d or %.17g by a column's dtype: k, oracle_calls,
    stage and ls_evals are integer columns, every other column float64, each
    its own contiguous array."""
    trace = TRACE_RUNS[method](np.array([10.0, -3.0]))
    assert len(trace) > 2
    for name in COLUMNS:
        col = getattr(trace, name)
        if name in ("k", "oracle_calls", "stage", "ls_evals"):
            assert col.dtype.kind == "i", name
        else:
            assert col.dtype == np.float64, name
        assert col.flags.c_contiguous, name
        others = [getattr(trace, other) for other in COLUMNS if other != name]
        assert not any(np.shares_memory(col, other) for other in others), name


def test_trace_memory_per_row():
    """A 10^5-iteration run holds and peaks at bounded bytes per record."""
    rule = StepRule("optimal", PN.params)
    x0 = np.array([10.0, 0.0])
    gd_run(PN, rule, x0, 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = gd_run(PN, rule, x0, 10**5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(trace)
    assert n == 10**5
    assert (held - base) / n <= 160
    assert (peak - base) / n <= 320


HIGH_DIM_RUNS = {  # run, budget, rows it records, bound on the peak bytes a row
    "gd": (lambda f, x0, budget: gd_run(f, StepRule("optimal", f.params), x0, budget), 2000,
           2000, 1.01 * 17074),
    "agmsdr": (lambda f, x0, budget: agmsdr_run(f, x0, 3 * f.params.l0, budget), 3000,
               1494, 1.01 * 8611),
}


@pytest.mark.parametrize("method", HIGH_DIM_RUNS)
def test_trace_memory_per_row_in_high_dimension(method):
    """At d = 1000 a finished trace holds its scalar columns only; the run
    peaks at the loop's row buffer (8*d bytes a row for the iterate, 16*d
    with the gradient) and no second block of that size."""
    run, budget, rows, peak_bound = HIGH_DIM_RUNS[method]
    f = power_norm(1000, 4, 1)
    x0 = np.random.default_rng(5).standard_normal(1000)
    run(f, x0, 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = run(f, x0, budget)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(trace)
    assert n == rows and trace.termination == "BudgetExhausted"
    assert (held - base) / n <= 160
    assert (peak - base) / n <= peak_bound
