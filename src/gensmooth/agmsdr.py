"""Accelerated gradient method with segment relaxation, plus its two-stage driver.

The accelerated loop maintains a quadratic-plus-linear model

    zeta_k(x) = 0.5*||x - x0||^2 + sum_i a_i * [f(y_{i-1}) + <grad f(y_{i-1}), x - y_{i-1}>]

whose exact minimizer v_k is tracked in closed form.  Each iteration probes
the segment [v_k, x_k] for a relaxation point y_k, takes a certified
descent step from y_k to get x_{k+1}, and grows the scaling coefficient A_k
by the root of L*a^2 = A_k + a.  The search probes first the endpoint that
won the previous iteration, so while v_k keeps winning an iteration costs
three oracle calls.  On convex inputs this certifies A_k * f(x_k) <=
zeta_k(v_k) and yields an O(1/k^2) gap, with monotone function values.

The two-stage driver first runs plain gradient descent until the gap (or,
lacking a known optimum, the gradient norm) is small enough that the
curvature along the rest of the trajectory is bounded by a constant, then
hands over to the accelerated loop.  Oracle accounting here charges every
value and gradient call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .kernels import SmoothnessParams
from .problems import Objective, _norm
from .first_order import (
    ARRAYS,
    DIVERGENCE_GUARD,
    StepRule,
    Trace,
    _columns,
    _move,
    gd_run,
    stepsize_simplified,
)

# Largest rise f(x_{k+1}) - f(y_k) the accelerated loop tolerates as rounding.
MONOTONE_TOL = 1e-9

# Bisection probes the segment search makes before it settles for x_k.
LS_MAX_PROBES = 60


@dataclass
class EstimateState:
    """Running state of the quadratic model.

    `lin_accum` is the accumulated linear term sum_i a_i * grad f(y_{i-1}),
    so the model minimizer is always x0 - lin_accum.  `affine_accum` is the
    matching scalar sum_i a_i * (f(y_{i-1}) - <grad f(y_{i-1}), y_{i-1}>),
    which makes the model value at the minimizer available in closed form.
    `zeta_star_lower` caches that value; it certifies a_capital * f(x_k)
    from above on convex problems.
    """

    x0: np.ndarray
    a_capital: float = 0.0
    lin_accum: np.ndarray | None = None
    affine_accum: float = 0.0
    zeta_star_lower: float = 0.0

    def __post_init__(self):
        if self.lin_accum is None:
            self.lin_accum = np.zeros_like(self.x0)

    @property
    def minimizer(self) -> np.ndarray:
        return self.x0 - self.lin_accum

    def model_minimum(self) -> float:
        s = self.lin_accum
        return float(s @ self.x0) - 0.5 * float(s @ s) + self.affine_accum

    def accumulate(self, a: float, y: np.ndarray, f_y: float, grad_y: np.ndarray):
        self.a_capital += a
        self.lin_accum = self.lin_accum + a * grad_y
        self.affine_accum += a * (f_y - float(grad_y @ y))
        self.zeta_star_lower = self.model_minimum()


@dataclass(slots=True)
class LineSearchResult:
    y: np.ndarray
    f_y: float
    grad_y: np.ndarray
    evals: int


def segment_line_search(
    f: Objective, v: np.ndarray, x: np.ndarray, f_x: float, v_first: bool = False
) -> LineSearchResult:
    """A point y on [v, x] with f(y) <= f(x) and <grad f(y), v - y> >= 0.

    These two conditions are all the AGMsDR analysis asks of the segment
    relaxation, so no minimizer is sought.  The endpoints are probed first,
    v before x when `v_first` (`agmsdr_run` sets it when v won the previous
    iteration), and the first that passes wins: y = x when <grad f(x), x - v>
    <= 0; y = v when f(v) <= f(x), the slope term being zero there.  Else
    bisection on beta for y = v + beta*(x - v), where a value above f(x) (or
    a non-finite one) raises the lower end and a positive slope <grad f(y),
    x - v> lowers the upper end.  After LS_MAX_PROBES bisection probes it
    settles for y = x.  f_x = f(x) is the caller's; `evals` counts the value
    and gradient calls made here except the gradient at the returned y: 0
    (x) or 1 (v) when the endpoint probed first wins, 2 when the other does,
    2 + 2*probes after a bisection.
    """
    if v_first:
        f_v, grad_v = f.value_grad(v)
        if f_v <= f_x:
            return LineSearchResult(v, f_v, grad_v, 1)
    direction = x - v
    grad_x = f.gradient(x)
    if float(grad_x @ direction) <= 0.0:
        return LineSearchResult(x, f_x, grad_x, 2 if v_first else 0)
    if not v_first:
        f_v, grad_v = f.value_grad(v)
        if f_v <= f_x:
            return LineSearchResult(v, f_v, grad_v, 2)
    lo, hi = 0.0, 1.0
    for probe in range(1, LS_MAX_PROBES + 1):
        beta = 0.5 * (lo + hi)
        y = v + beta * direction
        f_y, grad_y = f.value_grad(y)
        if not math.isfinite(f_y) or f_y > f_x:
            lo = beta
        elif float(grad_y @ direction) > 0.0:
            hi = beta
        else:
            return LineSearchResult(y, f_y, grad_y, 2 + 2 * probe)
    return LineSearchResult(x, f_x, grad_x, 2 + 2 * LS_MAX_PROBES)


@np.errstate(over="ignore", invalid="ignore")
def agmsdr_run(
    f: Objective,
    x0: np.ndarray,
    l_const: float | None,
    budget: int,
    t_params: SmoothnessParams | None = None,
) -> Trace:
    """Accelerated loop from x0 with scaling constant l_const.

    The descent operator is the simplified-stepsize gradient step, using
    `t_params` (default: the objective's own constants).  `l_const` None
    means 3*l0 of those constants, which the step supports once the
    gradient norm is at most l0/l1.  Each record k carries f(x_k), the
    model scale A_k and the model minimum at arrival, plus the iteration
    products f(y_k), ||grad f(y_k)|| and the search cost.  Oracle calls
    accumulate value and gradient evaluations alike.

    A rise f(x_{k+1}) > f(y_k) beyond `MONOTONE_TOL` aborts: on a convex
    objective that can only mean the curvature constants are wrong.  A
    non-finite gradient norm at y_k ends the run `Diverged`.
    """
    params = t_params if t_params is not None else f.params
    if params is None:
        raise ValueError("objective carries no smoothness constants for the descent step")
    if l_const is None:
        l_const = 3.0 * params.l0
    if l_const <= 0:
        raise ValueError("l_const must be positive")
    x = f.check_point(x0)

    state = EstimateState(x0=x.copy())
    f_x = f.value(x)
    if not math.isfinite(f_x):
        raise ValueError("objective is not finite at the starting point")
    calls = 1
    termination = "BudgetExhausted"
    names = ("f_val", "a_capital", "zeta_star", "oracle_calls", "grad_norm", "step_len",
             "f_y", "ls_evals")
    rows = {name: array("q" if name in ("oracle_calls", "ls_evals") else "d") for name in names}
    rows["X"] = array("d")
    put_f, put_a, put_zeta, put_calls, put_g, put_step, put_fy, put_ls = (
        rows[name].append for name in names)
    put_x = rows["X"].extend
    k = 0
    v_first = False  # v_k won the previous iteration's search

    def arrival(g, step_len, f_y, evals):
        """A row: the iterate on arrival, then this iteration's products."""
        put_f(f_x)
        put_a(state.a_capital)
        put_zeta(state.zeta_star_lower)
        put_calls(calls)
        put_g(g)
        put_step(step_len)
        put_fy(f_y)
        put_ls(evals)
        put_x(x.tolist())

    while calls < budget:
        v = state.minimizer
        ls = segment_line_search(f, v, x, f_x, v_first)
        y, f_y, grad_y, evals = ls.y, ls.f_y, ls.grad_y, ls.evals
        v_first = y is v
        calls += evals + 1
        g = _norm(grad_y)
        if not math.isfinite(g):
            termination = "Diverged"
            break

        step_len = stepsize_simplified(g, params) * g if g > 0 else 0.0
        x_next = _move(y.tolist(), step_len, grad_y.tolist(), g) if g > 0 else y
        f_next = f.value(x_next)
        calls += 1
        if f_next > f_y + MONOTONE_TOL:
            raise RuntimeError(
                f"descent step increased the value at iteration {k} "
                f"({f_y} -> {f_next}): curvature constants do not match the objective"
            )

        arrival(g, step_len, f_y, evals)
        k += 1

        a_next = (1.0 + math.sqrt(1.0 + 4.0 * l_const * state.a_capital)) / (2.0 * l_const)
        state.accumulate(a_next, y, f_y, grad_y)
        x, f_x = x_next, f_next

        if g == 0.0:
            termination = "StationaryExact"
            break
        if not math.isfinite(f_x) or abs(f_x) > DIVERGENCE_GUARD:
            termination = "Diverged"
            break

    arrival(math.nan, 0.0, math.nan, 0)
    last = np.arange(k + 1) == k  # the closing row has no iteration products
    missing = {"grad_norm": last, "f_y": last, "ls_evals": last}
    cols = _columns(k + 1, 2, f.f_star, f.x_star, missing, **rows)
    return Trace(columns=cols, final_x=x, termination=termination, method="agmsdr")


def two_stage_run(
    f: Objective,
    x_s: np.ndarray,
    p: SmoothnessParams,
    budget: int = 10**6,
    *,
    l_const: float | None = None,
) -> Trace:
    """Gradient descent until the hand-over target, then the accelerated loop.

    Stage 1 takes simplified-rule steps.  It hands over once f - f_star <=
    l0/(5*l1^2) when the optimum is known, and otherwise once ||grad|| <=
    l0/l1.  `l_const` is the scaling constant of the accelerated stage
    (`agmsdr_run`'s default when None).

    With l1 = 0 the target is vacuous and stage 1 is skipped entirely.
    Stage-2 records continue the combined iteration index and oracle
    count; stage-1 rows are marked stage 1, accelerated rows stage 2.
    Returns the partial stage-1 trace if its budget runs out first.
    """
    if l_const is not None and l_const <= 0:
        raise ValueError("l_const must be positive")
    if p.l1 == 0.0:
        return agmsdr_run(f, x_s, l_const, budget, t_params=p)

    step_rule = StepRule(variant="simplified", params=p)
    if f.f_star is not None:
        stage1 = gd_run(
            f, step_rule, x_s, budget, grad_tol=0.0, gap_tol=p.l0 / (5.0 * p.l1**2)
        )
    else:
        stage1 = gd_run(f, step_rule, x_s, budget, grad_tol=p.l0 / p.l1)

    stage1.method = "two_stage"
    if stage1.termination in ("BudgetExhausted", "Diverged"):
        return stage1

    stage1_calls = int(stage1.oracle_calls[-1])
    stage2 = agmsdr_run(f, stage1.final_x, l_const, budget - stage1_calls, t_params=p)
    stage2.k += stage1.k[-1] + 1
    stage2.oracle_calls += stage1_calls
    cols = {name: np.concatenate([getattr(stage1, name), getattr(stage2, name)])
            for name in ARRAYS}
    return Trace(columns=cols, final_x=stage2.final_x, termination=stage2.termination,
                 method="two_stage")
