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
value and gradient call.  As in the descent loop, every point is a list of
Python floats, and only the final iterate becomes an array.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .kernels import SmoothnessParams
from .problems import Objective, _dot, _norm
from .first_order import (ARRAYS, DIVERGENCE_GUARD, StepRule, Trace, _trace, gd_run,
                          stepsize_simplified)

# Largest rise f(x_{k+1}) - f(y_k) the accelerated loop tolerates as rounding.
MONOTONE_TOL = 1e-9

# Bisection probes the segment search makes before it settles for x_k.
LS_MAX_PROBES = 60


@dataclass
class EstimateState:
    """Running state of the quadratic model; `x0`, `lin_accum` and the
    minimizer are lists of Python floats, each entry numpy's bits.

    `lin_accum` is the accumulated linear term sum_i a_i * grad f(y_{i-1}),
    so the model minimizer is always x0 - lin_accum.  `affine_accum` is the
    matching scalar sum_i a_i * (f(y_{i-1}) - <grad f(y_{i-1}), y_{i-1}>),
    which makes the model value at the minimizer available in closed form.
    `accumulate` keeps `minimizer` and that value, `zeta_star_lower`,
    current; the latter certifies a_capital * f(x_k) from above on convex
    problems.
    """

    x0: list
    a_capital: float = 0.0
    lin_accum: list | None = None
    affine_accum: float = 0.0
    zeta_star_lower: float = 0.0
    minimizer: list = field(init=False)

    def __post_init__(self):
        if self.lin_accum is None:
            self.lin_accum = [0.0] * len(self.x0)
        self.minimizer = [a - s for a, s in zip(self.x0, self.lin_accum)]

    def accumulate(self, a: float, y: list, f_y: float, grad_y: list):
        self.a_capital += a
        x0 = self.x0
        if len(x0) < 8:  # the three dots as _dot's loop, in one pass with the updates
            s, v, gy, sx, ss = [], [], 0.0, 0.0, 0.0
            for t, g, yi, b in zip(self.lin_accum, grad_y, y, x0):
                t += a * g
                s.append(t)
                v.append(b - t)
                gy += g * yi
                sx += t * b
                ss += t * t
        else:
            s = [t + a * g for t, g in zip(self.lin_accum, grad_y)]
            v = [b - t for b, t in zip(x0, s)]
            gy, sx, ss = _dot(grad_y, y), _dot(s, x0), _dot(s, s)
        self.lin_accum, self.minimizer = s, v
        self.affine_accum += a * (f_y - gy)
        self.zeta_star_lower = sx - 0.5 * ss + self.affine_accum


@dataclass(slots=True)
class LineSearchResult:
    y: list
    f_y: float
    grad_y: list
    evals: int


def segment_line_search(f: Objective, v: list, x: list, f_x: float,
                        v_first: bool = False) -> LineSearchResult:
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
    2 + 2*probes after a bisection.  Points and gradients are lists of
    Python floats: x's gradient is one `f.gradient` call, on an array, and
    every other probe an `f.floats` call.
    """
    if v_first:
        f_v, grad_v = f.floats(v)
        if f_v <= f_x:
            return LineSearchResult(v, f_v, grad_v, 1)
    direction = [a - b for a, b in zip(x, v)]
    grad_x = f.gradient(np.array(x)).tolist()
    if _dot(grad_x, direction) <= 0.0:
        return LineSearchResult(x, f_x, grad_x, 2 if v_first else 0)
    if not v_first:
        f_v, grad_v = f.floats(v)
        if f_v <= f_x:
            return LineSearchResult(v, f_v, grad_v, 2)
    lo, hi = 0.0, 1.0
    for probe in range(1, LS_MAX_PROBES + 1):
        beta = 0.5 * (lo + hi)
        y = [a + beta * b for a, b in zip(v, direction)]
        f_y, grad_y = f.floats(y)
        if not math.isfinite(f_y) or f_y > f_x:
            lo = beta
        elif _dot(grad_y, direction) > 0.0:
            hi = beta
        else:
            return LineSearchResult(y, f_y, grad_y, 2 + 2 * probe)
    return LineSearchResult(x, f_x, grad_x, 2 + 2 * LS_MAX_PROBES)


@np.errstate(over="ignore", invalid="ignore")
def agmsdr_run(f: Objective, x0: np.ndarray, l_const: float | None, budget: int,
               t_params: SmoothnessParams | None = None) -> Trace:
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
    non-finite gradient norm at y_k ends the run `Diverged`.  An iteration
    starts only while the calls made are below `budget`, so the last one
    may overrun the budget by its own calls.  The loop's names are bound
    when the call starts; the move is `_descent`'s, entry by entry.
    """
    params = t_params if t_params is not None else f.params
    if params is None:
        raise ValueError("objective carries no smoothness constants for the descent step")
    if l_const is None:
        if params.l0 == 0:
            raise ValueError("default l = 3*l0 is 0 because the objective's l0 is 0: give l")
        l_const = 3.0 * params.l0
    if not 0 < l_const < math.inf:
        raise ValueError("l_const must be positive and finite")
    x = f.check_point(x0)
    f_x = f.value(x)
    if not math.isfinite(f_x):
        raise ValueError("objective is not finite at the starting point")
    x = x.tolist()
    state = EstimateState(x0=x)
    calls = 1
    termination = "BudgetExhausted"
    names = ("f_val", "a_capital", "zeta_star", "oracle_calls", "grad_norm", "step_len",
             "f_y", "ls_evals")
    rows = array("d")  # per record: the named columns, then x
    append, value = rows.fromlist, f.value
    line_search, stepsize = segment_line_search, stepsize_simplified
    short = f.dim < 8  # _norm's loop, inline: one call fewer per iteration
    k = 0
    v_first = False  # v_k won the previous iteration's search

    while calls < budget:
        v = state.minimizer
        ls = line_search(f, v, x, f_x, v_first)
        y, f_y, grad_y, evals = ls.y, ls.f_y, ls.grad_y, ls.evals
        v_first = y is v
        calls += evals + 1
        if short:
            g = 0.0
            for t in grad_y:
                g += t * t
            g = math.sqrt(g)
        else:
            g = _norm(grad_y)
        if not math.isfinite(g):
            termination = "Diverged"
            break

        if g > 0:
            step_len = stepsize(g, params) * g
            x_next = [yi - step_len * (gi / g) for yi, gi in zip(y, grad_y)]
        else:
            step_len, x_next = 0.0, y
        f_next = value(np.array(x_next))
        calls += 1
        if f_next > f_y + MONOTONE_TOL:
            raise RuntimeError(f"descent step increased the value at iteration {k} ({f_y} -> "
                               f"{f_next}): curvature constants do not match the objective")

        append([f_x, state.a_capital, state.zeta_star_lower, calls, g, step_len, f_y, evals, *x])
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

    append([f_x, state.a_capital, state.zeta_star_lower, calls, math.nan, 0.0, math.nan, 0, *x])
    final_x = np.array(x)
    x = v = ls = y = grad_y = x_next = state = None  # lists, 32 B an entry: free them now
    last = np.arange(k + 1) == k  # the closing row has no iteration products
    missing = {"grad_norm": last, "f_y": last, "ls_evals": last}
    return _trace(rows, names, f, f.f_star, 2, missing, grads=False, final_x=final_x,
                  termination=termination, method="agmsdr")


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
    l0/l1; ending any other way (out of budget, diverged, exactly
    stationary), or meeting it on the budget's last call, it returns its
    own trace, out of budget in that last case.  `l_const` is the scaling
    constant of the accelerated stage (`agmsdr_run`'s default when None).

    With l1 = 0 the target is vacuous and stage 1 is skipped entirely; else
    an l0 of 0 makes both targets 0, and is refused.
    Stage-2 records continue the combined iteration index and oracle
    count; stage-1 rows are marked stage 1, accelerated rows stage 2.
    """
    if l_const is not None and not 0 < l_const < math.inf:
        raise ValueError("l_const must be positive and finite")
    if p.l1 == 0.0:
        return agmsdr_run(f, x_s, l_const, budget, t_params=p)
    if p.l0 == 0.0:
        raise ValueError("two_stage's hand-over targets are 0 because the objective's l0 is 0")

    step_rule = StepRule(variant="simplified", params=p)
    if f.f_star is not None:
        stage1 = gd_run(f, step_rule, x_s, budget, gap_tol=p.l0 / (5.0 * p.l1**2))
    else:
        stage1 = gd_run(f, step_rule, x_s, budget, grad_tol=p.l0 / p.l1)

    stage1.method = "two_stage"
    if stage1.termination not in ("GapToleranceMet", "GradToleranceMet"):
        return stage1
    stage1_calls = int(stage1.oracle_calls[-1])
    if stage1_calls >= budget:
        stage1.termination = "BudgetExhausted"
        return stage1
    stage2 = agmsdr_run(f, stage1.final_x, l_const, budget - stage1_calls, t_params=p)
    stage2.k += stage1.k[-1] + 1
    stage2.oracle_calls += stage1_calls
    cols = {name: np.concatenate([getattr(stage1, name), getattr(stage2, name)])
            for name in ARRAYS}
    return Trace(columns=cols, final_x=stage2.final_x, termination=stage2.termination,
                 method="two_stage")
