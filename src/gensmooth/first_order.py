"""Gradient-descent engine and the normalized gradient method.

Four stepsize rules drive the plain update x <- x - eta * grad:

  optimal     eta = ln(1 + l1*g / (l0 + l1*g)) / (l1*g)
  simplified  eta = 1 / (l0 + 1.5*l1*g)
  clipped     eta = min(1/(2*l0), 1/(3*l1*g))
  polyak      eta = (f(x) - f_star) / g^2

with g = ||grad f(x)||.  The first three need the curvature pair (l0, l1);
Polyak needs the optimal value instead.  The normalized method moves a
preset distance along the unit gradient and needs neither, only a distance
estimate r_hat.  All of them share one loop, x <- x - s_k * grad/||grad||,
with the move length s_k = eta*g or beta_k.

Budgets count gradient evaluations (one per iteration for every rule
here); value evaluations are free.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import starmap
from typing import Callable

import numpy as np

from .kernels import SmoothnessParams
from .problems import (ROWS_PER_CHUNK, SHORT_POINT, Objective, _list_ops, _norm, _row_dots,
                       _row_norms)

GD_VARIANTS = ("optimal", "simplified", "clipped", "polyak")
NGD_SCHEDULES = ("fixed", "sqrt", "linear")

TERMINATIONS = (
    "GradToleranceMet",
    "GapToleranceMet",
    "BudgetExhausted",
    "StationaryExact",
    "Diverged",
)

# Treat any |f| beyond this as a blown-up run (wrong constants, usually).
DIVERGENCE_GUARD = 1e150


@dataclass(frozen=True)
class StepRule:
    """Stepsize rule selector.

    `params` is required for the optimal/simplified/clipped variants and
    ignored by polyak.  `f_star` overrides the objective's optimal value
    for the polyak rule.
    """

    variant: str
    params: SmoothnessParams | None = None
    f_star: float | None = None

    def __post_init__(self):
        if self.variant not in GD_VARIANTS:
            raise ValueError(f"unknown stepsize variant {self.variant!r}")
        if self.variant != "polyak" and self.params is None:
            raise ValueError(f"{self.variant} rule requires smoothness constants")
        if self.f_star is not None and not math.isfinite(self.f_star):
            raise ValueError(f"f_star must be finite, got {self.f_star}")


@dataclass(slots=True)
class IterRecord:
    """One row of a run trace, as `Trace.records` presents it.

    `step_len` is the length of the move the rule prescribes at this
    iterate (eta*g for gradient rules, beta_k for normalized ones), zero
    when no step is defined.  `oracle_calls` is cumulative; for gradient
    methods it counts gradient evaluations, for the accelerated method
    every value and gradient evaluation.  `dist_opt` is ||x - x_star||
    where the objective's x_star is known, and `support_dist` is
    max(<grad, x - x_star>, 0)/||grad|| where the row also has a nonzero
    gradient at x (gradient methods only).
    """

    k: int
    f_val: float
    f_gap: float | None
    grad_norm: float | None
    step_len: float
    oracle_calls: int
    stage: int = 1
    support_dist: float | None = None
    dist_opt: float | None = None
    # accelerated-method extras (None on plain gradient traces)
    f_y: float | None = None
    a_capital: float | None = None
    zeta_star: float | None = None
    ls_evals: int | None = None


# Trace columns, one entry per record: IterRecord's fields, in order.  The
# OPTIONAL ones can be None on a row, which the trace's `missing` mask
# records, so a None and a NaN stay apart.
COLUMNS = IterRecord.__slots__
OPTIONAL = ("f_gap", "grad_norm", "support_dist", "dist_opt", "f_y", "a_capital",
            "zeta_star", "ls_evals")
ARRAYS = (*COLUMNS, "missing")  # everything a trace holds per row
_INTS = ("k", "oracle_calls", "stage", "ls_evals")


class Trace:
    """Full record of one run, stored by column.

    Each name in COLUMNS is a 1-D numpy array with one entry per record,
    and `missing` (n, len(OPTIONAL)) marks the entries that are None.  The
    loops pass these arrays by name as `columns`.  `records` reads the rows
    back as IterRecords.
    """

    def __init__(self, columns, final_x=None, termination=None, method=""):
        if not len(columns["k"]):
            raise ValueError("a trace must contain at least the initial record")
        if termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {termination!r}")
        for name in ARRAYS:
            setattr(self, name, columns[name])
        self.final_x, self.termination, self.method = final_x, termination, method

    def __len__(self) -> int:
        return len(self.k)

    def present(self, name: str, rows=slice(None)) -> np.ndarray:
        """Whether each row (or each of `rows`) has an entry in the OPTIONAL
        column `name`; the other columns have one on every row."""
        return ~self.missing[rows, OPTIONAL.index(name)]

    def column(self, name: str, rows=slice(None)) -> list:
        """One column (or its `rows`) as Python ints/floats, None where missing."""
        values = getattr(self, name)[rows].tolist()
        return _none_where(values, self.present(name, rows)) if name in OPTIONAL else values

    @property
    def records(self) -> Records:
        return Records(self, range(len(self)))


def _none_where(values: list, present: np.ndarray) -> list:
    """`values` with None wherever `present` is False."""
    if present.all():
        return values
    if not present.any():
        return [None] * len(values)
    return [v if p else None for v, p in zip(values, present.tolist())]


class Records(Sequence):
    """A trace's rows (a range of them) as IterRecords, built chunk by chunk
    on every read and never stored; a slice is another view."""

    def __init__(self, trace: Trace, rows: range):
        self._trace, self._rows = trace, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self._trace, self._rows[i])
        j = self._rows[i]
        return self._build(range(j, j + 1))[0]

    def __iter__(self):
        rows = self._rows
        for start in range(0, len(rows), ROWS_PER_CHUNK):
            yield from self._build(rows[start:start + ROWS_PER_CHUNK])

    def _build(self, rows: range) -> list[IterRecord]:
        # the same rows as a basic slice, a view of each column (a stop of
        # -1 after a negative step means "through row 0")
        rows = slice(rows.start, None if rows.stop < 0 else rows.stop, rows.step)
        columns = [self._trace.column(name, rows) for name in COLUMNS]
        return list(starmap(IterRecord, zip(*columns)))


def _columns(n: int, stage: int, f_star: float | None, x_star: np.ndarray | None,
             missing: dict, X=None, G=None, **written) -> dict:
    """Every array a Trace holds for n rows, from the columns a loop
    `written` (numpy arrays, maybe strided views of a row buffer), each
    held contiguous: int64 if in _INTS, else float64.  k counts the
    rows, f_gap is f_val - f_star, and a column not written is missing on
    every row; `missing` maps the other OPTIONAL names to their missing rows
    (a bool or a bool array).  The (n, d) iterates X and gradients G (views,
    not kept) give dist_opt where x_star is known, X turned into x - x_star
    in place, and support_dist where a row also has a nonzero gradient
    norm; an overflow (a diverged row) gives NaN."""
    cols = {name: np.ascontiguousarray(v, np.int64 if name in _INTS else np.float64)
            for name, v in written.items()}
    cols.update(k=np.arange(n), stage=np.full(n, stage, dtype=np.int8),
                f_gap=cols["f_val"] - (math.nan if f_star is None else f_star))
    missing["f_gap"] = f_star is None
    if x_star is not None:
        with np.errstate(all="ignore"):
            X -= x_star
            cols["dist_opt"] = _row_norms(X)
            if G is not None:
                dots = _row_dots(G, X)
                # max(dot, 0.0) as Python takes it: a NaN or a -0.0 stays
                cols["support_dist"] = np.where(dots < 0.0, 0.0, dots) / cols["grad_norm"]
                missing["support_dist"] = ~(cols["grad_norm"] > 0)
    mask = np.zeros((n, len(OPTIONAL)), dtype=bool)
    for j, name in enumerate(OPTIONAL):
        if name not in cols:
            cols[name] = np.full(n, 0 if name in _INTS else math.nan)
            missing[name] = True
        mask[:, j] = missing.get(name, False)
    return dict(cols, missing=mask)


def _trace(rows: array, names: tuple, f: Objective, f_star: float | None, stage: int,
           missing: dict, grads: bool, **trace) -> Trace:
    """The Trace of a loop's row buffer, viewed in place: each row is the
    `names` columns, the iterate, then the gradient if `grads` (f.dim
    entries each); `trace` is Trace's final_x, termination and method."""
    m, d = len(names), f.dim
    table = np.frombuffer(rows).reshape(-1, m + d * (1 + grads))
    cols = _columns(len(table), stage, f_star, f.x_star, missing, X=table[:, m:m + d],
                    G=table[:, m + d:] if grads else None, **dict(zip(names, table.T)))
    return Trace(cols, **trace)


def stepsize_optimal(grad_norm: float, p: SmoothnessParams) -> float:
    """Stepsize minimizing the tight growth envelope around the iterate."""
    if grad_norm < 0 or not math.isfinite(grad_norm):
        raise ValueError("grad_norm must be nonnegative and finite")
    t = p.l1 * grad_norm
    if t == 0.0 or t < 1e-12 * p.l0:
        if p.l0 == 0.0:
            raise ValueError("optimal stepsize undefined for zero gradient and l0 = 0")
        return 1.0 / p.l0
    return math.log1p(t / (p.l0 + t)) / t


def stepsize_simplified(grad_norm: float, p: SmoothnessParams) -> float:
    """1 / (l0 + 1.5*l1*g): same descent guarantee, no logarithm."""
    if grad_norm < 0 or not math.isfinite(grad_norm):
        raise ValueError("grad_norm must be nonnegative and finite")
    denom = p.l0 + 1.5 * p.l1 * grad_norm
    if denom <= 0.0:
        raise ValueError("simplified stepsize undefined: l0 + 1.5*l1*g is zero")
    return 1.0 / denom


def stepsize_clipped(grad_norm: float, p: SmoothnessParams) -> float:
    """min(1/(2*l0), 1/(3*l1*g)), each branch +inf when its denominator is 0."""
    if grad_norm < 0 or not math.isfinite(grad_norm):
        raise ValueError("grad_norm must be nonnegative and finite")
    const_branch = 1.0 / (2.0 * p.l0) if p.l0 > 0 else math.inf
    norm_branch = (
        1.0 / (3.0 * p.l1 * grad_norm) if p.l1 > 0 and grad_norm > 0 else math.inf
    )
    step = min(const_branch, norm_branch)
    if math.isinf(step):
        raise ValueError("clipped stepsize undefined: both denominators are zero")
    return step


def stepsize_polyak(f_val: float, f_star: float, grad_norm: float) -> float:
    """(f(x) - f_star) / g^2; zero exactly at the target value."""
    if grad_norm <= 0:
        raise ValueError("polyak stepsize undefined at a stationary point")
    if f_val < f_star:
        raise ValueError(
            f"inconsistent target: f(x) = {f_val} is below f_star = {f_star}"
        )
    return (f_val - f_star) / grad_norm**2


@np.errstate(over="ignore", invalid="ignore")
def _descent(
    f: Objective,
    x: np.ndarray,
    budget: int,
    method: str,
    f_star: float | None,
    grad_tol: float = 0.0,
    gap_tol: float | None = None,
    *,
    stepsize: Callable[..., float] | None = None,
    params: SmoothnessParams | None = None,
    beta: Callable[[int], float] | None = None,
) -> Trace:
    """The loop x <- x - s_k * grad/||grad|| shared by every plain method.

    At a nonzero gradient the move length s_k is `beta(k)` for the
    normalized method, else eta*g with eta = `stepsize(g, params)`, or
    `stepsize(f_val, f_star, g)` for Polyak's rule (no params); an exactly
    stationary or a diverged iterate records a zero step.  Record k costs
    k + 1 gradient calls.  The iterate and the gradient stay lists of
    Python floats from the first oracle call to the last: the oracle is
    `f.floats` (for a swapped callable, `value` and `gradient` on an
    array, the gradient's `.tolist()`), the move x - s_k * (grad/g) is
    `_list_ops`' `move`, entry by entry (bit for bit numpy's: IEEE / * -
    round the same in Python as in numpy's elementwise loops), and only
    `final_x` is an array.  The loop's names are bound when the call starts.
    """
    floats, isfinite, sqrt, move = f.floats, math.isfinite, math.sqrt, _list_ops(f.dim)[1]
    short = f.dim < SHORT_POINT  # _norm's loop, inline: one call fewer per iteration
    xs = x.tolist()
    f_val, gs = floats(xs)
    if not isfinite(f_val):
        raise ValueError("objective is not finite at the starting point")
    rows = array("d")  # per record: f_val, grad_norm, step_len, oracle_calls, x, grad
    append = rows.fromlist
    k = 0
    while True:
        if short:
            g = 0.0
            for t in gs:
                g += t * t
            g = sqrt(g)
        else:
            g = _norm(gs)
        diverged = not isfinite(f_val) or abs(f_val) > DIVERGENCE_GUARD or not isfinite(g)
        if g > 0 and not diverged:
            if beta is not None:
                step = beta(k)
            elif params is None:
                step = stepsize(f_val, f_star, g) * g
            else:
                step = stepsize(g, params) * g
        else:
            step = 0.0
        append([f_val, g, step, k + 1, *xs, *gs])
        if diverged:
            termination = "Diverged"
            break
        if g == 0.0:
            termination = "StationaryExact"
            break
        if g <= grad_tol:
            termination = "GradToleranceMet"
            break
        if gap_tol is not None and f_val - f_star <= gap_tol:
            termination = "GapToleranceMet"
            break
        if k + 1 >= budget:
            termination = "BudgetExhausted"
            break
        xs = move(xs, step, gs, g)
        f_val, gs = floats(xs)
        k += 1

    return _trace(rows, ("f_val", "grad_norm", "step_len", "oracle_calls"), f, f_star, 1, {},
                  grads=True, final_x=np.array(xs), termination=termination, method=method)


def gd_run(
    f: Objective,
    rule: StepRule,
    x0: np.ndarray,
    budget: int,
    grad_tol: float = 0.0,
    gap_tol: float | None = None,
) -> Trace:
    """Run x <- x - eta*grad with the chosen rule.

    Stops on grad_norm <= grad_tol, on f - f_star <= gap_tol (when given;
    requires a known optimal value), on an exactly zero gradient, when the
    budget of gradient evaluations runs out, or when the value blows past
    the divergence guard.  The initial gradient evaluation consumes one
    unit of budget, so a budget of b yields at most max(1, b) records.
    """
    x = f.check_point(x0)
    f_star = rule.f_star if rule.f_star is not None else f.f_star
    if rule.variant == "polyak" and f_star is None:
        raise ValueError("polyak rule requires f_star (objective's or an override)")
    if gap_tol is not None and f_star is None:
        raise ValueError("gap_tol requires a known f_star")

    stepsize = {
        "optimal": stepsize_optimal,
        "simplified": stepsize_simplified,
        "clipped": stepsize_clipped,
        "polyak": stepsize_polyak,
    }[rule.variant]
    return _descent(f, x, budget, f"gd:{rule.variant}", f_star, grad_tol, gap_tol,
                    stepsize=stepsize, params=rule.params if rule.variant != "polyak" else None)


def ngd_run(
    f: Objective,
    r_hat: float,
    schedule: str,
    x0: np.ndarray,
    budget: int,
    horizon: int | None = None,
) -> Trace:
    """Normalized gradient method x <- x - beta_k * grad/||grad||.

    Coefficient schedules:
      fixed    beta_k = r_hat / sqrt(K+1) for a horizon K fixed in advance
      sqrt     beta_k = r_hat / sqrt(k+1)
      linear   beta_k = r_hat / (k+1)

    Runs until the horizon (fixed schedule), the budget, or an exactly
    stationary iterate, where the normalized direction is undefined.
    """
    if not 0 < r_hat < math.inf:
        raise ValueError("r_hat must be positive")
    if schedule not in NGD_SCHEDULES:
        raise ValueError(f"schedule must be one of {NGD_SCHEDULES}")
    if schedule == "fixed":
        if horizon is None or horizon < 1:
            raise ValueError("fixed schedule requires horizon >= 1")
        # record K is reached after K+1 gradient calls
        budget = min(budget, horizon + 1)
        beta_fixed = r_hat / math.sqrt(horizon + 1)
        beta = lambda k: beta_fixed
    elif schedule == "sqrt":
        beta = lambda k: r_hat / math.sqrt(k + 1)
    else:
        beta = lambda k: r_hat / (k + 1)

    x = f.check_point(x0)
    return _descent(f, x, budget, f"ngd:{schedule}", f.f_star, beta=beta)


def best_iterate(trace: Trace) -> tuple[int, float]:
    """First index attaining the minimum recorded value (ties -> smallest k)."""
    idx = int(np.argmin(trace.f_val))
    return idx, float(trace.f_val[idx])
