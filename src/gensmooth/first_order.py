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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import SmoothnessParams
from .problems import Objective, _norm

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


@dataclass(slots=True)
class IterRecord:
    """One row of a run trace.

    `step_len` is the length of the move the rule prescribes at this
    iterate (eta*g for gradient rules, beta_k for normalized ones), zero
    when no step is defined.  `oracle_calls` is cumulative; for gradient
    methods it counts gradient evaluations, for the accelerated method it
    counts gradient plus line-search value evaluations.
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


@dataclass
class Trace:
    """Full record of one run."""

    records: list[IterRecord]
    final_x: np.ndarray
    termination: str
    method: str = ""

    def __post_init__(self):
        if not self.records:
            raise ValueError("a trace must contain at least the initial record")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")

    def __len__(self) -> int:
        return len(self.records)


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


def _make_record(
    f: Objective,
    k: int,
    x: np.ndarray,
    f_val: float,
    grad: np.ndarray,
    g: float,
    step_len: float,
    calls: int,
    f_star: float | None,
) -> IterRecord:
    gap = f_val - f_star if f_star is not None else None
    support = None
    dist = None
    if f.x_star is not None:
        diff = x - f.x_star
        dist = float(_norm(diff))
        if g > 0:
            support = max(float(grad @ diff), 0.0) / g
    return IterRecord(k, f_val, gap, g, step_len, calls, 1, support, dist)


def _descent(
    f: Objective,
    x: np.ndarray,
    budget: int,
    step_len: Callable[[int, float, float], float],
    method: str,
    f_star: float | None,
    grad_tol: float = 0.0,
    gap_tol: float | None = None,
) -> Trace:
    """The loop x <- x - s_k * grad/||grad|| shared by every plain method.

    `step_len(k, g, f_val)` gives the move length s_k at a nonzero
    gradient; an exactly stationary iterate records a zero step.
    """
    f_val = f.value(x)
    if not math.isfinite(f_val):
        raise ValueError("objective is not finite at the starting point")
    grad = f.gradient(x)
    calls = 1
    records: list[IterRecord] = []

    while True:
        k = len(records)
        g = float(_norm(grad))
        if not math.isfinite(f_val) or abs(f_val) > DIVERGENCE_GUARD or not math.isfinite(g):
            records.append(_make_record(f, k, x, f_val, grad, g, 0.0, calls, f_star))
            termination = "Diverged"
            break
        step = step_len(k, g, f_val) if g > 0 else 0.0
        records.append(_make_record(f, k, x, f_val, grad, g, step, calls, f_star))
        if g == 0.0:
            termination = "StationaryExact"
            break
        if g <= grad_tol:
            termination = "GradToleranceMet"
            break
        if gap_tol is not None and f_val - f_star <= gap_tol:
            termination = "GapToleranceMet"
            break
        if calls >= budget:
            termination = "BudgetExhausted"
            break
        x = x - step * (grad / g)
        f_val = f.value(x)
        grad = f.gradient(x)
        calls += 1

    return Trace(records=records, final_x=x, termination=termination, method=method)


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

    if rule.variant == "polyak":
        step_len = lambda k, g, f_val: stepsize_polyak(f_val, f_star, g) * g
    else:
        stepsize = {
            "optimal": stepsize_optimal,
            "simplified": stepsize_simplified,
            "clipped": stepsize_clipped,
        }[rule.variant]
        step_len = lambda k, g, f_val: stepsize(g, rule.params) * g
    return _descent(f, x, budget, step_len, f"gd:{rule.variant}", f_star, grad_tol, gap_tol)


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
    if r_hat <= 0:
        raise ValueError("r_hat must be positive")
    if schedule not in NGD_SCHEDULES:
        raise ValueError(f"schedule must be one of {NGD_SCHEDULES}")
    if schedule == "fixed":
        if horizon is None or horizon < 1:
            raise ValueError("fixed schedule requires horizon >= 1")
        # record K is reached after K+1 gradient calls
        budget = min(budget, horizon + 1)
        beta = lambda k, g, f_val: r_hat / math.sqrt(horizon + 1)
    elif schedule == "sqrt":
        beta = lambda k, g, f_val: r_hat / math.sqrt(k + 1)
    else:
        beta = lambda k, g, f_val: r_hat / (k + 1)

    x = f.check_point(x0)
    return _descent(f, x, budget, beta, f"ngd:{schedule}", f.f_star)


def best_iterate(trace: Trace) -> tuple[int, float]:
    """First index attaining the minimum recorded value (ties -> smallest k)."""
    values = [r.f_val for r in trace.records]
    idx = int(np.argmin(values))
    return idx, values[idx]
