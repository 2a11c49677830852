"""Empirical verification layer: samplers, oracles, and rate monitors.

Everything here is an independent check on the rest of the package:
finite differences validate analytic gradients, randomized pair sampling
probes the growth envelopes and convex lower bounds that the stepsize
rules rely on, and post-hoc monitors replay recorded traces against the
worst-case rate guarantees.  All sampling is deterministic given a seed,
and reports serialize to a stable line format, so a clean rerun is
byte-identical.

A verification layer that cannot fail is itself broken, so the test suite
runs deliberate negative controls (corrupted gradients, halved curvature
floors) through these same functions and requires them to report failures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import SmoothnessParams, phi, phi_star
from .problems import (ROWS_PER_CHUNK, Objective, _check_sample, _each, _expm1, _pows, _row_dots,
                       _row_norms, sample_ball)
from .first_order import Trace

DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3)
SAMPLER_TOL = 1e-9  # slack of the envelope and lower-bound samplers
CONJUGATE_GRID_TOL = 1e-6
CONJUGATE_G_MAX = 10.0  # conjugate_grid_consistency samples g in [0, this)


@dataclass
class CheckReport:
    """Outcome of one check over a batch of cases.

    `worst_margin` is the most negative slack seen (bound minus observed);
    a case fails when its margin drops below -tolerance, so n_failures == 0
    exactly when worst_margin >= -tolerance.  `informational` marks checks
    that are reported but excluded from pass/fail aggregation.
    """

    check_name: str
    n_cases: int
    n_failures: int
    worst_margin: float
    worst_case_input: str = ""
    seed: int = 0
    informational: bool = False

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def line(self) -> str:
        return "\t".join([self.check_name, str(self.n_cases), str(self.n_failures),
                          format(self.worst_margin, ".17g"), str(self.seed)])


class _Margins:
    """Accumulates (margin, case description) pairs against a tolerance.

    A NaN margin counts as a failure and is the worst margin there is: the
    first one stays the worst.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.n_cases = 0
        self.n_failures = 0
        self.worst = math.inf
        self.worst_input = ""

    def add(self, margin: float, case: str, tol: float | None = None):
        self.add_all(np.array([margin], dtype=float), lambda i: case, tol)

    def add_all(self, margins: np.ndarray, describe, tol: float | None = None):
        """Count each entry as a case, failing below -tol (the accumulator's
        own unless given).  The first NaN, else the first lowest entry,
        becomes the worst if it is NaN or lower than the worst so far;
        `describe(i)` names case i and is called only for that entry."""
        if not margins.size:
            return
        tol = self.tol if tol is None else tol
        self.n_cases += margins.size
        self.n_failures += int(np.count_nonzero(~(margins >= -tol)))
        i = int(np.argmin(margins))  # the first NaN, else the first of the lowest
        margin = float(margins[i])
        if margin < self.worst or (margin != margin and self.worst == self.worst):
            self.worst, self.worst_input = margin, describe(i)

    def report(self, name: str, seed: int = 0, informational: bool = False) -> CheckReport:
        return CheckReport(check_name=name, n_cases=self.n_cases, n_failures=self.n_failures,
                           worst_margin=self.worst, worst_case_input=self.worst_input, seed=seed,
                           informational=informational)


def serialize_reports(reports: list[CheckReport]) -> str:
    return "".join(r.line() + "\n" for r in reports)


def fd_gradient_check(
    f: Objective,
    n_points: int = 100,
    seed: int = 0,
    rel_tol: float = 1e-5,
    radius: float = 5.0,
) -> CheckReport:
    """Central-difference check of the analytic gradient on sampled points.

    Step h = 1e-6 * (1 + ||x||) per coordinate; the error is measured
    relative to 1 + ||grad|| so near-stationary points do not blow it up.
    """
    _check_sample("n_points", n_points, seed, radius)
    rng = np.random.default_rng(seed)
    points = sample_ball(rng, f.dim, radius, n_points)
    h = 1e-6 * (1.0 + _row_norms(points))
    d, fd = f.dim, np.empty_like(points)
    per = max(1, ROWS_PER_CHUNK // (2 * d))  # points whose 2*d probes make a chunk
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf gives a NaN margin
        for i in range(0, n_points, per):
            # steps[j, m] = h_j * e_m; a chunk at a time, so no array grows with d^2
            x, steps = points[i:i + per, None, :], h[i:i + per, None, None] * np.eye(d)
            probes = np.concatenate([x + steps, x - steps], axis=1).reshape(-1, d)
            vals = f.values_grads(probes)[0].reshape(-1, 2 * d)
            fd[i:i + per] = (vals[:, :d] - vals[:, d:]) / (2.0 * h[i:i + per, None])
        grads = f.values_grads(points)[1]
        err = _row_norms(fd - grads) / (1.0 + _row_norms(grads))
    margins = _Margins(tol=0.0)
    margins.add_all(rel_tol - err, lambda i: f"x={points[i].tolist()}")
    return margins.report(f"fd_gradient[{f.name}]", seed=seed)


def _sample_pairs(rng, dim, n_pairs, max_sep, radius):
    xs = sample_ball(rng, dim, radius, n_pairs)
    dirs = rng.standard_normal((n_pairs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    seps = max_sep * rng.random(n_pairs)
    return xs, xs + dirs * seps[:, None]


@functools.lru_cache(maxsize=1)
def _pair_sample(f: Objective, n_pairs=1000, max_sep=2.0, seed=0, radius=5.0):
    """(xs, ys, fx, gx, fy, gy), read-only: the pairs drawn from `seed`, with
    f's values and gradients at both ends.  The envelope and lower-bound
    checks share the last sample, keyed on f's identity (Objective is
    eq=False) and the arguments, which they pass positionally because
    lru_cache keys f(a, b) and f(a, b=...) apart."""
    _check_sample("n_pairs", n_pairs, seed, radius)
    xs, ys = _sample_pairs(np.random.default_rng(seed), f.dim, n_pairs, max_sep, radius)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf or NaN entry
        sample = (xs, ys, *f.values_grads(xs), *f.values_grads(ys))
    for a in sample:
        a.flags.writeable = False
    return sample


def _case_min(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Python's min over each case's margins (a tie keeps the earlier one,
    so 0 beats a later -0), except that any NaN makes the case NaN."""
    out = first
    for m in rest:
        out = np.where((m < out) | np.isnan(m), m, out)
    return out


def _pair_case(xs: np.ndarray, ys: np.ndarray):
    return lambda i: f"x={xs[i].tolist()} y={ys[i].tolist()}"


def check_smoothness_envelopes(
    f: Objective,
    p: SmoothnessParams,
    n_pairs: int = 1000,
    max_sep: float = 2.0,
    seed: int = 0,
    radius: float = 5.0,
) -> CheckReport:
    """Sampled check of the two growth envelopes implied by the curvature model:

        ||grad f(y) - grad f(x)||            <= a * (exp(l1*s) - 1) / l1
        |f(y) - f(x) - <grad f(x), y - x>|   <= a * phi(l1*s) / l1^2

    with a = l0 + l1*||grad f(x)|| and s = ||y - x||; for l1 = 0 the right
    sides degrade to the familiar a*s and a*s^2/2.
    """
    xs, ys, fx, gx, fy, gy = _pair_sample(f, n_pairs, max_sep, seed, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        a = p.l0 + p.l1 * _row_norms(gx)
        s = _row_norms(ys - xs)
        if p.l1 > 0:
            # the growth term is libm's expm1 per case (`_each` of `_expm1`, inf
            # past an overflow); the Taylor bound's phi takes numpy's expm1,
            # which differs from libm's in the last bit on some hosts
            grad_bound = a * _each(_expm1, p.l1 * s) / p.l1
            taylor_bound = a * phi(p.l1 * s) / p.l1**2
        else:
            grad_bound = a * s
            taylor_bound = 0.5 * a * s * s
        m1 = grad_bound - _row_norms(gy - gx)
        m2 = taylor_bound - np.abs(fy - fx - _row_dots(gx, ys - xs))
    margins = _Margins(tol=SAMPLER_TOL)
    margins.add_all(_case_min(m1, m2), _pair_case(xs, ys))
    return margins.report(f"smoothness_envelopes[{f.name}]", seed=seed)


def _conjugate_term(s: np.ndarray, a: np.ndarray, l1: float) -> np.ndarray:
    # (a/l1^2) * phi_star(l1*s/a) per case, with the l1 -> 0 limit s^2/(2a);
    # phi_star of an inf argument is inf and of a NaN one NaN
    out = np.where(s > 0, math.inf, 0.0)  # the a <= 0 cases
    pos = ~(a <= 0)
    sp, ap = s[pos], a[pos]
    if l1 == 0.0:
        out[pos] = sp * sp / (2.0 * ap)
    else:
        arg = l1 * sp / ap
        finite = np.isfinite(arg)
        arg[finite] = phi_star(arg[finite])
        out[pos] = ap / l1**2 * arg
    return out


def check_convex_lower_bounds(
    f: Objective,
    p: SmoothnessParams,
    n_pairs: int = 1000,
    seed: int = 0,
    radius: float = 5.0,
    max_sep: float = 2.0,
) -> CheckReport:
    """Sampled check of the convex lower-bound family.

    With a_x = l0 + l1*||grad f(x)|| and s = ||grad f(y) - grad f(x)||:

      f(y) - f(x) - <grad f(x), y - x>  >=  conj(s, a_y)
      <grad f(x) - grad f(y), x - y>    >=  conj(s, a_y) + conj(s, a_x)
      f(y) - f(x) - <grad f(x), y - x>  >=  s^2 / (2*a_y + l1*s)

    where conj(s, a) = (a/l1^2) * phi_star(l1*s/a).  Convex input only.
    """
    if not f.convex:
        raise ValueError(f"objective {f.name!r} is not marked convex")
    xs, ys, fx, gx, fy, gy = _pair_sample(f, n_pairs, max_sep, seed, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        a_x = p.l0 + p.l1 * _row_norms(gx)
        a_y = p.l0 + p.l1 * _row_norms(gy)
        s = _row_norms(gy - gx)
        bregman = fy - fx - _row_dots(gx, ys - xs)
        conj_y, conj_x = _conjugate_term(np.stack([s, s]), np.stack([a_y, a_x]), p.l1)
        m1 = bregman - conj_y
        m2 = _row_dots(gx - gy, xs - ys) - (conj_y + conj_x)
        denom = 2.0 * a_y + p.l1 * s
        m3 = np.where(s == 0, 0.0, -math.inf)  # the denom <= 0 cases
        pos = denom > 0
        m3[pos] = bregman[pos] - s[pos] * s[pos] / denom[pos]
    margins = _Margins(tol=SAMPLER_TOL)
    margins.add_all(_case_min(m1, m2, m3), _pair_case(xs, ys))
    return margins.report(f"convex_lower_bounds[{f.name}]", seed=seed)


def kernel_bound_checks(n_grid: int = 10**4, tol: float = 1e-12) -> list[CheckReport]:
    """Dense-grid checks of the scalar kernel inequalities.

    - phi(t) <= t^2/(2 - 2t/3) on [0, 3)
    - g^2/(2+g) <= phi_star(g) <= g^2/2 on [0, 100]
    - ln-bracket 2g/(2+g) <= ln(1+g) <= g on [0, 100]
    """
    _check_sample("n_grid", n_grid)
    t = np.linspace(0.0, 3.0, n_grid, endpoint=False)
    g = np.linspace(0.0, 100.0, n_grid)
    ps, ln, g2 = phi_star(g), np.log1p(g), g * g
    reports = []
    for name, var, grid, slack in (
            ("kernel_phi_upper", "t", t, t * t / (2.0 - 2.0 * t / 3.0) - phi(t)),
            ("kernel_conjugate_sandwich", "g", g, np.minimum(ps - g2 / (2.0 + g), g2 / 2.0 - ps)),
            ("kernel_log_bracket", "g", g, np.minimum(ln - 2.0 * g / (2.0 + g), g - ln))):
        margins = _Margins(tol=tol)
        margins.add_all(slack, lambda i: f"{var}={grid[i]}")
        reports.append(margins.report(name))
    return reports


def _linspace_into(out: np.ndarray, steps: np.ndarray, stop: float) -> np.ndarray:
    """np.linspace(0.0, stop, len(out)) written into `out`, bit for bit: the
    float index `steps` times stop/(len(out) - 1), then the exact endpoint."""
    np.multiply(steps, stop / (len(out) - 1), out=out)
    out[-1] = stop
    return out


def _conjugate_grid_errors(gs: np.ndarray) -> np.ndarray:
    """|phi_star(g) - max_t {g*t - phi(t)}| per g, with t on
    np.linspace(0.0, log1p(g) + 0.5, 40001); one grid and one work array
    serve every g."""
    steps = np.arange(40001.0)
    t, work = np.empty_like(steps), np.empty_like(steps)
    errs = np.empty_like(gs)
    for i, g in enumerate(gs):
        _linspace_into(t, steps, math.log1p(g) + 0.5)
        np.multiply(g, t, out=work)
        work -= phi(t)
        errs[i] = abs(float(phi_star(g)) - float(work.max()))
    return errs


def conjugate_grid_consistency(n_samples: int = 100, seed: int = 0) -> CheckReport:
    """phi_star(g) must match max_t {g*t - phi(t)} over a fine t-grid.

    The grid and the work array are allocated once per call and refilled
    for each sampled g: a fresh 320 KB temporary per sample would be handed
    back to the system when freed and faulted back in by the next sample.
    """
    _check_sample("n_samples", n_samples, seed)
    gs = CONJUGATE_G_MAX * np.random.default_rng(seed).random(n_samples)
    margins = _Margins(tol=CONJUGATE_GRID_TOL)
    margins.add_all(CONJUGATE_GRID_TOL - _conjugate_grid_errors(gs), lambda i: f"g={gs[i]}")
    return margins.report("kernel_conjugate_grid", seed=seed)


def _running_min(values: np.ndarray) -> np.ndarray:
    """min(running, v) along `values` from inf, as Python takes it: NaN is skipped."""
    return np.fmin.accumulate(np.fmin(values, math.inf))


def _add_rows(margins: _Margins, k: np.ndarray, *kinds, tol: float | None = None):
    """Add margins row by row and, within a row, kind by kind, against `tol`
    as in `_Margins.add_all`.  A kind is (case format with a {k} field,
    margin per row, whether each row has that margin); `k` labels the rows."""
    values = np.stack([m for _, m, _ in kinds], axis=1).ravel()
    has = np.stack([np.broadcast_to(h, len(k)) for _, _, h in kinds], axis=1).ravel()
    at, width = np.flatnonzero(has), len(kinds)
    margins.add_all(values[at], lambda i: kinds[at[i] % width][0].format(k=k[at[i] // width]),
                    tol)


def _first_hit(trace: Trace, eps: float):
    """Row where the running best gap first reaches eps (the first gap <= eps);
    None if there is none before the trace ends or reaches an unknown gap."""
    known = trace.present("f_gap")
    end = len(known) if known.all() else int(np.argmin(known))
    hits = np.flatnonzero(trace.f_gap[:end] <= eps)
    return int(hits[0]) if hits.size else None


def _descent_threshold(params: SmoothnessParams, r: float):
    """Iterations after which gap <= eps is guaranteed for the gradient rules."""
    return lambda eps: max(4.0 * params.l0 * r * r / eps, 36.0 * params.l1**2 * r * r)


def _gap_threshold_check(margins: _Margins, trace: Trace, eps_grid, threshold, use_best: bool):
    """Check 'gap <= eps from iteration threshold(eps) onward' on a trace.

    With `use_best` the target is the running best gap (guarantees stated
    for the best iterate); otherwise the gap itself, in which case descent
    monotonicity is verified first so the first-hit index is conclusive.
    A threshold beyond the recorded horizon that was never hit is skipped
    as unverifiable rather than counted either way.
    """
    if not trace.present("f_gap").all():
        raise ValueError("gap monitors require a known optimal value on every record")
    if not use_best:
        gap = trace.f_gap
        _add_rows(margins, trace.k[:-1], ("monotone gap k={k}", gap[:-1] - gap[1:], True))
    horizon = int(trace.k[-1])
    for eps in eps_grid:
        limit = threshold(eps)
        hit = _first_hit(trace, eps)
        if hit is not None:
            margins.add(float(limit - int(trace.k[hit])), f"eps={eps}")
        elif horizon >= limit:
            margins.add(-math.inf, f"eps={eps} never reached")


def _min_grad(margins, trace, eps_grid, params, f0) -> tuple[str, bool]:
    if not trace.present("grad_norm").all():
        raise ValueError("min_grad monitor requires gradient norms on every record")
    if params.l0 > 0 and f0 < 0:
        raise ValueError("min_grad monitor needs a nonnegative initial gap f0")
    k1 = trace.k + 1
    limit = np.sqrt(2.0 * params.l0 * f0 / k1) + 3.0 * params.l1 * f0 / k1
    _add_rows(margins, trace.k, ("K={k}", limit - _running_min(trace.grad_norm), True))
    return "rate_min_grad", False


def _convex_gap(margins, trace, eps_grid, params, r) -> tuple[str, bool]:
    _gap_threshold_check(margins, trace, eps_grid, _descent_threshold(params, r), use_best=False)
    return "rate_convex_gap", trace.method == "gd:clipped"


def _normalized(margins, trace, eps_grid, params, r, r_hat) -> tuple[str, bool]:
    if not 0 < r_hat < math.inf:
        raise ValueError("r_hat must be positive and finite")
    known = trace.present("support_dist")
    if not known.any():
        raise ValueError("normalized monitor requires recorded support distances (known x_star)")
    k = trace.k
    if trace.method == "ngd:fixed":
        horizon = int(k[-1])
        v_min = min(trace.support_dist[known].tolist())
        v_bound = (r * r + r_hat * r_hat) / (2.0 * r_hat * math.sqrt(horizon + 1))
        margins.add(v_bound - v_min, f"K={horizon}")
        r_bar = r * r / r_hat + r_hat
        if horizon >= (4.0 / 9.0) * params.l1**2 * r_bar**2:
            eps = params.l0 * r_bar**2 / horizon
            best_gap = min(trace.f_gap[trace.present("f_gap")].tolist())
            margins.add(eps - best_gap, f"gap at K={horizon}")
        return "rate_normalized_fixed", False
    running = _running_min(np.where(known, trace.support_dist, math.nan))  # NaN is skipped
    at16 = np.flatnonzero(k == 16)
    if at16.size and math.isfinite(running[at16[0]]):
        c = float(running[at16[0]]) * math.sqrt(17.0) / math.log(17.0)
        late = k >= 16
        # math.log per case: numpy's log differs from libm's in the last bit for some k
        logs = np.array([math.log(j + 1) for j in k[late].tolist()])
        envelope = c * logs / np.sqrt(k[late] + 1)
        _add_rows(margins, k[late], ("K={k}", envelope - running[late], True))
    return "rate_normalized_decay", True


def _polyak(margins, trace, eps_grid, params, r) -> tuple[str, bool]:
    dist, known = trace.dist_opt, trace.present("dist_opt")
    grad_norm, gap = trace.grad_norm[:-1], trace.f_gap[:-1]
    # a row with a known dist_opt and a nonzero gradient steps, and needs its
    # gap and the next row's dist_opt
    step = known[:-1] & trace.present("grad_norm")[:-1] & (grad_norm != 0)
    if not (trace.present("f_gap")[:-1][step].all() and known[1:][step].all()):
        raise TypeError("polyak contraction needs the gap at every step and dist_opt after it")
    drop = _pows(gap[step] / grad_norm[step], 2)
    contraction = _pows(dist[:-1][step], 2) - drop - _pows(dist[1:][step], 2)
    _add_rows(margins, trace.k[:-1][step], ("k={k}", contraction, True))
    _gap_threshold_check(margins, trace, eps_grid, _descent_threshold(params, r), use_best=True)
    return "rate_polyak", False


def _accelerated(margins, trace, eps_grid, l_const, r) -> tuple[str, bool]:
    if not 0 < l_const < math.inf:
        raise ValueError("l_const must be positive and finite")
    if not trace.present("a_capital")[0]:
        raise ValueError("accelerated monitor requires an accelerated-method trace")
    k, f_val, a_capital = trace.k, trace.f_val, trace.a_capital
    step = trace.present("f_y")[:-1]  # rows with an iteration to the next row
    later = k >= 1
    if not (trace.present("grad_norm")[:-1][step].all()
            and (trace.present("a_capital") & trace.present("zeta_star")).all()):
        raise TypeError("accelerated monitor needs A_k and zeta_k on every row, "
                        "and the gradient norm with every f(y)")
    f_y = trace.f_y[:-1][step]
    progress = f_y - f_val[1:][step]
    required = _pows(trace.grad_norm[:-1][step], 2) / (2.0 * l_const)
    _add_rows(margins, k[:-1][step],
              ("f(y)<=f(x) at k={k}", f_val[:-1][step] - f_y, True),
              ("f(x+)<=f(y) at k={k}", progress, True),
              # descent-operator contract backing the 1/k^2 rate
              ("step progress k={k}", progress - required, True))
    k2 = k[later] ** 2
    _add_rows(margins, k[later],
              ("A_k growth k={k}", a_capital[later] - k2 / (4.0 * l_const), True),
              ("gap bound k={k}", 2.0 * l_const * r * r / k2 - trace.f_gap[later],
               trace.present("f_gap")[later]))
    _add_rows(margins, k, ("certificate k={k}", trace.zeta_star - a_capital * f_val, True),
              tol=1e-7)
    return "rate_accelerated", False


def _two_stage(margins, trace, eps_grid, params, r) -> tuple[str, bool]:
    stage1, stage2 = np.flatnonzero(trace.stage == 1), np.flatnonzero(trace.stage == 2)
    if params.l1 > 0 and stage1.size:
        if not trace.present("grad_norm")[stage1[-1]]:
            raise TypeError("two_stage monitor needs the stage-1 exit gradient norm")
        exit_grad = float(trace.grad_norm[stage1[-1]])
        margins.add(params.l0 / params.l1 - exit_grad, "stage-1 exit gradient")
    if stage2.size:
        f_val, capped = trace.f_val[stage2], params.l1 > 0
        cap = params.l0 / params.l1 + 1e-6 if capped else math.nan
        _add_rows(margins, trace.k[stage2],
                  ("sublevel k={k}", f_val[0] - f_val, True),
                  ("stage-2 gradient k={k}", cap - trace.grad_norm[stage2],
                   trace.present("grad_norm")[stage2] & capped))
        ls = trace.ls_evals[stage2][trace.present("ls_evals")[stage2]]
        mbar = float(np.mean(ls)) if ls.size else 1.0
        for eps in eps_grid:
            limit = mbar * math.sqrt(12.0 * params.l0 * r * r / eps) + 36.0 * params.l1**2 * r * r
            hit = _first_hit(trace, eps)
            if hit is not None:
                margins.add(limit - int(trace.oracle_calls[hit]), f"oracle calls to eps={eps}")
    return "rate_two_stage", False


# bound -> (check, keyword arguments it needs besides the margins, the trace
# and eps_grid); a check adds its cases to the margins and returns its
# report's name and whether the report is informational
MONITOR_BOUNDS = {
    "min_grad": (_min_grad, ("params", "f0")),
    "convex_gap": (_convex_gap, ("params", "r")),
    "normalized": (_normalized, ("params", "r", "r_hat")),
    "polyak": (_polyak, ("params", "r")),
    "accelerated": (_accelerated, ("l_const", "r")),
    "two_stage": (_two_stage, ("params", "r")),
}


def rate_monitor(
    trace: Trace,
    bound: str,
    *,
    params: SmoothnessParams | None = None,
    f0: float | None = None,
    r: float | None = None,
    r_hat: float | None = None,
    l_const: float | None = None,
    eps_grid=DEFAULT_EPS_GRID,
    tol: float = 1e-9,
) -> CheckReport:
    """Replay a recorded trace against one of the worst-case guarantees.

    bound:
      min_grad     min_{i<=K} g_i <= sqrt(2*l0*F0/(K+1)) + 3*l1*F0/(K+1)
                   for every K in the trace (F0 = initial gap).
      convex_gap   gap <= eps once K >= max(4*l0*R^2/eps, 36*l1^2*R^2);
                   descent monotonicity is checked so the first hitting
                   index is conclusive.  Informational for the clipped
                   rule, whose guarantee carries different constants.
      normalized   min support distance <= (R^2+r_hat^2)/(2*r_hat*sqrt(K+1))
                   on fixed horizons, plus the best-gap threshold
                   K >= max(l0*rb^2/eps, (4/9)*l1^2*rb^2) with
                   rb = R^2/r_hat + r_hat; decaying schedules get a
                   log-envelope check only (informational, constant pinned
                   at K = 16; no exact constant is guaranteed there).
      polyak       per-step distance contraction by (gap/grad)^2 plus the
                   best-gap threshold max(4*l0*R^2/eps, 36*l1^2*R^2).
      accelerated  monotone chain, per-step progress f(y_k) - f(x_{k+1})
                   >= g_k^2/(2L), model certificate A_k*f(x_k) <=
                   zeta_k(v_k) + 1e-7, A_k >= k^2/(4L), gap <= 2*L*R^2/k^2.
      two_stage    stage-1 exit gradient <= l0/l1, stage-2 sublevel
                   containment and gradient cap, and oracle calls to reach
                   eps within mbar*sqrt(12*l0*R^2/eps) + 36*l1^2*R^2, with
                   mbar the recorded mean line-search cost per iteration.

    Monitors read the trace's columns.  A margin whose entry is missing on
    a row is skipped, or the monitor raises; a NaN entry is a failing margin.
    Squares are `problems._pows`' (libm's pow, not always v*v, and `_pow`'s
    overflow rule), so an overflow is an inf or NaN margin.
    """
    if bound not in MONITOR_BOUNDS:
        raise ValueError(f"unknown bound {bound!r}")
    check, needs = MONITOR_BOUNDS[bound]
    given = {"params": params, "f0": f0, "r": r, "r_hat": r_hat, "l_const": l_const}
    if any(given[name] is None for name in needs):
        listed = ", ".join(needs[:-1]) + " and " + needs[-1]
        raise ValueError(f"{bound} monitor needs {listed}")
    margins = _Margins(tol=tol)
    with np.errstate(all="ignore"):  # inf - inf and the like give NaN margins
        check_name, informational = check(margins, trace, eps_grid,
                                          **{name: given[name] for name in needs})
    return margins.report(check_name, informational=informational)
