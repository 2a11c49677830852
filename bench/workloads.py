"""Workload definitions for the gensmooth benchmark.

Three workloads stress different layers of the package:

descent      the fig1 method set (four gradient-descent rules and two
             normalized schedules) at a fixed oracle budget, through
             cli.run_experiment, so the first_order loop, single-point
             oracle calls along a trajectory and cli.write_csv dominate.
accelerated  two_stage and plain agmsdr runs, each stopped at the oracle
             count where it first reaches gap <= EPS, so the segment line
             search dominates and a cheaper search shows as less time.
verify       the full verification suite with negative controls plus
             certify_smoothness on every shipped objective: oracle calls at
             independent random points, Hessians and spectral norms.

Every input is drawn from the workload seed; the package receives only the
generated inputs (explicit start vectors, sampler seeds).  Nothing here
times anything: run.py owns the clock, tracing.py the spans.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

WORKLOADS = ("descent", "accelerated", "verify")
LAYERS = ("kernels", "problems", "first_order", "agmsdr", "verify", "cli")

EPS = 1e-3
EPS_GRID = (1e-1, 1e-2, 1e-3)

DESCENT_RADIUS = 10.0
DESCENT_BUDGET = 2000
DESCENT_PROBLEMS = (
    "power_norm:d=2,p=4,l1=1",
    "power_norm:d=2,p=6,l1=1",
    "power_norm:d=2,p=8,l1=1",
    "separable_pnorm:d=3,p=4,l1=1",
)
# fig1 uses r_hat = 2R; the fixed horizon ends the run exactly at the budget.
DESCENT_METHODS = (
    "gd:rule=optimal",
    "gd:rule=simplified",
    "gd:rule=clipped",
    "gd:rule=polyak",
    f"ngd:r_hat={2 * DESCENT_RADIUS:g},schedule=fixed,horizon={DESCENT_BUDGET - 1}",
    f"ngd:r_hat={2 * DESCENT_RADIUS:g},schedule=linear",
)

# Oracle calls given to an accelerated case that never reaches EPS.
ACCEL_CAP = 20000
# Seeded starts per accelerated (problem, method, radius) entry; more starts
# put more work into one pass, which steadies its wall time.
ACCEL_STARTS = 3
_FIG3_L = 4 * 4.0**4  # 4*l0 for power_norm p=6, l1=1
ACCEL_CASES = (
    ("power_norm:d=2,p=6,l1=1", f"two_stage:l={_FIG3_L:g}", 5.0),
    ("power_norm:d=2,p=6,l1=1", f"two_stage:l={_FIG3_L:g}", 100.0),
    ("power_norm:d=2,p=6,l1=1", f"two_stage:l={_FIG3_L:g}", 500.0),
    ("power_norm:d=2,p=4,l1=1", "two_stage:", 10.0),
    ("separable_pnorm:d=3,p=4,l1=1", "two_stage:", 10.0),
    ("exp_phi:d=2,l0=1,l1=1", "two_stage:", 10.0),
    ("separable_pnorm:d=3,p=4,l1=1", "agmsdr:", 10.0),
    ("exp_phi:d=2,l0=1,l1=1", "agmsdr:", 10.0),
)

def case_label(problem: str, method: str, radius: float) -> str:
    return f"{problem} {method} R={radius:g}"


CERTIFY_RADIUS = 5.0
CERTIFY_SAMPLES = 1000
NEGATIVE_CONTROLS = ("fd_gradient[corrupted_gradient]", "negative_control_halved_l0")

# The only failures the program is known to have at this commit, as
# (case label, first failing check).  They stay in the mix and count in
# fail_ratio; any other failure, on any workload, makes the run incorrect
# and run.py exit 1.  Both runs are plain agmsdr from R=10 (see NOTES.md).
EXPECTED_FAILURES = frozenset({
    (case_label("exp_phi:d=2,l0=1,l1=1", "agmsdr:", 10.0), "raised:OverflowError"),
    (case_label("separable_pnorm:d=3,p=4,l1=1", "agmsdr:", 10.0), "monitor:rate_accelerated"),
})


def load_package(src: Path) -> SimpleNamespace:
    """Import gensmooth afresh from `src` and return its layer modules.

    Earlier imports are dropped first, so every call pays the full import
    and set-up time is measured the same way each repetition.
    """
    for name in [m for m in sys.modules if m == "gensmooth" or m.startswith("gensmooth.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    root = importlib.import_module("gensmooth")
    if not Path(root.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"gensmooth resolved to {root.__file__}, outside {src}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"gensmooth.{name}") for name in LAYERS}
    )


def sphere_point(rng: np.random.Generator, dim: int, radius: float) -> list[float]:
    """A point drawn uniformly on the sphere of the given radius."""
    v = rng.standard_normal(dim)
    return (radius * v / np.linalg.norm(v)).tolist()


@dataclass
class Case:
    """One (problem, method, start) run of the descent or accelerated mix."""

    label: str
    problem: str
    method: str
    x0: list[float]
    budget: int
    objective: object  # parsed once at set-up; used by the count pass
    csv_path: str = ""


@dataclass
class Counts:
    """Exact, hardware-independent outcome of one case, from its trace."""

    trace_len: int = 0
    total_calls: int = 0
    termination: str = ""
    best_gap: float | None = None
    stage2_iters: int = 0
    ls_evals: int = 0
    # eps -> {"grad", "step_value", "ls_value", "unreached"}
    split: dict = field(default_factory=dict)
    raised: str | None = None


def make_inputs(pkg, workload: str, seed: int, out_dir: Path):
    """Objectives and seeded inputs for one workload (the set-up work)."""
    rng = np.random.default_rng(seed)
    csv_dir = out_dir / "csv" / workload
    cases: list[Case] = []
    if workload == "descent":
        for problem in DESCENT_PROBLEMS:
            f = pkg.cli.parse_problem(problem)
            for method in DESCENT_METHODS:
                cases.append(Case(
                    label=f"{problem} {method}", problem=problem, method=method,
                    x0=sphere_point(rng, f.dim, DESCENT_RADIUS), budget=DESCENT_BUDGET,
                    objective=f,
                ))
    elif workload == "accelerated":
        for problem, method, radius in ACCEL_CASES:
            f = pkg.cli.parse_problem(problem)
            for _ in range(ACCEL_STARTS):
                cases.append(Case(
                    label=case_label(problem, method, radius), problem=problem,
                    method=method, x0=sphere_point(rng, f.dim, radius),
                    budget=ACCEL_CAP, objective=f,
                ))
    elif workload == "verify":
        objectives = [pkg.cli.parse_problem(spec) for spec in pkg.cli.SHIPPED_FOR_VERIFY]
        return [f for f in objectives if f.hessian is not None]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, case in enumerate(cases):
        case.csv_path = str(csv_dir / f"case{i:02d}.csv")
    return cases


def run_config(pkg, case: Case):
    return pkg.cli.RunConfig(
        problem_spec=case.problem, method_spec=case.method, x0=case.x0,
        budget=case.budget, output_path=case.csv_path, label=case.label,
    )


def oracle_split(trace) -> list[tuple[dict, float | None]]:
    """Per record: the cumulative oracle split and the running best gap.

    Gradient-method rows (stage 1) count only gradient calls, as the
    package does.  Accelerated rows (stage 2) add line-search value calls
    (`ls_evals`) and one gradient per iteration; the rest of the recorded
    count is step values.
    """
    out = []
    grads = ls = 0
    best = math.inf
    for rec in trace.records:
        if rec.stage == 1:
            grads = rec.oracle_calls
        elif rec.ls_evals is not None:
            ls += rec.ls_evals
            grads += 1
        split = {"grad": grads, "ls_value": ls,
                 "step_value": rec.oracle_calls - grads - ls}
        if rec.f_gap is not None:
            best = min(best, rec.f_gap)
        out.append((split, best if rec.f_gap is not None else None))
    return out


def trace_counts(trace, budget: int) -> Counts:
    """Calls to each eps with their split; a run that never gets there
    contributes its whole budget as `unreached`."""
    rows = oracle_split(trace)
    c = Counts(
        trace_len=len(trace.records),
        total_calls=trace.records[-1].oracle_calls,
        termination=trace.termination,
        best_gap=rows[-1][1],
        stage2_iters=sum(1 for r in trace.records if r.ls_evals is not None),
        ls_evals=sum(r.ls_evals for r in trace.records if r.ls_evals is not None),
    )
    for eps in EPS_GRID:
        hit = next((split for split, best in rows if best is not None and best <= eps), None)
        c.split[eps] = dict(hit, unreached=0) if hit else {
            "grad": 0, "step_value": 0, "ls_value": 0, "unreached": budget}
    return c


def raised_counts(exc: BaseException, budget: int) -> Counts:
    c = Counts(raised=type(exc).__name__)
    for eps in EPS_GRID:
        c.split[eps] = {"grad": 0, "step_value": 0, "ls_value": 0, "unreached": budget}
    return c


def calls_to(counts: list[Counts], eps: float = EPS) -> int:
    return sum(sum(c.split[eps].values()) for c in counts)


def summarize(counts: list[Counts]) -> dict:
    """Workload totals of the exact counts."""
    ok = [c for c in counts if c.raised is None]
    return {
        "calls_to_eps": calls_to(counts),
        "split": {eps: {part: sum(c.split[eps][part] for c in counts)
                        for part in ("grad", "step_value", "ls_value", "unreached")}
                  for eps in EPS_GRID},
        "iters": sum(c.trace_len for c in ok),
        "stage2_iters": sum(c.stage2_iters for c in ok),
        "ls_evals": sum(c.ls_evals for c in ok),
        "oracle_calls": sum(c.total_calls for c in ok),
    }


def monitor_plan(pkg, case: Case) -> list[tuple[str, dict]]:
    """The rate_monitor bounds each trace is replayed against."""
    f = case.objective
    x0 = np.asarray(case.x0)
    r = float(np.linalg.norm(x0 - f.x_star))
    kind = pkg.cli.parse_method(case.method)
    if kind.kind in ("gd", "ngd"):
        plan = [("min_grad", {"params": f.params, "f0": f.value(x0) - f.f_star})]
        if kind.kind == "ngd":
            plan.append(("normalized", {"params": f.params, "r": r, "r_hat": kind.r_hat}))
        elif kind.rule_variant == "polyak":
            plan.append(("polyak", {"params": f.params, "r": r}))
        else:
            plan.append(("convex_gap", {"params": f.params, "r": r}))
        return plan
    if kind.kind == "two_stage":
        return [("two_stage", {"params": f.params, "r": r})]
    return [("accelerated", {"l_const": 3.0 * f.params.l0, "r": r})]


def count_pass(pkg, workload: str, cases: list[Case]):
    """Untimed pass: run every case once, in order, and keep its trace.

    For the accelerated workload each case runs first with the cap to find
    the oracle count at which it reaches gap <= EPS; that count becomes its
    budget, and the case runs again with it, which is the run the timed
    passes repeat.  Returns (counts, traces), with None for a raised case.
    """
    counts, traces = [], []
    for case in cases:
        f = case.objective
        method = pkg.cli.parse_method(case.method)
        x0 = np.asarray(case.x0)
        try:
            trace = pkg.cli.execute_method(f, method, x0, case.budget, 0.0)
            if workload == "accelerated":
                hit = trace_counts(trace, case.budget).split[EPS]
                if not hit["unreached"]:
                    case.budget = hit["grad"] + hit["step_value"] + hit["ls_value"]
                    trace = pkg.cli.execute_method(f, method, x0, case.budget, 0.0)
        except Exception as exc:  # a raised run is a counted failure, never dropped
            counts.append(raised_counts(exc, case.budget))
            traces.append(None)
            continue
        counts.append(trace_counts(trace, case.budget))
        traces.append(trace)
    return counts, traces


def gate_failures(pkg, workload: str, cases, counts, traces) -> list[str | None]:
    """Replay each trace through its monitors; first failing check per case."""
    out = []
    for case, c, trace in zip(cases, counts, traces):
        if trace is None:
            out.append(f"raised:{c.raised}")
            continue
        failure = None
        if workload == "accelerated" and not c.split[EPS]["unreached"] and not c.best_gap <= EPS:
            failure = "not_at_eps"
        for bound, kwargs in monitor_plan(pkg, case):
            rep = pkg.verify.rate_monitor(trace, bound, **kwargs)
            if failure is None and rep.n_failures and not rep.informational:
                failure = f"monitor:{rep.check_name}"
        out.append(failure)
    return out


def check_run(case: Case, c: Counts, report) -> str | None:
    """Compare one timed run_experiment result with its count-pass trace."""
    if report.termination != c.termination or report.total_oracle_calls != c.total_calls:
        return "nondeterministic_run"
    if report.best_gap != c.best_gap:
        return "nondeterministic_gap"
    with open(case.csv_path) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != c.trace_len:
        return "csv_rows"
    return None


def verify_failures(reports, certs, reference: str | None,
                    serialize) -> list[tuple[str, str | None]]:
    """(label, first failure) per operation of one verify pass: regular
    checks must pass, negative controls must fail, certificates must pass,
    and the suite's serialized reports must match the first pass byte for
    byte.  `certs` pairs each objective with its certificate or exception."""
    out = []
    same = reference is None or serialize(reports) == reference
    for rep in reports:
        if not same:
            failure = "nondeterministic_reports"
        elif rep.check_name in NEGATIVE_CONTROLS:
            failure = None if rep.n_failures > 0 else f"control_passed:{rep.check_name}"
        elif rep.n_failures and not rep.informational:
            failure = f"check:{rep.check_name}"
        else:
            failure = None
        out.append(("run_verify_suite", failure))
    for f, cert in certs:
        if isinstance(cert, Exception):
            failure = f"raised:{type(cert).__name__}"
        else:
            failure = None if cert.passes() else f"certify:{f.name}"
        out.append((f"certify_smoothness {f.name}", failure))
    return out
