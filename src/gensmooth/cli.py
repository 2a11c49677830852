"""Command-line driver: runs, figure presets, verification, certification.

Subcommands
-----------
run      execute one (problem, method) pair and emit a CSV trace
preset   run a whole figure preset (fig1/fig2/fig3) into an output directory
verify   execute the verification suites; exit 0 only if everything passes
certify  sample-check a curvature pair for a problem on a ball

Problems and methods are addressed by compact spec strings with the
grammar `name:key=value,key=value,...`.  Vector-valued keys use
semicolon-separated components (e.g. `a=3;4`).  Parse errors name the
offending token and its position and exit with status 2, as do run-time
failures such as an overflow or a failed line search.

CSV columns: k,f_val,f_gap,grad_norm,step_len,oracle_calls,stage.  Floats
are written with repr-faithful precision and no locale formatting, so a
rerun with the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .kernels import SmoothnessParams
from .problems import (
    Objective,
    affine_logistic,
    certify_smoothness,
    exp_phi,
    logistic_1d,
    power_norm,
    separable_pnorm,
)
from .first_order import GD_VARIANTS, NGD_SCHEDULES, StepRule, Trace, gd_run, ngd_run
from .agmsdr import STAGE1_RULES, STAGE1_TARGETS, agmsdr_run, two_stage_run
from . import verify as verify_mod

CSV_HEADER = "k,f_val,f_gap,grad_norm,step_len,oracle_calls,stage"


class SpecError(ValueError):
    """Malformed problem/method spec; carries the offending token position."""

    def __init__(self, spec: str, pos: int, message: str):
        super().__init__(f"bad spec {spec!r} at position {pos}: {message}")
        self.spec = spec
        self.pos = pos


def _split_spec(spec: str) -> tuple[str, dict[str, tuple[str, int]]]:
    """Name and {key: (raw value, offset of the key=value token)}."""
    name, _, rest = spec.partition(":")
    if not name:
        raise SpecError(spec, 0, "missing name")
    pairs: dict[str, tuple[str, int]] = {}
    pos = len(name) + 1
    if rest:
        for token in rest.split(","):
            key, eq, val = token.partition("=")
            if not key or not eq or not val:
                raise SpecError(spec, pos, f"token {token!r} is not key=value")
            if key in pairs:
                raise SpecError(spec, pos, f"duplicate key {key!r}")
            pairs[key] = (val, pos)
            pos += len(token) + 1
    return name, pairs


REQUIRED = object()  # default marker of a key the spec must give


def _float_list(raw: str) -> list[float]:
    return [float(part) for part in raw.split(";")]


def _bind(spec: str, name: str, pairs: dict[str, tuple[str, int]], keys: dict) -> dict:
    """Convert the spec's pairs by the `keys` table of `name`.

    `keys` maps spec key -> (field, converter or tuple of allowed values,
    default or REQUIRED); the result maps each field to its value.
    """
    values = {}
    for key, (field, convert, default) in keys.items():
        if key not in pairs:
            if default is REQUIRED:
                raise SpecError(spec, 0, f"missing required key {key!r}")
            values[field] = default
            continue
        raw, pos = pairs[key]
        pos += len(key) + 1
        if isinstance(convert, tuple):
            if raw not in convert:
                raise SpecError(
                    spec, pos, f"unknown {name} {key} {raw!r} (expected {'|'.join(convert)})"
                )
            values[field] = raw
            continue
        try:
            values[field] = convert(raw)
        except ValueError as exc:
            raise SpecError(spec, pos, f"key {key!r}: {exc}") from exc
    for key, (_, pos) in pairs.items():
        if key not in keys:
            raise SpecError(spec, pos, f"unknown key {key!r}")
    return values


_PNORM_KEYS = {
    "d": ("dim", int, REQUIRED),
    "p": ("p", float, REQUIRED),
    "l1": ("l1", float, REQUIRED),
}

# problem name -> (builder, {spec key: (builder argument, converter, default)})
PROBLEMS = {
    "power_norm": (power_norm, _PNORM_KEYS),
    "logistic": (logistic_1d, {"l1": ("l1", float, 0.0)}),
    "affine_logistic": (
        affine_logistic,
        {
            "a": ("a", _float_list, REQUIRED),
            "b": ("b", float, 0.0),
            "l1": ("l1", float, REQUIRED),
        },
    ),
    "exp_phi": (
        lambda dim, l0, l1: exp_phi(dim, SmoothnessParams(l0, l1)),
        {
            "d": ("dim", int, REQUIRED),
            "l0": ("l0", float, REQUIRED),
            "l1": ("l1", float, REQUIRED),
        },
    ),
    "separable_pnorm": (separable_pnorm, _PNORM_KEYS),
}


def parse_problem(spec: str) -> Objective:
    """Build an objective from a spec string; `PROBLEMS` lists the names and keys."""
    name, pairs = _split_spec(spec)
    if name not in PROBLEMS:
        raise SpecError(spec, 0, f"unknown problem {name!r}")
    builder, keys = PROBLEMS[name]
    values = _bind(spec, name, pairs, keys)
    try:
        return builder(**values)
    except ValueError as exc:
        raise SpecError(spec, 0, str(exc)) from exc


@dataclass(frozen=True)
class MethodSpec:
    """Parsed method description; `kind` is gd/ngd/agmsdr/two_stage.

    Fields a kind does not take stay None; `METHODS` holds the defaults.
    """

    kind: str
    rule_variant: str | None = None
    l0: float | None = None
    l1: float | None = None
    f_star: float | None = None
    r_hat: float | None = None
    schedule: str | None = None
    horizon: int | None = None
    l_const: float | None = None
    ls_tol: float | None = None
    ls_max: int | None = None
    target: str | None = None


_SEGMENT_KEYS = {
    "l": ("l_const", float, None),
    "ls_tol": ("ls_tol", float, 1e-10),
    "ls_max": ("ls_max", int, 60),
}

# method kind -> {spec key: (MethodSpec field, converter or choices, default)}
METHODS = {
    "gd": {
        "rule": ("rule_variant", GD_VARIANTS, REQUIRED),
        "l0": ("l0", float, None),
        "l1": ("l1", float, None),
        "f_star": ("f_star", float, None),
    },
    "ngd": {
        "r_hat": ("r_hat", float, REQUIRED),
        "schedule": ("schedule", NGD_SCHEDULES, REQUIRED),
        "horizon": ("horizon", int, None),
    },
    "agmsdr": _SEGMENT_KEYS,
    "two_stage": {
        **_SEGMENT_KEYS,
        "rule": ("rule_variant", STAGE1_RULES, "simplified"),
        "target": ("target", STAGE1_TARGETS, "auto"),
    },
}


def parse_method(spec: str) -> MethodSpec:
    """Parse a method spec string; `METHODS` lists the kinds and keys."""
    name, pairs = _split_spec(spec)
    if name not in METHODS:
        raise SpecError(spec, 0, f"unknown method {name!r}")
    method = MethodSpec(kind=name, **_bind(spec, name, pairs, METHODS[name]))
    if method.schedule == "fixed" and method.horizon is None:
        raise SpecError(spec, 0, "fixed schedule requires horizon")
    return method


@dataclass
class RunConfig:
    """One experiment: problem, method, start, budget, output."""

    problem_spec: str
    method_spec: str
    radius: float | None = None
    x0: list[float] | None = None
    budget: int = 10**5
    grad_tol: float = 0.0
    seed: int = 0
    output_path: str = "trace.csv"
    label: str = ""

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RunReport:
    config: RunConfig
    termination: str
    best_gap: float | None
    total_oracle_calls: int
    wall_time: float
    csv_path: str

    def summary(self) -> str:
        gap = "unknown" if self.best_gap is None else format(self.best_gap, ".6g")
        return (
            f"problem={self.config.problem_spec} method={self.config.method_spec} "
            f"termination={self.termination} best_gap={gap} "
            f"oracle_calls={self.total_oracle_calls} csv={self.csv_path}"
        )


def initial_point(f: Objective, cfg: RunConfig) -> np.ndarray:
    """Explicit vector if given, else radius times the first coordinate axis."""
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
        if x0.shape != (f.dim,):
            raise ValueError(f"x0 has dimension {x0.size}, problem wants {f.dim}")
        return x0
    if cfg.radius is None:
        raise ValueError("config needs either x0 or radius")
    x0 = np.zeros(f.dim)
    x0[0] = cfg.radius
    return x0


def _resolve_params(f: Objective, l0: float | None, l1: float | None) -> SmoothnessParams:
    """The problem's constants with any given l0/l1 overriding them."""
    base = f.params
    if base is None and (l0 is None or l1 is None):
        raise ValueError("problem carries no constants: give both l0 and l1")
    if l0 is None and l1 is None:
        return base
    return SmoothnessParams(base.l0 if l0 is None else l0, base.l1 if l1 is None else l1)


def execute_method(f: Objective, method: MethodSpec, x0: np.ndarray,
                   budget: int, grad_tol: float) -> Trace:
    if method.kind == "gd":
        params = None
        if method.rule_variant != "polyak":
            params = _resolve_params(f, method.l0, method.l1)
        rule = StepRule(
            variant=method.rule_variant, params=params, f_star=method.f_star
        )
        return gd_run(f, rule, x0, budget, grad_tol=grad_tol)
    if method.kind == "ngd":
        return ngd_run(
            f, method.r_hat, method.schedule, x0, budget, horizon=method.horizon
        )
    if method.kind == "agmsdr":
        params = _resolve_params(f, method.l0, method.l1)
        l_const = method.l_const if method.l_const is not None else 3.0 * params.l0
        return agmsdr_run(
            f, x0, l_const, budget,
            ls_tol=method.ls_tol, ls_max_evals=method.ls_max, t_params=params,
        )
    if method.kind == "two_stage":
        return two_stage_run(
            f, x0, _resolve_params(f, method.l0, method.l1), budget,
            l_const=method.l_const, rule=method.rule_variant, target=method.target,
            ls_tol=method.ls_tol, ls_max_evals=method.ls_max,
        )
    raise ValueError(f"unknown method kind {method.kind!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def write_csv(trace: Trace, path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for rec in trace.records:
        row = (rec.k, rec.f_val, rec.f_gap, rec.grad_norm, rec.step_len,
               rec.oracle_calls, rec.stage)
        if None in row:
            lines.append(",".join([str(rec.k), *map(_fmt, row[1:5]),
                                   str(rec.oracle_calls), str(rec.stage)]))
        else:
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,%d,%d" % row)
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: RunConfig) -> RunReport:
    """Parse, run, write the CSV trace, and return the structured report."""
    f = parse_problem(cfg.problem_spec)
    method = parse_method(cfg.method_spec)
    x0 = initial_point(f, cfg)
    start = time.perf_counter()
    trace = execute_method(f, method, x0, cfg.budget, cfg.grad_tol)
    elapsed = time.perf_counter() - start
    write_csv(trace, cfg.output_path)
    best_gap = None
    if all(rec.f_gap is not None for rec in trace.records):
        best_gap = min(rec.f_gap for rec in trace.records)
    return RunReport(
        config=cfg,
        termination=trace.termination,
        best_gap=best_gap,
        total_oracle_calls=trace.records[-1].oracle_calls,
        wall_time=elapsed,
        csv_path=str(cfg.output_path),
    )


def _fig_l0(p: float, l1: float) -> float:
    return ((p - 2.0) / l1) ** (p - 2.0)


def preset_figure(which: str, out_dir: str | Path = ".") -> list[RunConfig]:
    """Experiment presets.

    fig1: p in {4,6,8} on (1/p)||x||^p, R = 10, l1 = 1; all four gradient
          rules, the normalized method with r_hat = 2R and beta_k =
          r_hat/(k+1), and the two-stage procedure.
    fig2: the same objectives, optimal-rule runs across l1 in
          {1,2,4,8,16} with the matching minimal l0 per panel.
    fig3: p = 6, R in {5,100,500}; optimal-rule descent against the
          two-stage procedure with the heavier scaling constant 4*l0.

    Baselines from other software (similar-triangle variants) are out of
    scope here; emitted metadata notes the omission.
    """
    out = Path(out_dir)
    configs: list[RunConfig] = []
    if which == "fig1":
        r = 10.0
        l1 = 1.0
        for p in (4, 6, 8):
            problem = f"power_norm:d=2,p={p},l1={l1:g}"
            methods = [
                ("gd_optimal", "gd:rule=optimal"),
                ("gd_simplified", "gd:rule=simplified"),
                ("gd_clipped", "gd:rule=clipped"),
                ("gd_polyak", "gd:rule=polyak"),
                ("ngd", f"ngd:r_hat={2 * r:g},schedule=linear"),
                ("two_stage", "two_stage:"),
            ]
            for label, method in methods:
                configs.append(
                    RunConfig(
                        problem_spec=problem,
                        method_spec=method,
                        radius=r,
                        budget=10**5,
                        output_path=str(out / f"fig1_p{p}_{label}.csv"),
                        label=f"fig1 p={p} {label}",
                    )
                )
        return configs
    if which == "fig2":
        r = 10.0
        for p in (4, 6, 8):
            problem = f"power_norm:d=2,p={p},l1=1"
            for l1 in (1, 2, 4, 8, 16):
                l0 = _fig_l0(p, l1)
                configs.append(
                    RunConfig(
                        problem_spec=problem,
                        method_spec=f"gd:rule=optimal,l0={l0:.17g},l1={l1:g}",
                        radius=r,
                        budget=10**5,
                        output_path=str(out / f"fig2_p{p}_l1_{l1}.csv"),
                        label=f"fig2 p={p} l1={l1}",
                    )
                )
        return configs
    if which == "fig3":
        p = 6
        l1 = 1.0
        l0 = _fig_l0(p, l1)
        problem = f"power_norm:d=2,p={p},l1={l1:g}"
        for r in (5, 100, 500):
            for label, method in (
                ("gd_optimal", "gd:rule=optimal"),
                ("two_stage", f"two_stage:l={4 * l0:g}"),
            ):
                configs.append(
                    RunConfig(
                        problem_spec=problem,
                        method_spec=method,
                        radius=float(r),
                        budget=10**5,
                        output_path=str(out / f"fig3_R{r}_{label}.csv"),
                        label=f"fig3 R={r} {label}",
                    )
                )
        return configs
    raise ValueError(f"unknown preset {which!r} (expected fig1, fig2 or fig3)")


SHIPPED_FOR_VERIFY = (
    "power_norm:d=2,p=4,l1=1",
    "power_norm:d=2,p=6,l1=1",
    "power_norm:d=2,p=8,l1=1",
    "logistic:l1=0.5",
    "affine_logistic:a=3;0,b=0,l1=1",
    "exp_phi:d=2,l0=1,l1=1",
    "separable_pnorm:d=3,p=4,l1=1",
)


def run_verify_suite(
    scope: str = "all",
    seed: int = 0,
    report_path: str | Path | None = None,
    negative_controls: bool = False,
) -> tuple[int, list[verify_mod.CheckReport]]:
    """Execute the verification suites; returns (exit_code, reports).

    Exit code 0 exactly when every non-informational check passes.  With
    `negative_controls`, a corrupted gradient and a halved curvature floor
    are pushed through the same machinery; they are expected to fail, and
    the suite exits nonzero to prove the checks can fail.
    """
    if scope not in ("kernels", "lemmas", "theorems", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    reports: list[verify_mod.CheckReport] = []

    if scope in ("kernels", "all"):
        reports.extend(verify_mod.kernel_bound_checks())
        reports.append(verify_mod.conjugate_grid_consistency(seed=seed))

    if scope in ("lemmas", "all"):
        for spec in SHIPPED_FOR_VERIFY:
            f = parse_problem(spec)
            reports.append(verify_mod.fd_gradient_check(f, n_points=50, seed=seed))
            reports.append(
                verify_mod.check_smoothness_envelopes(f, f.params, n_pairs=1000, seed=seed)
            )
            reports.append(
                verify_mod.check_convex_lower_bounds(f, f.params, n_pairs=1000, seed=seed)
            )

    if scope in ("theorems", "all"):
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        x0 = np.zeros(2)
        x0[0] = 10.0
        r = 10.0
        f0 = f.value(x0)
        for variant in ("optimal", "simplified"):
            trace = gd_run(f, StepRule(variant=variant, params=f.params), x0, 4000)
            reports.append(
                verify_mod.rate_monitor(trace, "min_grad", params=f.params, f0=f0)
            )
            reports.append(
                verify_mod.rate_monitor(trace, "convex_gap", params=f.params, r=r)
            )
        trace = gd_run(f, StepRule(variant="polyak"), x0, 4000)
        reports.append(verify_mod.rate_monitor(trace, "polyak", params=f.params, r=r))
        trace = ngd_run(f, r, "fixed", x0, 10**4, horizon=1000)
        reports.append(
            verify_mod.rate_monitor(trace, "normalized", params=f.params, r=r, r_hat=r)
        )
        p6 = parse_problem("power_norm:d=2,p=6,l1=1")
        trace = two_stage_run(p6, x0, p6.params, budget=10**5)
        reports.append(verify_mod.rate_monitor(trace, "two_stage", params=p6.params, r=r))

    if negative_controls:
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        broken = Objective(
            dim=f.dim,
            value=f.value,
            gradient=lambda x: f.gradient(x) + np.eye(f.dim)[0] * 0.01,
            hessian=f.hessian,
            f_star=f.f_star,
            x_star=f.x_star,
            params=f.params,
            name="corrupted_gradient",
        )
        reports.append(verify_mod.fd_gradient_check(broken, n_points=50, seed=seed))
        halved = SmoothnessParams(f.params.l0 / 2.0, f.params.l1)
        rep = verify_mod.check_smoothness_envelopes(
            f, halved, n_pairs=1000, seed=seed, radius=3.0
        )
        rep.check_name = "negative_control_halved_l0"
        reports.append(rep)

    failures = sum(r.n_failures for r in reports if not r.informational)
    if report_path is not None:
        Path(report_path).write_text(verify_mod.serialize_reports(reports))
    return (0 if failures == 0 else 1), reports


def _add_run_flags(sub):
    sub.add_argument("--problem", help="problem spec, e.g. power_norm:d=2,p=4,l1=1")
    sub.add_argument("--method", help="method spec, e.g. gd:rule=optimal")
    sub.add_argument("--radius", type=float, help="start at radius*e1")
    sub.add_argument("--x0", type=_float_list, help="explicit start, semicolon-separated")
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--grad-tol", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", help="CSV output path")
    sub.add_argument("--config", help="JSON file with RunConfig fields; flags override")


# `run` flag (argparse dest) -> the RunConfig field it overrides
_RUN_FLAGS = (
    ("problem", "problem_spec"),
    ("method", "method_spec"),
    ("radius", "radius"),
    ("x0", "x0"),
    ("budget", "budget"),
    ("grad_tol", "grad_tol"),
    ("seed", "seed"),
    ("out", "output_path"),
)


def _config_from_args(args) -> RunConfig:
    data: dict = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
    cfg = RunConfig.from_json(data) if data else RunConfig(problem_spec="", method_spec="")
    for flag, field in _RUN_FLAGS:
        if getattr(args, flag) is not None:
            setattr(cfg, field, getattr(args, flag))
    if not cfg.problem_spec or not cfg.method_spec:
        raise SpecError(cfg.problem_spec or cfg.method_spec, 0,
                        "both --problem and --method are required")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gensmooth",
        description="first-order methods and rate verification for generalized-smooth problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run one experiment, write a CSV trace")
    _add_run_flags(run_p)

    preset_p = subs.add_parser("preset", help="run a figure preset")
    preset_p.add_argument("which", choices=("fig1", "fig2", "fig3"))
    preset_p.add_argument("--out-dir", default="results")
    preset_p.add_argument("--budget", type=int, default=None, help="override preset budgets")

    verify_p = subs.add_parser("verify", help="run the verification suites")
    verify_p.add_argument(
        "--scope", choices=("kernels", "lemmas", "theorems", "all"), default="all"
    )
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--report", default=None, help="write the line report here")
    verify_p.add_argument(
        "--negative-controls",
        action="store_true",
        help="also run checks that must fail (exit nonzero proves they can)",
    )

    cert_p = subs.add_parser("certify", help="sample-check a curvature pair on a ball")
    cert_p.add_argument("--problem", required=True)
    cert_p.add_argument("--radius", type=float, default=5.0)
    cert_p.add_argument("--samples", type=int, default=10**4)
    cert_p.add_argument("--seed", type=int, default=0)
    cert_p.add_argument("--l0", type=float, default=None, help="override the problem's l0")
    cert_p.add_argument("--l1", type=float, default=None, help="override the problem's l1")
    cert_p.add_argument("--tol", type=float, default=1e-8)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            report = run_experiment(cfg)
            print(report.summary())
            return 0
        if args.command == "preset":
            configs = preset_figure(args.which, out_dir=args.out_dir)
            meta = {
                "preset": args.which,
                "note": "similar-triangle baselines omitted (out of scope); "
                "dimension fixed at d=2 (objectives are rotation-invariant)",
                "configs": [],
            }
            for cfg in configs:
                if args.budget is not None:
                    cfg.budget = args.budget
                report = run_experiment(cfg)
                print(report.summary())
                meta["configs"].append(cfg.to_json())
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{args.which}_meta.json").write_text(
                json.dumps(meta, indent=2) + "\n"
            )
            return 0
        if args.command == "verify":
            code, reports = run_verify_suite(
                scope=args.scope,
                seed=args.seed,
                report_path=args.report,
                negative_controls=args.negative_controls,
            )
            for rep in reports:
                status = "info" if rep.informational else ("ok" if rep.passed else "FAIL")
                print(f"{status:4} {rep.line()}")
            return code
        if args.command == "certify":
            f = parse_problem(args.problem)
            params = _resolve_params(f, args.l0, args.l1)
            report = certify_smoothness(f, params, args.radius, args.samples, args.seed)
            status = "ok" if report.passes(args.tol) else "FAIL"
            print(
                f"{status} problem={args.problem} l0={params.l0:g} l1={params.l1:g} "
                f"radius={report.region_radius:g} samples={report.n_samples} "
                f"max_violation={report.max_violation:.6g}"
            )
            return 0 if report.passes(args.tol) else 1
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
