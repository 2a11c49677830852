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
failures such as an overflow or an accelerated step that raised the value.

CSV columns: k,f_val,f_gap,grad_norm,step_len,oracle_calls,stage.  Cells
are byte for byte what '%d' and '%.17g' print: repr-faithful floats, no
locale formatting.  Files are written as bytes, so no newline translation
touches them, and a rerun with the same config produces byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass, replace
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
from .first_order import (
    GD_VARIANTS, NGD_SCHEDULES, OPTIONAL, StepRule, Trace, gd_run, ngd_run,
)
from .agmsdr import agmsdr_run, two_stage_run
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
    "agmsdr": {"l": ("l_const", float, None)},
    "two_stage": {"l": ("l_const", float, None)},
}


def parse_method(spec: str) -> MethodSpec:
    """Parse a method spec string; `METHODS` lists the kinds and keys."""
    name, pairs = _split_spec(spec)
    if name not in METHODS:
        raise SpecError(spec, 0, f"unknown method {name!r}")
    method = MethodSpec(kind=name, **_bind(spec, name, pairs, METHODS[name]))
    if method.schedule == "fixed" and method.horizon is None:
        raise SpecError(spec, 0, "fixed schedule requires horizon")
    for key, (_, pos) in pairs.items():  # keys the method would ignore
        if method.rule_variant == "polyak" and key in ("l0", "l1"):
            raise SpecError(spec, pos, f"rule=polyak takes no {key}")
        if key == "horizon" and method.schedule != "fixed":
            raise SpecError(spec, pos, "horizon applies only to schedule=fixed")
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
    def from_json(cls, data) -> "RunConfig":
        """A config from a JSON object, each field checked for its type."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for field, (flag, kind, _) in _RUN_FLAGS.items():
            default = getattr(cls, field, REQUIRED)
            value = data.get(field, default)
            if value is REQUIRED:
                raise ValueError(f"missing {field} (flag {flag})")
            if value is not default and not _fits(value, kind):
                raise ValueError(f"config field {field} must be {_TYPE_NAMES[kind]}: {value!r}")
        return cls(**data)


@dataclass
class RunReport:
    config: RunConfig
    termination: str
    best_gap: float | None
    total_oracle_calls: int

    def summary(self) -> str:
        gap = "unknown" if self.best_gap is None else format(self.best_gap, ".6g")
        return (
            f"problem={self.config.problem_spec} method={self.config.method_spec} "
            f"termination={self.termination} best_gap={gap} "
            f"oracle_calls={self.total_oracle_calls} csv={self.config.output_path}"
        )


def initial_point(f: Objective, cfg: RunConfig) -> np.ndarray:
    """Explicit vector if given, else radius times the first coordinate axis;
    a config that gives both is refused."""
    if cfg.x0 is not None and cfg.radius is not None:
        raise ValueError("config gives both x0 and radius: give one start")
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
    """The method's trace.  A diverging run overflows to inf and nan in numpy
    arithmetic, which the trace records; numpy's warnings for it are muted.
    Only `gd` stops at `grad_tol` (>= 0); a positive one is an error for the rest."""
    if not grad_tol >= 0:
        raise ValueError(f"grad_tol must be nonnegative, got {grad_tol}")
    if grad_tol > 0 and method.kind != "gd":
        raise ValueError(f"grad_tol applies only to gd, not {method.kind}")
    if method.kind == "gd":
        params = None
        if method.rule_variant != "polyak":
            params = _resolve_params(f, method.l0, method.l1)
        rule = StepRule(variant=method.rule_variant, params=params, f_star=method.f_star)
        return gd_run(f, rule, x0, budget, grad_tol=grad_tol)
    if method.kind == "ngd":
        return ngd_run(f, method.r_hat, method.schedule, x0, budget, horizon=method.horizon)
    if method.kind == "agmsdr":
        return agmsdr_run(f, x0, method.l_const, budget,
                          t_params=_resolve_params(f, method.l0, method.l1))
    if method.kind == "two_stage":
        return two_stage_run(f, x0, _resolve_params(f, method.l0, method.l1), budget,
                             l_const=method.l_const)
    raise ValueError(f"unknown method kind {method.kind!r}")


CSV_CHUNK = 1024  # rows write_csv formats at a time


def write_csv(trace: Trace, path: str | Path):
    """The trace as CSV, written as bytes, CSV_CHUNK rows at a time by
    `csvformat.csv_rows`."""
    from .csvformat import csv_rows  # compiled, and its tables built, on the first write

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = CSV_HEADER.split(",")
    with path.open("wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for start in range(0, len(trace), CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            fh.write(csv_rows([getattr(trace, name)[rows] for name in names],
                              [trace.present(name, rows) if name in OPTIONAL else None
                               for name in names]))


def run_config(cfg: RunConfig) -> tuple[Objective, MethodSpec, Trace]:
    """The one run path: parse both specs, start at `initial_point`, run the method."""
    if cfg.budget < 0:
        raise ValueError(f"budget must be nonnegative, got {cfg.budget}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")
    f = parse_problem(cfg.problem_spec)
    method = parse_method(cfg.method_spec)
    x0 = initial_point(f, cfg)
    return f, method, execute_method(f, method, x0, cfg.budget, cfg.grad_tol)


def run_experiment(cfg: RunConfig) -> RunReport:
    """Run the config, write its CSV trace, and return the structured report."""
    trace = run_config(cfg)[2]
    write_csv(trace, cfg.output_path)
    gaps = trace.column("f_gap")
    return RunReport(config=cfg, termination=trace.termination,
                     best_gap=None if None in gaps else min(gaps),
                     total_oracle_calls=int(trace.oracle_calls[-1]))


# Figure presets, one row per run: (file stem, label, problem spec, method
# spec, radius); every run starts at radius*e1 with a budget of 10^5.
#   fig1: p in {4,6,8} on (1/p)||x||^p, R = 10, l1 = 1; all four gradient
#         rules, the normalized method with r_hat = 2R and beta_k =
#         r_hat/(k+1), and the two-stage procedure.  The normalized steps 2R, R
#         go 10*e1 -> -10*e1 -> x* = 0: StationaryExact after 3 calls, any p.
#   fig2: the same objectives, optimal-rule runs across l1 in
#         {1,2,4,8,16} with the matching minimal l0 per panel.
#   fig3: p = 6, R in {5,100,500}; optimal-rule descent against the
#         two-stage procedure with the heavier scaling constant 4*l0.
# Baselines from other software (similar-triangle variants) are out of
# scope here; emitted metadata notes the omission.
PRESETS = {
    "fig1": [
        (f"fig1_p{p}_{name}", f"fig1 p={p} {name}", f"power_norm:d=2,p={p},l1=1", method, 10.0)
        for p in (4, 6, 8)
        for name, method in (
            ("gd_optimal", "gd:rule=optimal"),
            ("gd_simplified", "gd:rule=simplified"),
            ("gd_clipped", "gd:rule=clipped"),
            ("gd_polyak", "gd:rule=polyak"),
            ("ngd", "ngd:r_hat=20,schedule=linear"),
            ("two_stage", "two_stage:"),
        )
    ],
    "fig2": [
        (f"fig2_p{p}_l1_{l1}", f"fig2 p={p} l1={l1}", f"power_norm:d=2,p={p},l1=1",
         f"gd:rule=optimal,l0={power_norm(2, p, l1).params.l0:.17g},l1={l1}", 10.0)
        for p in (4, 6, 8)
        for l1 in (1, 2, 4, 8, 16)
    ],
    "fig3": [
        (f"fig3_R{r}_{name}", f"fig3 R={r} {name}", "power_norm:d=2,p=6,l1=1", method, float(r))
        for r in (5, 100, 500)
        for name, method in (
            ("gd_optimal", "gd:rule=optimal"),
            ("two_stage", f"two_stage:l={4 * power_norm(2, 6, 1).params.l0:g}"),
        )
    ],
}


def preset_figure(which: str, out_dir: str | Path = ".") -> list[RunConfig]:
    """The runs of preset `which` (a key of `PRESETS`), writing into `out_dir`."""
    if which not in PRESETS:
        raise ValueError(f"unknown preset {which!r} (expected {'|'.join(PRESETS)})")
    return [
        RunConfig(problem, method, radius=radius,
                  output_path=str(Path(out_dir) / f"{stem}.csv"), label=label)
        for stem, label, problem, method, radius in PRESETS[which]
    ]


SHIPPED_FOR_VERIFY = (
    "power_norm:d=2,p=4,l1=1",
    "power_norm:d=2,p=6,l1=1",
    "power_norm:d=2,p=8,l1=1",
    "logistic:l1=0.5",
    "affine_logistic:a=3;0,b=0,l1=1",
    "exp_phi:d=2,l0=1,l1=1",
    "separable_pnorm:d=3,p=4,l1=1",
)


# The rate theorems' runs: (config, the `verify.rate_monitor` bounds replayed
# on its trace).  The monitors take R = ||x0 - x*|| from the trace's first row.
_P4 = "power_norm:d=2,p=4,l1=1"
THEOREM_RUNS = (
    (RunConfig(_P4, "gd:rule=optimal", radius=10.0, budget=4000), ("min_grad", "convex_gap")),
    (RunConfig(_P4, "gd:rule=simplified", radius=10.0, budget=4000), ("min_grad", "convex_gap")),
    (RunConfig(_P4, "gd:rule=polyak", radius=10.0, budget=4000), ("polyak",)),
    (RunConfig(_P4, "ngd:r_hat=10,schedule=fixed,horizon=1000", radius=10.0, budget=10**4),
     ("normalized",)),
    (RunConfig("power_norm:d=2,p=6,l1=1", "two_stage:", radius=10.0, budget=8000),
     ("two_stage",)),
)


SCOPES = ("kernels", "lemmas", "theorems", "all")


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
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    reports: list[verify_mod.CheckReport] = []

    if scope in ("kernels", "all"):
        reports.extend(verify_mod.kernel_bound_checks())
        reports.append(verify_mod.conjugate_grid_consistency(seed=seed))

    if scope in ("lemmas", "all"):
        for spec in SHIPPED_FOR_VERIFY:
            f = parse_problem(spec)
            reports.append(verify_mod.fd_gradient_check(f, n_points=50, seed=seed))
            reports.append(verify_mod.check_smoothness_envelopes(f, f.params, seed=seed))
            reports.append(verify_mod.check_convex_lower_bounds(f, f.params, seed=seed))

    if scope in ("theorems", "all"):
        for cfg, bounds in THEOREM_RUNS:
            f, method, trace = run_config(cfg)
            f0, r = trace.column("f_gap", slice(1))[0], trace.column("dist_opt", slice(1))[0]
            reports.extend(verify_mod.rate_monitor(trace, bound, params=f.params, f0=f0, r=r,
                                                   r_hat=method.r_hat) for bound in bounds)

    if negative_controls:
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        broken = replace(f, gradient=lambda x: f.gradient(x) + np.eye(f.dim)[0] * 0.01,
                         name="corrupted_gradient")
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


# RunConfig field -> (`run` flag, type, help).  The type converts the flag
# and is the type a --config file must give the field; label has no flag.
_RUN_FLAGS = {
    "problem_spec": ("--problem", str, "problem spec, e.g. power_norm:d=2,p=4,l1=1"),
    "method_spec": ("--method", str, "method spec, e.g. gd:rule=optimal"),
    "radius": ("--radius", float, "start at radius*e1"),
    "x0": ("--x0", _float_list, "explicit start, semicolon-separated"),
    "budget": ("--budget", int, None),
    "grad_tol": ("--grad-tol", float, None),
    "seed": ("--seed", int, None),
    "output_path": ("--out", str, "CSV output path"),
    "label": (None, str, None),
}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               _float_list: "a list of numbers"}


def _fits(value, kind) -> bool:
    """Whether a JSON value has the type that `kind` converts a flag to."""
    if kind is _float_list:
        return isinstance(value, list) and all(_fits(v, float) for v in value)
    numeric = (int, float) if kind is float else kind
    return isinstance(value, numeric) and not isinstance(value, bool)


def _config_from_args(args) -> RunConfig:
    """The --config file's fields, then the flags given over them, checked once."""
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(data, dict):  # from_json rejects anything else
        for field, (flag, _, _) in _RUN_FLAGS.items():
            if flag and getattr(args, field) is not None:
                data[field] = getattr(args, field)
    return RunConfig.from_json(data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gensmooth",
        description="first-order methods and rate verification for generalized-smooth problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run one experiment, write a CSV trace")
    for field, (flag, kind, text) in _RUN_FLAGS.items():
        if flag:
            run_p.add_argument(flag, dest=field, type=kind, help=text)
    run_p.add_argument("--config", help="JSON file with RunConfig fields; flags override")

    preset_p = subs.add_parser("preset", help="run a figure preset")
    preset_p.add_argument("which", choices=tuple(PRESETS))
    preset_p.add_argument("--out-dir", default="results")
    preset_p.add_argument("--budget", type=int, default=None, help="override preset budgets")

    verify_p = subs.add_parser("verify", help="run the verification suites")
    verify_p.add_argument("--scope", choices=SCOPES, default="all")
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
    # "-1;2", "-inf" and "-1e-300" are values: -h is the one option of one dash
    run_p._negative_number_matcher = cert_p._negative_number_matcher = re.compile(r"^-[^-]")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            print(run_experiment(_config_from_args(args)).summary())
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
                print(run_experiment(cfg).summary())
                meta["configs"].append(cfg.to_json())
            # every run above wrote its CSV into out_dir, creating it
            (Path(args.out_dir) / f"{args.which}_meta.json").write_text(
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
