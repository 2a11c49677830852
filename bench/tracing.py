"""Spans around the package's layer boundaries, recorded from outside.

`install` wraps objectives (with dataclasses.replace) and patches module
attributes of the imported package; `restore` puts every original back.
A span is (name, parent, start, end, work): `work` is the unit the layer
metric divides by (oracle evaluations, trace records, sampled cases, CSV
rows, kernel elements).  Spans live in flat arrays in memory and are
written once, when the run ends.  A span's self time is its duration minus
the durations of its direct children.  Metrics scale every duration by
the host-normalization factor of the traced passes (see run.py), so they
compare across runs like the end-to-end times.

The untraced run never calls `install`, so its timings carry no wrapper.
"""

from __future__ import annotations

import dataclasses
import os
from array import array
from time import perf_counter

import numpy as np

EPS_LABELS = {1e-1: "1e-1", 1e-2: "1e-2", 1e-3: "1e-3"}
FAMILIES = ("power_norm", "separable_pnorm", "exp_phi", "affine_logistic", "logistic")
GD_RULES = ("optimal", "simplified", "clipped", "polyak")
MONITORS = ("min_grad", "convex_gap", "normalized", "polyak", "accelerated", "two_stage")
METHOD_SPANS = ("first_order.gd_run", "first_order.ngd_run",
                "agmsdr.agmsdr_run", "agmsdr.two_stage_run")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"problems.{op}.{stat}", unit, "lower")
     for op in ("value", "gradient", "hessian")
     for stat, unit in (("calls", "count"), ("us_per_call", "us"))]
    + [(f"problems.{fam}.{op}_us", "us", "lower")
       for fam in FAMILIES for op in ("value", "gradient")]
    + [("problems.certify.us_per_case", "us", "lower"),
       ("problems.spectral_norm.us_per_call", "us", "lower")]
    + [(f"first_order.loop.self_us_per_iter.{m}", "us", "lower")
       for m in [f"gd_{r}" for r in GD_RULES] + ["ngd"]]
    + [("first_order.stepsize.us_per_call", "us", "lower"),
       ("first_order.iters", "count", "lower"),
       ("agmsdr.line_search.calls", "count", "lower"),
       ("agmsdr.line_search.evals_per_call", "evals/call", "lower"),
       ("agmsdr.line_search.self_us_per_call", "us", "lower"),
       ("agmsdr.loop.self_us_per_iter", "us", "lower"),
       ("agmsdr.iters", "count", "lower"),
       ("agmsdr.ls_share", "ratio", "lower"),
       ("calls_to_eps", "count", "lower")]
    + [(f"calls_to_eps.{label}.{part}", "count", "lower")
       for label in EPS_LABELS.values()
       for part in ("grad", "step_value", "ls_value", "unreached")]
    + [(f"verify.{check}.us_per_case", "us", "lower")
       for check in ("fd_gradient", "envelopes", "lower_bounds", "conjugate_grid")]
    + [("verify.kernel_checks.s", "s", "lower")]
    + [(f"verify.monitor.{b}.us_per_record", "us", "lower") for b in MONITORS]
    + [("verify.methods.s", "s", "lower"),
       ("verify.cases", "count", "lower"),
       ("kernels.scalar.calls", "count", "lower"),
       ("kernels.scalar.us_per_call", "us", "lower"),
       ("kernels.array.elems_per_s", "1/s", "higher"),
       ("cli.parse.us_per_call", "us", "lower"),
       ("cli.write_csv.us_per_row", "us", "lower"),
       ("cli.write_csv.bytes", "bytes", "lower"),
       ("cli.run.s_p50", "s", "lower"),
       ("cli.run.s_tail", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class Recorder:
    """In-memory span store; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.work = array("d")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.csv_bytes = 0
        self.capture: list | None = None  # top-level method traces, when set

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self.stack.pop()

    def traced(self, name, fn, work=None, tag=None, capture=False):
        """Wrap `fn` in a span; `tag(*args)` suffixes the name per call and
        `work(result, *args)` sets the span's work count."""
        fixed = self.intern(name)

        def wrapper(*args, **kwargs):
            nid = fixed if tag is None else self.intern(f"{name}:{tag(*args, **kwargs)}")
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                self.work[i] = work(out, *args, **kwargs)
            if capture and self.capture is not None:
                self.capture.append(out)
            return out

        return wrapper

    def phase(self, name: str):
        """Root span around a whole pass; returns its closer."""
        i = self.open(self.intern(f"phase:{name}"))
        return lambda: self.close(i)

    def wrap_objective(self, f):
        family = f.name.split("(")[0]
        return dataclasses.replace(
            f,
            value=self.traced(f"problems.value:{family}", f.value, work=_one),
            gradient=self.traced(f"problems.gradient:{family}", f.gradient, work=_one),
            hessian=(None if f.hessian is None else
                     self.traced(f"problems.hessian:{family}", f.hessian, work=_one)),
        )

    def save(self, path):
        """Write every span once, as a structured numpy array plus names."""
        table = np.empty(len(self.end), dtype=[("name", "i4"), ("parent", "i4"),
                                                ("start", "f8"), ("end", "f8"),
                                                ("work", "f8")])
        table["name"], table["parent"] = self.name, self.parent
        table["start"], table["end"], table["work"] = self.start, self.end, self.work
        np.savez(path, spans=table, names=np.array(self.names))


def _one(*_args, **_kwargs):
    return 1.0


def _records(trace, *_args, **_kwargs):
    return float(len(trace.records))


def _stage2_iters(trace, *_args, **_kwargs):
    return float(sum(1 for r in trace.records if r.ls_evals is not None))


def _n_cases(report, *_args, **_kwargs):
    return float(report.n_cases)


def install(pkg, rec: Recorder) -> list:
    """Patch the package's layer boundaries; returns what `restore` needs."""
    cli, fo, ag, ver, prob = pkg.cli, pkg.first_order, pkg.agmsdr, pkg.verify, pkg.problems
    parse_problem = rec.traced("cli.parse", cli.parse_problem)
    write_csv = rec.traced("cli.write_csv", cli.write_csv,
                           work=lambda out, trace, path: float(len(trace.records)))

    def write_csv_counted(trace, path):
        write_csv(trace, path)
        rec.csv_bytes += os.path.getsize(path)

    def kernel(fn):
        scalar = rec.traced("kernels.scalar", fn, work=_one)
        vector = rec.traced("kernels.array", fn, work=lambda out, a, *r: float(np.size(a)))
        return lambda a, *rest: (scalar if np.ndim(a) == 0 else vector)(a, *rest)

    def gd(fn, capture):
        return rec.traced("first_order.gd_run", fn, work=_records,
                          tag=lambda f, rule, *a, **k: rule.variant, capture=capture)

    table = [
        (cli, "parse_problem", lambda spec: rec.wrap_objective(parse_problem(spec))),
        (cli, "parse_method", rec.traced("cli.parse", cli.parse_method)),
        (cli, "write_csv", write_csv_counted),
        (cli, "run_experiment", rec.traced("cli.run", cli.run_experiment)),
        (cli, "run_verify_suite", rec.traced("cli.run_verify_suite", cli.run_verify_suite)),
        (cli, "gd_run", gd(cli.gd_run, True)),
        (ag, "gd_run", gd(ag.gd_run, False)),
        (cli, "ngd_run", rec.traced("first_order.ngd_run", cli.ngd_run,
                                    work=_records, capture=True)),
        (cli, "agmsdr_run", rec.traced("agmsdr.agmsdr_run", cli.agmsdr_run,
                                       work=_stage2_iters, capture=True)),
        (ag, "agmsdr_run", rec.traced("agmsdr.agmsdr_run", ag.agmsdr_run,
                                      work=_stage2_iters)),
        (cli, "two_stage_run", rec.traced("agmsdr.two_stage_run", cli.two_stage_run,
                                          capture=True)),
        (ag, "stepsize_simplified", rec.traced("first_order.stepsize", ag.stepsize_simplified)),
        (ag, "segment_line_search", rec.traced("agmsdr.line_search", ag.segment_line_search,
                                               work=lambda out, *a, **k: float(out.evals))),
        (ver, "phi", kernel(ver.phi)),
        (ver, "phi_star", kernel(ver.phi_star)),
        (prob, "spectral_norm", rec.traced("problems.spectral_norm", prob.spectral_norm)),
        (prob, "certify_smoothness", rec.traced(
            "problems.certify", prob.certify_smoothness,
            work=lambda out, *a, **k: float(out.n_samples))),
        (ver, "fd_gradient_check", rec.traced("verify.fd_gradient", ver.fd_gradient_check,
                                              work=_n_cases)),
        (ver, "check_smoothness_envelopes", rec.traced(
            "verify.envelopes", ver.check_smoothness_envelopes, work=_n_cases)),
        (ver, "check_convex_lower_bounds", rec.traced(
            "verify.lower_bounds", ver.check_convex_lower_bounds, work=_n_cases)),
        (ver, "conjugate_grid_consistency", rec.traced(
            "verify.conjugate_grid", ver.conjugate_grid_consistency, work=_n_cases)),
        (ver, "kernel_bound_checks", rec.traced(
            "verify.kernel_checks", ver.kernel_bound_checks,
            work=lambda out, *a, **k: float(sum(r.n_cases for r in out)))),
        (ver, "rate_monitor", rec.traced(
            "verify.monitor", ver.rate_monitor, work=lambda out, trace, *a, **k:
            float(len(trace.records)), tag=lambda trace, bound, *a, **k: bound)),
    ]
    table += [(fo, f"stepsize_{r}", rec.traced("first_order.stepsize", getattr(fo, f"stepsize_{r}")))
              for r in GD_RULES]
    saved = []
    for module, attr, wrapper in table:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)
    return saved


def restore(saved: list):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


class Spans:
    """Numpy view of a recorder for aggregation; durations times `scale`."""

    def __init__(self, rec: Recorder, scale: float = 1.0):
        self.names = rec.names
        self.name = np.frombuffer(rec.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(rec.parent, dtype=np.int32).copy()
        self.work = np.frombuffer(rec.work, dtype=np.float64).copy()
        self.dur = scale * (np.frombuffer(rec.end, dtype=np.float64)
                            - np.frombuffer(rec.start, dtype=np.float64))
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n)
        self.self_time = self.dur - child
        # root of every span, by pointer jumping over the parent links
        root = np.where(has_parent, self.parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root_id = self.name[root]

    def select(self, prefix: str, phase: str | None = "phase:pass", parent: str | None = None):
        """Mask of spans whose name is `prefix` or `prefix:<tag>`."""
        ids = [i for i, nm in enumerate(self.names)
               if nm == prefix or nm.startswith(prefix + ":")]
        mask = np.isin(self.name, ids)
        if phase is not None:
            mask &= np.isin(self.root_id, [i for i, nm in enumerate(self.names) if nm == phase])
        if parent is not None:
            pids = [i for i, nm in enumerate(self.names) if nm == parent]
            has = self.parent >= 0
            ok = np.zeros_like(mask)
            ok[has] = np.isin(self.name[self.parent[has]], pids)
            mask &= ok
        return mask


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(rec: Recorder, scale: float, traced_passes: int, pass_walls: dict,
                  run_latency: dict, counts: dict) -> dict:
    """Every per-layer metric from the spans of the traced passes.

    `scale` normalizes the span times (CAL_REF_S over the traced passes'
    median calibration slice).  `counts` holds the exact trace counts of
    this workload (count pass, or for verify the method traces captured
    inside the suite), `pass_walls` the normalized untraced and traced pass
    times, `run_latency` the normalized p50/tail of the untraced per-run
    latency.  A layer that did not run reads 0.
    """
    s = Spans(rec, scale)
    per_pass = 1.0 / max(traced_passes, 1)
    m = {}

    def total(prefix, what="dur", **kw):
        mask = s.select(prefix, **kw)
        return float(getattr(s, what)[mask].sum()), float(s.work[mask].sum())

    def us_per_work(prefix, what="dur", **kw):
        t, w = total(prefix, what, **kw)
        return 1e6 * _ratio(t, w)

    for op in ("value", "gradient", "hessian"):
        t, w = total(f"problems.{op}")
        m[f"problems.{op}.calls"] = w * per_pass
        m[f"problems.{op}.us_per_call"] = 1e6 * _ratio(t, w)
    for fam in FAMILIES:
        for op in ("value", "gradient"):
            m[f"problems.{fam}.{op}_us"] = us_per_work(f"problems.{op}:{fam}")
    m["problems.certify.us_per_case"] = us_per_work("problems.certify")
    t = total("problems.spectral_norm")[0]
    m["problems.spectral_norm.us_per_call"] = 1e6 * _ratio(
        t, s.select("problems.spectral_norm").sum())

    for r in GD_RULES:
        m[f"first_order.loop.self_us_per_iter.gd_{r}"] = us_per_work(
            f"first_order.gd_run:{r}", "self_time")
    m["first_order.loop.self_us_per_iter.ngd"] = us_per_work("first_order.ngd_run", "self_time")
    t = total("first_order.stepsize")[0]
    m["first_order.stepsize.us_per_call"] = 1e6 * _ratio(t, s.select("first_order.stepsize").sum())
    m["first_order.iters"] = per_pass * (total("first_order.gd_run")[1]
                                         + total("first_order.ngd_run")[1])

    ls_mask = s.select("agmsdr.line_search")
    ls_calls = float(ls_mask.sum())
    m["agmsdr.line_search.calls"] = ls_calls * per_pass
    m["agmsdr.line_search.evals_per_call"] = _ratio(s.work[ls_mask].sum(), ls_calls)
    m["agmsdr.line_search.self_us_per_call"] = 1e6 * _ratio(s.self_time[ls_mask].sum(), ls_calls)
    m["agmsdr.loop.self_us_per_iter"] = us_per_work("agmsdr.agmsdr_run", "self_time")
    m["agmsdr.iters"] = total("agmsdr.agmsdr_run")[1] * per_pass
    m["agmsdr.ls_share"] = _ratio(counts["ls_evals"], counts["oracle_calls"])

    m["calls_to_eps"] = counts["calls_to_eps"]
    for eps, label in EPS_LABELS.items():
        for part, n in counts["split"][eps].items():
            m[f"calls_to_eps.{label}.{part}"] = n

    for check in ("fd_gradient", "envelopes", "lower_bounds", "conjugate_grid"):
        m[f"verify.{check}.us_per_case"] = us_per_work(f"verify.{check}")
    m["verify.kernel_checks.s"] = total("verify.kernel_checks")[0] * per_pass
    for b in MONITORS:
        m[f"verify.monitor.{b}.us_per_record"] = us_per_work(f"verify.monitor:{b}", phase=None)
    methods = sum(total(name, parent="cli.run_verify_suite")[0] for name in METHOD_SPANS)
    m["verify.methods.s"] = methods * per_pass
    m["verify.cases"] = counts["cases"]

    t, w = total("kernels.scalar")
    m["kernels.scalar.calls"] = w * per_pass
    m["kernels.scalar.us_per_call"] = 1e6 * _ratio(t, w)
    t, w = total("kernels.array")
    m["kernels.array.elems_per_s"] = _ratio(w, t)

    t = total("cli.parse")[0]
    m["cli.parse.us_per_call"] = 1e6 * _ratio(t, s.select("cli.parse").sum())
    m["cli.write_csv.us_per_row"] = us_per_work("cli.write_csv")
    m["cli.write_csv.bytes"] = rec.csv_bytes * per_pass
    m["cli.run.s_p50"] = run_latency.get("p50", 0.0)
    m["cli.run.s_tail"] = run_latency.get("tail", 0.0)
    m["trace.overhead_ratio"] = _ratio(np.median(pass_walls["traced"]),
                                       np.median(pass_walls["untraced"]))
    return m
