"""Benchmark for gensmooth: one workload per run, end to end or per layer.

    python3 bench/run.py --workload descent|accelerated|verify \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One
process, one thread, one operation after another (a closed loop with one
client).  After set-up (repeated, median reported) and an untimed count
pass that also gates correctness, the workload's operations run pass after
pass until `--seconds` of operation time have been measured.

Times are host-normalized.  A shared 2-core host was seen to drift by up
to 2x in speed over minutes, the same for CPU and wall time, so raw times
of identical work spread by about 20% between runs.  A fixed reference loop
(`calibration_slice`, benchmark code that never changes with the package)
runs between operations, about 5% of the time, and every time is scaled by
CAL_REF_S / (its calibration time measured alongside); per-layer span
times and run latencies by the factor of the passes they come from.  Raw
times are kept in the run record.

--trace 0  end-to-end metrics: setup_s, wall_s, work_per_s, peak_rss_mb.
--trace 1  per-layer metrics: half the time untraced, half with spans
           installed around every layer boundary (see tracing.py).

Stdout ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; a run record with the environment, sample counts and
percentiles is written under bench/out/.  Every operation that raises or
fails a check is counted in `failed` under the first failing check's name;
`correct` is false, and the exit code 1, on any failure other than the
known ones in workloads.EXPECTED_FAILURES.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools must be pinned before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 21
SETUP_CAL_SLICES = 3  # before and after each set-up repetition

# Median time of one calibration slice on the reference host (2 cores,
# x86_64, Python 3.11.7, numpy 2.4.6); normalized times are in its seconds.
CAL_REF_S = 3.4e-3
CAL_SHARE = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def calibration_slice() -> float:
    """Fixed reference work: gradient descent on ||x||^4/4 in the idiom of
    the package (2-vectors, math calls, float formatting).  Returns its time."""
    t0 = perf_counter()
    x = np.array([3.0, 4.0])
    rows = []
    for k in range(300):
        r = float(np.linalg.norm(x))
        g = r**2 * x
        gn = float(np.linalg.norm(g))
        x = x - math.log1p(gn / (4.0 + gn)) / gn * g
        rows.append(",".join([str(k), format(r**4 / 4, ".17g"), format(gn, ".17g")]))
    return perf_counter() - t0


class Calibration:
    """Runs calibration slices between operations, CAL_SHARE of their time."""

    def __init__(self):
        self.debt = 0.0
        self.slices: list[float] = []

    def after(self, seconds: float, settle: bool = False):
        self.debt += CAL_SHARE * seconds
        while self.debt > 0 or (settle and not self.slices):
            t = calibration_slice()
            self.slices.append(t)
            self.debt -= t


def timing(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"samples": len(samples), "p50": statistics.median(samples), "tail": None}
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            out["tail"] = {"percentile": p, "value": float(np.percentile(samples, p))}
            break
    return out


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gensmooth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "seed": seed,
    }


class MethodMix:
    """descent/accelerated: one run_experiment per case."""

    def __init__(self, pkg, workload, cases):
        self.pkg, self.workload, self.cases = pkg, workload, cases
        self.counts, self.traces = wl.count_pass(pkg, workload, cases)
        self.configs = [wl.run_config(pkg, c) for c in cases]
        self.gate: list[str | None] = []

    def check_gate(self):
        self.gate = wl.gate_failures(self.pkg, self.workload, self.cases,
                                     self.counts, self.traces)

    def operations(self):
        cli = self.pkg.cli
        return [lambda cfg=cfg: cli.run_experiment(cfg) for cfg in self.configs]

    def check_pass(self, results):
        fails = []
        for case, c, gate, out in zip(self.cases, self.counts, self.gate, results):
            if isinstance(out, Exception):
                raised = type(out).__name__
                failure = f"raised:{raised}" if raised == c.raised else "nondeterministic_run"
            else:
                failure = wl.check_run(case, c, out) or gate
            fails.append((case.label, failure))
        return sum(c.trace_len for c in self.counts), fails

    def exact_counts(self) -> dict:
        return dict(wl.summarize(self.counts), cases=0)


class VerifyMix:
    """verify: the full suite with negative controls, then certify each objective."""

    def __init__(self, pkg, seed, objectives):
        self.pkg, self.seed, self.objectives = pkg, seed, objectives
        self.reference = None
        self.captured: list = []
        self.cases_per_pass = 0

    def check_gate(self):
        """An untimed first pass; its serialized reports are the reference
        every timed pass must reproduce."""
        results = [run_op(op) for op in self.operations()]
        self.check_pass(results)
        if not isinstance(results[0], Exception):
            self.reference = self.pkg.verify.serialize_reports(results[0][1])

    def operations(self):
        cli, prob, seed = self.pkg.cli, self.pkg.problems, self.seed
        return [lambda: cli.run_verify_suite("all", seed, negative_controls=True)] + [
            lambda f=f: prob.certify_smoothness(
                f, f.params, wl.CERTIFY_RADIUS, wl.CERTIFY_SAMPLES, seed)
            for f in self.objectives]

    def check_pass(self, results):
        suite, certs = results[0], list(zip(self.objectives, results[1:]))
        fails = []
        if isinstance(suite, Exception):
            fails.append(("run_verify_suite", f"raised:{type(suite).__name__}"))
            reports = []
        else:
            reports = suite[1]
        fails += wl.verify_failures(reports, certs, self.reference,
                                    self.pkg.verify.serialize_reports)
        self.cases_per_pass = (sum(r.n_cases for r in reports)
                               + sum(c.n_samples for _, c in certs
                                     if not isinstance(c, Exception)))
        return self.cases_per_pass, fails

    def exact_counts(self) -> dict:
        counts = [wl.trace_counts(t, t.records[-1].oracle_calls) for t in self.captured]
        return dict(wl.summarize(counts), cases=self.cases_per_pass)


def run_op(op):
    try:
        return op()
    except Exception as exc:  # a raised operation is counted, never dropped
        return exc


class Outcomes:
    """Every operation's outcome by name, and the failures not expected."""

    def __init__(self):
        self.tally: Counter = Counter()
        self.unexpected: Counter = Counter()

    def add(self, fails):
        for label, failure in fails:
            self.tally[failure or "ok"] += 1
            if failure and (label, failure) not in wl.EXPECTED_FAILURES:
                self.unexpected[f"{label}: {failure}"] += 1


class Passes:
    """Timed passes of one mix: raw and normalized walls, work, latencies."""

    def __init__(self, mix, outcomes: Outcomes):
        self.mix, self.outcomes = mix, outcomes
        self.cal = Calibration()
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.work: list[int] = []
        self.latency: list[float] = []

    def run(self, seconds: float, rec=None):
        """Passes until `seconds` of operation time are measured."""
        spent = 0.0
        while not self.raw or spent < seconds:
            close = rec.phase("pass") if rec is not None else None
            n0 = len(self.cal.slices)
            results, wall = [], 0.0
            for op in self.mix.operations():
                t0 = perf_counter()
                results.append(run_op(op))
                dt = perf_counter() - t0
                wall += dt
                self.latency.append(dt)
                self.cal.after(dt)
            self.cal.after(0.0, settle=True)
            if close is not None:
                close()
                if rec.capture is not None:
                    self.mix.captured, rec.capture = rec.capture, None
            slices = self.cal.slices[n0:] or self.cal.slices[-1:]
            work, fails = self.mix.check_pass(results)
            self.outcomes.add(fails)
            self.raw.append(wall)
            self.norm.append(wall * CAL_REF_S / statistics.fmean(slices))
            self.work.append(work)
            spent += wall
        return self

    def speed(self) -> float:
        """Median calibration slice over the passes, as a share of CAL_REF_S."""
        return statistics.median(self.cal.slices) / CAL_REF_S


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    setup_raw, setup_cal = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_cal += [calibration_slice() for _ in range(SETUP_CAL_SLICES)]
        t0 = perf_counter()
        pkg = wl.load_package(SRC)
        inputs = wl.make_inputs(pkg, workload, seed, OUT)
        setup_raw.append(perf_counter() - t0)
        setup_cal += [calibration_slice() for _ in range(SETUP_CAL_SLICES)]
    setup_s = statistics.median(setup_raw) * CAL_REF_S / statistics.median(setup_cal)

    if workload == "verify":
        mix = VerifyMix(pkg, seed, inputs)
    else:
        mix = MethodMix(pkg, workload, inputs)
    mix.check_gate()
    outcomes = Outcomes()
    timed = Passes(mix, outcomes).run(seconds / 2 if trace else seconds)
    speed = timed.speed()

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(timed.norm),
            "work_per_s": statistics.median(w / t for w, t in zip(timed.work, timed.norm)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        passes = {"untraced": timed}
    else:
        rec = tracing.Recorder()
        saved = tracing.install(pkg, rec)
        try:
            close = rec.phase("gate")
            if workload != "verify":
                mix.check_gate()  # replays the monitors again, now inside spans
            close()
            if workload == "verify":
                mix.objectives = [rec.wrap_objective(f) for f in mix.objectives]
                rec.capture = []
            traced = Passes(mix, outcomes).run(seconds / 2, rec)
        finally:
            tracing.restore(saved)
        passes = {"untraced": timed, "traced": traced}
        run_latency = {}
        if workload != "verify":
            latency = timing([t / speed for t in timed.latency])
            run_latency = {"p50": latency["p50"],
                           "tail": (latency["tail"] or {"value": latency["p50"]})["value"]}
        metrics = tracing.layer_metrics(
            rec, 1.0 / traced.speed(), len(traced.raw),
            {k: v.norm for k, v in passes.items()}, run_latency, mix.exact_counts())
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        rec.save(OUT / f"spans-{workload}.npz")

    tally = outcomes.tally
    attempted = sum(tally.values())
    failed = attempted - tally["ok"]
    # every timed pass repeats the gate's checks, so the tally holds them all
    correct = not outcomes.unexpected
    counts = mix.exact_counts()
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "load": "closed loop, one client, one process, one thread",
        "normalization": {"cal_ref_s": CAL_REF_S,
                          **{f"{k}_speed": v.speed() for k, v in passes.items()},
                          "slices": len(timed.cal.slices),
                          "setup_speed": statistics.median(setup_cal) / CAL_REF_S},
        "setup_raw_s": dict(timing(setup_raw), values=setup_raw),
        "setup_cal_slice_s": timing(setup_cal),
        "passes": {k: {"raw_s": dict(timing(v.raw), values=v.raw),
                       "normalized_s": dict(timing(v.norm), values=v.norm)}
                   for k, v in passes.items()},
        "work_per_pass": timed.work[-1],
        "op_latency_raw_s": timing(timed.latency),
        "counts": {k: ({str(e): s for e, s in v.items()} if k == "split" else v)
                   for k, v in counts.items()},
        "operations": {"attempted": attempted, "failed": failed,
                       "fail_ratio": failed / attempted, "outcomes": dict(tally),
                       "unexpected": dict(outcomes.unexpected)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": record["metrics"]}


def summary_lines(record: dict) -> list[str]:
    """Every metric by name and unit, including those only some workloads have."""
    lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in record["metrics"].items()]
    if record["trace"]:
        return lines
    workload, counts = record["workload"], record["counts"]
    wall = record["metrics"]["wall_s"]["value"]
    rate = record["metrics"]["work_per_s"]["value"]
    lines.append(f"wall_raw_s {record['passes']['untraced']['raw_s']['p50']:.6g} s")
    if workload == "accelerated":
        lines.append(f"time_to_eps_s {wall:.6g} s")
    if workload in ("descent", "accelerated"):
        lines.append(f"iters_per_s {rate:.6g} 1/s")
        lines.append(f"calls_to_eps {counts['calls_to_eps']} count")
    else:
        lines.append(f"cases_per_s {rate:.6g} 1/s")
    ops = record["operations"]
    lines.append(f"fail_ratio {ops['fail_ratio']:.6g} ratio "
                 f"({ops['failed']}/{ops['attempted']}: {ops['outcomes']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gensmooth" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in summary_lines(record):
        print(line)
    if record["operations"]["unexpected"]:
        print(f"unexpected_failures {record['operations']['unexpected']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
