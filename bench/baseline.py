"""Reproduce the single-call baseline figures of ROADMAP.md in one command.

    python3 bench/baseline.py

Each timing is repeated REPEATS times and reported as its median with
min and max; the counts are exact.  Times are raw, not host-normalized
like run.py's.
Prints a table and writes bench/out/baseline.json.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from run import OUT, SRC, environment  # noqa: E402

REPEATS = 3


def timed(fn) -> dict:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return {"median": statistics.median(times), "min": min(times), "max": max(times),
            "samples": REPEATS}


def measure() -> list[tuple[str, float, str, str]]:
    pkg = wl.load_package(SRC)
    cli, fo, ag, prob, ver = pkg.cli, pkg.first_order, pkg.agmsdr, pkg.problems, pkg.verify
    x0 = np.array([10.0, 0.0])
    rows = []

    p6 = prob.power_norm(2, 6, 1.0)
    rule = fo.StepRule(variant="optimal", params=p6.params)
    iters = 10**5
    t = timed(lambda: fo.gd_run(p6, rule, x0, iters))
    rows.append(("gd_run", 1e6 * t["median"] / iters, "us/iter",
                 f"optimal rule, power_norm p=6 d=2, {iters} iterations; "
                 f"min {1e6 * t['min'] / iters:.2f}, max {1e6 * t['max'] / iters:.2f}"))

    trace = ag.two_stage_run(p6, x0, p6.params, budget=10**5)
    stage1 = [r for r in trace.records if r.stage == 1]
    ls = [r.ls_evals for r in trace.records if r.ls_evals is not None]
    total = trace.records[-1].oracle_calls
    rows.append(("two_stage.stage1_calls", stage1[-1].oracle_calls, "count",
                 "power_norm p=6 d=2, budget 1e5"))
    rows.append(("two_stage.stage2_iters", len(ls), "count", "iterations with a search"))
    rows.append(("evals_per_call", float(np.mean(ls)), "evals/call",
                 "stage-2 line-search value calls per search"))
    rows.append(("ls_share", sum(ls) / total, "ratio",
                 f"line-search value calls / all {total} oracle calls"))

    p4d3 = prob.power_norm(3, 4, 1.0)
    n = 10**4
    t = timed(lambda: prob.certify_smoothness(p4d3, p4d3.params, 5.0, n, 0))
    rows.append(("certify", 1e6 * t["median"] / n, "us/case",
                 f"power_norm p=4 d=3, {n} samples, radius 5"))

    p4 = prob.power_norm(2, 4, 1.0)
    t = timed(lambda: ver.check_smoothness_envelopes(p4, p4.params, n_pairs=n))
    rows.append(("envelopes", 1e6 * t["median"] / n, "us/case",
                 f"power_norm p=4 d=2, {n} pairs"))

    for scope in ("kernels", "lemmas", "theorems"):
        t = timed(lambda: cli.run_verify_suite(scope=scope, seed=0))
        rows.append((f"verify.{scope}", t["median"], "s",
                     f"run_verify_suite(scope={scope!r}); min {t['min']:.3f}, max {t['max']:.3f}"))
    return rows


def main() -> int:
    if not (SRC / "gensmooth" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    rows = measure()
    for name, value, unit, note in rows:
        print(f"{name:24s} {value:12.6g} {unit:11s} {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "baseline.json").write_text(json.dumps({
        "environment": environment(seed=0),
        "repeats": REPEATS,
        "rows": [{"name": n, "value": v, "unit": u, "note": d} for n, v, u, d in rows],
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
