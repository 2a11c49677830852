"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The exact counts (calls to eps, their oracle split, iteration counts) must
repeat on the same seed and change on another, which shows the seed reaches
the input generator.  BENCHMARK.json must name what run.py reports, and
every known failure must name a case the benchmark runs.
"""

from __future__ import annotations

import json

import pytest

import run
import tracing
import workloads as wl


def exact_counts(workload: str, seed: int):
    pkg = wl.load_package(run.SRC)
    cases = wl.make_inputs(pkg, workload, seed, run.OUT)
    counts, _ = wl.count_pass(pkg, workload, cases)
    return {
        "calls_to_eps": wl.calls_to(counts),
        "split": [c.split for c in counts],
        "iters": [c.trace_len for c in counts],
        "stage2_iters": [c.stage2_iters for c in counts],
    }


@pytest.mark.parametrize("workload", ["descent", "accelerated"])
def test_counts_repeat_on_a_seed_and_change_with_it(workload):
    first, again, other = (exact_counts(workload, s) for s in (11, 11, 12))
    assert first == again
    assert first["calls_to_eps"] != other["calls_to_eps"]
    assert first["split"] != other["split"]
    assert first["iters"] != other["iters"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]


def test_split_adds_up_to_the_recorded_oracle_calls():
    pkg = wl.load_package(run.SRC)
    cases = wl.make_inputs(pkg, "accelerated", 3, run.OUT)
    _, traces = wl.count_pass(pkg, "accelerated", cases)
    for trace in traces:
        if trace is None:
            continue
        for rec, (split, _) in zip(trace.records, wl.oracle_split(trace)):
            assert min(split.values()) >= 0
            assert sum(split.values()) == rec.oracle_calls


def test_expected_failures_name_cases_of_the_accelerated_mix():
    pkg = wl.load_package(run.SRC)
    labels = {c.label for c in wl.make_inputs(pkg, "accelerated", 0, run.OUT)}
    assert {label for label, _ in wl.EXPECTED_FAILURES} <= labels
