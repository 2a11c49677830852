"""Spec parsing, CSV emission, presets, and end-to-end CLI behavior."""

import hashlib
import json
import math
import random
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gensmooth import csvformat, first_order, verify
from gensmooth.first_order import StepRule, Trace, gd_run
from gensmooth.csvformat import csv_rows
from gensmooth.kernels import SmoothnessParams
from gensmooth.cli import (
    CSV_CHUNK,
    CSV_HEADER,
    METHODS,
    PRESETS,
    PROBLEMS,
    REQUIRED,
    RunConfig,
    THEOREM_RUNS,
    SpecError,
    initial_point,
    main,
    parse_method,
    parse_problem,
    preset_figure,
    run_experiment,
    run_verify_suite,
    write_csv,
)


class TestParseProblem:
    def test_power_norm(self):
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        assert f.dim == 2
        assert f.params == SmoothnessParams(4.0, 1.0)

    def test_logistic(self):
        f = parse_problem("logistic:l1=0.5")
        assert f.params == SmoothnessParams(0.0625, 0.5)

    def test_affine_logistic_vector_key(self):
        f = parse_problem("affine_logistic:a=3;4,b=0.5,l1=2")
        assert f.dim == 2
        assert f.params.l0 == pytest.approx((5.0 - 2.0) ** 2 / 4.0)

    def test_exp_phi(self):
        f = parse_problem("exp_phi:d=3,l0=1,l1=1")
        assert f.dim == 3

    def test_separable_pnorm(self):
        f = parse_problem("separable_pnorm:d=3,p=4,l1=1")
        assert f.dim == 3

    @pytest.mark.parametrize("d", [0, -2])
    def test_exp_phi_dim_must_be_positive(self, d):
        with pytest.raises(SpecError, match="dim must be positive"):
            parse_problem(f"exp_phi:d={d},l0=1,l1=1")

    @pytest.mark.parametrize("d", [0, -2])
    def test_separable_pnorm_dim_must_be_positive(self, d):
        """Its own message, not separable_sum's "parts must be nonempty"."""
        with pytest.raises(SpecError, match=r"at position 0: dim must be positive$"):
            parse_problem(f"separable_pnorm:d={d},p=4,l1=1")

    def test_out_of_range_value(self):
        with pytest.raises(SpecError, match="p must exceed 2"):
            parse_problem("power_norm:d=2,p=2,l1=1")

    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown problem"):
            parse_problem("rosenbrock:d=2")

    def test_unknown_key_is_an_error(self):
        with pytest.raises(SpecError, match="unknown key 'q'"):
            parse_problem("power_norm:d=2,p=4,l1=1,q=3")

    def test_missing_key(self):
        with pytest.raises(SpecError, match="missing required key 'p'"):
            parse_problem("power_norm:d=2,l1=1")

    @pytest.mark.parametrize(
        "spec,pos",
        [
            ("power_norm:d=2,p4,l1=1", 15),  # offset of the bad token
            ("power_norm:d=2,p=4,l1=1,o=3", 24),  # unknown key, not the 'o' in the name
            ("power_norm:d=2,p=4,l1=p", 22),  # offset of the unconvertible value
            ("exp_phi:d=2,l0=1,l1=1,e=1", 22),
        ],
        ids=["not_key_value", "unknown_key", "bad_value", "exp_phi_unknown_key"],
    )
    def test_malformed_token_reports_position(self, spec, pos):
        with pytest.raises(SpecError) as err:
            parse_problem(spec)
        assert err.value.pos == pos

    def test_duplicate_key(self):
        with pytest.raises(SpecError, match="duplicate key"):
            parse_problem("power_norm:d=2,d=3,p=4,l1=1")


class TestParseMethod:
    def test_gd_defaults(self):
        m = parse_method("gd:rule=optimal")
        assert m.kind == "gd" and m.rule_variant == "optimal"
        assert m.l0 is None and m.f_star is None

    def test_gd_overrides(self):
        m = parse_method("gd:rule=polyak,f_star=0")
        assert m.f_star == 0.0

    def test_ngd(self):
        m = parse_method("ngd:r_hat=20,schedule=linear")
        assert m.kind == "ngd" and m.schedule == "linear"

    def test_ngd_fixed_requires_horizon(self):
        with pytest.raises(SpecError, match="horizon"):
            parse_method("ngd:r_hat=20,schedule=fixed")

    def test_agmsdr(self):
        m = parse_method("agmsdr:l=768")
        assert m.kind == "agmsdr" and m.l_const == 768.0

    def test_two_stage(self):
        m = parse_method("two_stage:l=1024")
        assert m.kind == "two_stage" and m.l_const == 1024.0

    @pytest.mark.parametrize(
        "spec, message, pos",
        [
            ("gd:rule=momentum", "unknown gd rule 'momentum'", 8),
            # two_stage always takes simplified steps and derives its target
            ("two_stage:target=foo", "unknown key 'target'", 10),
            ("two_stage:rule=clipped", "unknown key 'rule'", 10),
        ],
        ids=["gd_rule", "two_stage_target", "two_stage_rule"],
    )
    def test_unknown_rule(self, spec, message, pos):
        with pytest.raises(SpecError, match=message) as err:
            parse_method(spec)
        assert err.value.pos == pos

    @pytest.mark.parametrize(
        "spec, message, pos",
        [
            ("gd:rule=polyak,l0=-5,l1=nan", "rule=polyak takes no l0", 15),
            ("gd:rule=polyak,f_star=0,l1=1", "rule=polyak takes no l1", 24),
            ("ngd:r_hat=5,schedule=linear,horizon=7", "horizon applies only to schedule=fixed", 28),
            ("ngd:horizon=7,r_hat=5,schedule=sqrt", "horizon applies only to schedule=fixed", 4),
        ],
        ids=["polyak_l0", "polyak_l1", "linear_horizon", "sqrt_horizon"],
    )
    def test_key_the_method_would_ignore(self, spec, message, pos):
        with pytest.raises(SpecError, match=message) as err:
            parse_method(spec)
        assert err.value.pos == pos


# One valid value per key that some spec requires.
SAMPLE_VALUES = {
    "d": "2", "p": "4", "l0": "1", "l1": "1", "a": "3;4",
    "rule": "optimal", "r_hat": "20", "schedule": "linear",
}


@pytest.mark.parametrize(
    "name,keys,parse",
    [(name, keys, parse_problem) for name, (_, keys) in PROBLEMS.items()]
    + [(name, keys, parse_method) for name, keys in METHODS.items()],
    ids=[*PROBLEMS, *METHODS],
)
def test_spec_table_entry(name, keys, parse):
    """Minimal spec parses; an extra key and each dropped required key fail."""
    required = [key for key, (_, _, default) in keys.items() if default is REQUIRED]
    tokens = [f"{key}={SAMPLE_VALUES[key]}" for key in required]
    minimal = f"{name}:" + ",".join(tokens)
    parse(minimal)

    extra = minimal + ("," if tokens else "") + "zz=1"
    with pytest.raises(SpecError, match="unknown key 'zz'") as err:
        parse(extra)
    assert err.value.pos == extra.index("zz=1")

    for i, key in enumerate(required):
        dropped = f"{name}:" + ",".join(tokens[:i] + tokens[i + 1:])
        with pytest.raises(SpecError, match=f"missing required key '{key}'"):
            parse(dropped)


class TestInitialPoint:
    def test_radius_uses_first_axis(self):
        f = parse_problem("power_norm:d=3,p=4,l1=1")
        cfg = RunConfig(problem_spec="", method_spec="", radius=10.0)
        np.testing.assert_array_equal(initial_point(f, cfg), [10.0, 0.0, 0.0])

    def test_explicit_vector(self):
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        cfg = RunConfig(problem_spec="", method_spec="", x0=[1.0, -2.0])
        np.testing.assert_array_equal(initial_point(f, cfg), [1.0, -2.0])

    def test_dimension_mismatch(self):
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        cfg = RunConfig(problem_spec="", method_spec="", x0=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            initial_point(f, cfg)

    def test_x0_and_radius_together_refused(self):
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        cfg = RunConfig(problem_spec="", method_spec="", x0=[1.0, 2.0], radius=500.0)
        with pytest.raises(ValueError, match="both x0 and radius"):
            initial_point(f, cfg)


# run_experiment CSVs of the descent methods, budget 2000, as
# (problem, method, x0, termination, lines with header, sha256).
_PN, _SP = "power_norm:d=2,p=6,l1=1", "separable_pnorm:d=3,p=4,l1=1"
_NGD_FIXED = "ngd:r_hat=20,schedule=fixed,horizon=1500"
DESCENT_CSV_GOLDEN = [
    (_PN, "gd:rule=optimal", [6.0, -8.0], "BudgetExhausted", 2001,
     "85125dad8dd945327bd0af6e09e69f5512a81b944f04c33fa786628473d5b6eb"),
    (_PN, "gd:rule=simplified", [6.0, -8.0], "BudgetExhausted", 2001,
     "cd4f85c656cad46b93d7c2d61a6f786d77e6fe4aafcd30e16507fd7059db07c3"),
    (_PN, "gd:rule=clipped", [6.0, -8.0], "BudgetExhausted", 2001,
     "56c111eaded6d886f95c9732d91ed7ab73f31764b79fe7555c8fe7d50a3d8abd"),
    (_PN, "gd:rule=polyak", [6.0, -8.0], "StationaryExact", 423,
     "4b46fb8666d2976962890b67d7038ddf1a9566326ba1228bc44488c211844d4f"),
    (_PN, _NGD_FIXED, [6.0, -8.0], "BudgetExhausted", 1502,
     "2ee5a75c374d38d33221b239cf32dbb7877034585081d7445b729502c409a232"),
    (_PN, "ngd:r_hat=20,schedule=linear", [6.0, -8.0], "StationaryExact", 4,
     "1c194862f1822afcc5f4655ac516daa84a970555bb004d0297f3b12f98f75f22"),
    (_SP, "gd:rule=optimal", [3.0, -4.0, 5.0], "BudgetExhausted", 2001,
     "56ef3429a5ff5529e80707e2c19caa26616ed00531f1f060e9b7d4ecbd460840"),
    (_SP, "gd:rule=simplified", [3.0, -4.0, 5.0], "BudgetExhausted", 2001,
     "bdd089a516bb14570fe4e6e98756ac5844a6115e9a880dbfd89e03252d039098"),
    (_SP, "gd:rule=clipped", [3.0, -4.0, 5.0], "BudgetExhausted", 2001,
     "7143311bb4c1a8cb966439a2625d5b8916abaffb383f029f7e098498a5dd476e"),
    (_SP, "gd:rule=polyak", [3.0, -4.0, 5.0], "StationaryExact", 439,
     "1bfe51b3d24a7d3152572bf9479cf8c024d6283c2400a028b889bf54f385e7f8"),
    (_SP, _NGD_FIXED, [3.0, -4.0, 5.0], "BudgetExhausted", 1502,
     "47ae1dc6bb5693f72ca1ced8eee4513d88589bf84e810b22148ea40f0fa6bbab"),
    (_SP, "ngd:r_hat=20,schedule=linear", [3.0, -4.0, 5.0], "BudgetExhausted", 2001,
     "c0d7f53e250adb4e5eb4306d73a70d09431ec84e8032b8e95e09c21d3dd2aa32"),
    ("logistic:l1=0.5", "gd:rule=optimal", [3.0], "BudgetExhausted", 2001,
     "39229e2b3e4547304441d3692c0b510b84bf229e002a67a21dcfcef630b4de81"),
    (_PN, "gd:rule=optimal,l0=1,l1=0", [10.0, 0.0], "Diverged", 5,
     "8ab78251dc2a59641e4380baf8399ebe1e939e3790601fbd64cafeb5b8b6ed08"),
    (_SP, "gd:rule=optimal,l0=1,l1=0", [3.0, -4.0, 5.0], "Diverged", 6,
     "98ffd354d736b38704269038de37cda3cfb1981ee5a25b5884fa414b8cb2bf21"),
    # a target below the optimum: f_gap = f_val + 1, so no row's gap shares
    # its bits with its value
    (_PN, "gd:rule=optimal,f_star=-1", [6.0, -8.0], "BudgetExhausted", 2001,
     "58a1072b2438d238e67a952045eef7c429c6a424650b0fbac2c1681a55dd7fc7"),
]

# The golden rows whose bytes follow glibc's exp, expm1, log and pow: under
# GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F (the variants for a CPU
# without FMA) they fail, and nothing else does (see the README).
LIBM = pytest.mark.libm
DESCENT_LIBM = {(_PN, "gd:rule=optimal"), (_PN, "gd:rule=simplified"),
                (_PN, "gd:rule=clipped"), (_PN, "gd:rule=optimal,f_star=-1"),
                (_SP, "gd:rule=optimal"), (_SP, "gd:rule=simplified"),
                (_SP, "gd:rule=clipped"), (_SP, "ngd:r_hat=20,schedule=linear"),
                ("logistic:l1=0.5", "gd:rule=optimal")}


class TestRunExperiment:
    def test_csv_matches_trace_length(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = RunConfig(
            problem_spec="power_norm:d=2,p=4,l1=1",
            method_spec="gd:rule=simplified",
            radius=10.0,
            budget=200,
            output_path=str(out),
        )
        report = run_experiment(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == 200
        assert report.termination == "BudgetExhausted"
        assert report.total_oracle_calls == 200

    def test_budget_zero_single_record(self, tmp_path):
        cfg = RunConfig(
            problem_spec="power_norm:d=2,p=4,l1=1",
            method_spec="gd:rule=simplified",
            radius=10.0,
            budget=0,
            output_path=str(tmp_path / "short.csv"),
        )
        run_experiment(cfg)
        lines = (tmp_path / "short.csv").read_text().splitlines()
        assert len(lines) == 2  # header + k=0
        assert lines[1].startswith("0,")

    def test_gap_column_nonincreasing_for_gd(self, tmp_path):
        cfg = RunConfig(
            problem_spec="power_norm:d=2,p=6,l1=1",
            method_spec="gd:rule=optimal",
            radius=10.0,
            budget=500,
            output_path=str(tmp_path / "mono.csv"),
        )
        run_experiment(cfg)
        rows = (tmp_path / "mono.csv").read_text().splitlines()[1:]
        gaps = [float(row.split(",")[2]) for row in rows]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_two_stage_stage_column(self, tmp_path):
        cfg = RunConfig(
            problem_spec="power_norm:d=2,p=6,l1=1",
            method_spec="two_stage:",
            radius=10.0,
            budget=5000,
            output_path=str(tmp_path / "two.csv"),
        )
        run_experiment(cfg)
        rows = (tmp_path / "two.csv").read_text().splitlines()[1:]
        stages = [row.split(",")[6] for row in rows]
        flips = sum(1 for a, b in zip(stages, stages[1:]) if a != b)
        assert flips == 1 and stages[0] == "1" and stages[-1] == "2"

    def test_polyak_without_f_star_fails(self, tmp_path):
        cfg = RunConfig(
            problem_spec="logistic:l1=0.5",
            method_spec="gd:rule=polyak",
            x0=[1.0],
            budget=10,
            output_path=str(tmp_path / "x.csv"),
        )
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_polyak_with_explicit_target(self, tmp_path):
        cfg = RunConfig(
            problem_spec="logistic:l1=0.5",
            method_spec="gd:rule=polyak,f_star=0",
            x0=[1.0],
            budget=50,
            output_path=str(tmp_path / "pl.csv"),
        )
        report = run_experiment(cfg)
        assert report.best_gap is not None

    @pytest.mark.parametrize(
        "problem, method, start, budget, lines, stage1, digest",
        [
            # hand-over on the gap target: power_norm knows f_star
            ("power_norm:d=2,p=6,l1=1", "two_stage:", 10.0, 4000, 1348, 14,
             "f41208cd5b94f25d9b3f80279b5b5c0740ad3ec7d9ad269faab3c88ff6a563f9"),
            # hand-over on the gradient target: logistic has no f_star
            ("logistic:l1=0.5", "two_stage:", 3.0, 2000, 675, 6,
             "2faf5d94defad0b2632b886f68d9c90d9f19c37ab34f5c20377fa49785402e37"),
            pytest.param("power_norm:d=2,p=6,l1=1", "agmsdr:", 2.0, 2000, 672, 0,
                         "fe1ca67b9f0bbf1b96bbc2a26ee1eb7e9a8a69784f16c9573d6bd35c8b646e08",
                         marks=LIBM),
            # a non-radial objective off the axis, stopped by the budget
            pytest.param(_SP, "two_stage:", [3.0, -4.0, 5.0], 2000, 679, 11,
                         "21d00529da21d89245c9368b211b507b11b6233c7fa1773f2d8771cbf6328a04",
                         marks=LIBM),
        ],
        ids=["two_stage_gap", "two_stage_grad", "agmsdr", "two_stage_separable"],
    )
    def test_accelerated_csv_golden(self, problem, method, start, budget, lines,
                                    stage1, digest, tmp_path):
        """The accelerated paths' CSV bytes, segment probes and hand-over included.
        `start` is a radius along e1 or an explicit x0."""
        out = tmp_path / "acc.csv"
        where = {"x0": start} if isinstance(start, list) else {"radius": start}
        run_experiment(RunConfig(problem, method, budget=budget, output_path=str(out),
                                 **where))
        data = out.read_bytes()
        rows = data.decode().splitlines()
        assert len(rows) == lines  # header included
        assert sum(row.endswith(",1") for row in rows[1:]) == stage1
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "problem, method, x0, termination, lines, digest",
        [pytest.param(*g, marks=LIBM) if g[:2] in DESCENT_LIBM else g
         for g in DESCENT_CSV_GOLDEN],
        ids=[f"{p.split(':')[0]}-{m}" for p, m, *_ in DESCENT_CSV_GOLDEN],
    )
    def test_descent_csv_golden(self, problem, method, x0, termination, lines, digest,
                                tmp_path):
        """The descent paths' CSV bytes: every gd rule and two ngd schedules off
        the axis, an empty f_gap column, and a diverged run's inf/nan cells."""
        out = tmp_path / "descent.csv"
        report = run_experiment(RunConfig(problem, method, x0=x0, budget=2000,
                                          output_path=str(out)))
        data = out.read_bytes()
        assert report.termination == termination
        assert len(data.decode().splitlines()) == lines  # header included
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "problem, method, x0, termination, lines, digest",
        [g for g in DESCENT_CSV_GOLDEN if g[3] == "Diverged"],
        ids=["power_norm", "separable_pnorm"],
    )
    def test_diverged_golden_runs_without_warnings(self, problem, method, x0, termination,
                                                   lines, digest, tmp_path):
        """Overflow to inf and nan is recorded in the trace, not warned about."""
        out = tmp_path / "diverged.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(RunConfig(problem, method, x0=x0, budget=2000,
                                              output_path=str(out)))
        assert report.termination == termination == "Diverged"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_byte_identical_rerun(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            cfg = RunConfig(
                problem_spec="power_norm:d=2,p=4,l1=1",
                method_spec="gd:rule=optimal",
                radius=10.0,
                budget=300,
                seed=5,
                output_path=str(tmp_path / f"{tag}.csv"),
            )
            run_experiment(cfg)
            paths.append(tmp_path / f"{tag}.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWriteCsv:
    def test_golden_rows(self, tmp_path):
        """Full rows, missing gaps and gradient norms, and non-finite or
        signed-zero values all print as the per-field writer printed them."""
        inf, nan = math.inf, math.nan
        cols = first_order._columns(
            6, 1, 0.0, None, {"grad_norm": np.array([0, 0, 1, 0, 0, 1], dtype=bool)},
            f_val=np.array([12.5, 3.141592653589793, 1e-20, inf, -0.0, nan]),
            grad_norm=np.array([5.0, 0.30000000000000004, nan, nan, inf, nan]),
            step_len=np.array([0.1, 1e-300, 0.0, -0.0, nan, -inf]),
            oracle_calls=np.array([1, 2, 75, 76, 77, 78]))
        cols["stage"][2:] = 2
        # f_gap is f_val - 0.0, missing on rows 1 and 5
        cols["missing"][[1, 5], first_order.OPTIONAL.index("f_gap")] = True
        trace = Trace(columns=cols, final_x=np.zeros(2), termination="Diverged")
        write_csv(trace, tmp_path / "golden.csv")
        assert (tmp_path / "golden.csv").read_text() == (
            "k,f_val,f_gap,grad_norm,step_len,oracle_calls,stage\n"
            "0,12.5,12.5,5,0.10000000000000001,1,1\n"
            "1,3.1415926535897931,,0.30000000000000004,1e-300,2,1\n"
            "2,9.9999999999999995e-21,9.9999999999999995e-21,,0,75,2\n"
            "3,inf,inf,nan,-0,76,2\n"
            "4,-0,-0,inf,nan,77,2\n"
            "5,nan,,,-inf,78,2\n"
        )

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        """A 10^5-row trace is formatted CSV_CHUNK rows at a time: the peak
        is that of one chunk (928 558 bytes measured with numpy 2.4)."""
        f = parse_problem("power_norm:d=2,p=4,l1=1")
        trace = gd_run(f, StepRule("optimal", f.params), np.array([10.0, 0.0]), 10**5)
        assert len(trace) == 10**5 > 50 * CSV_CHUNK
        write_csv(trace, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_csv(trace, tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10**6
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def rowwise_csv(trace: Trace) -> str:
    """The trace as CSV, formatted row by row: one `%` per full row, field by
    field where a cell is empty (the writer that the column writer replaced)."""
    lines = [CSV_HEADER]
    for row in zip(*(trace.column(name) for name in CSV_HEADER.split(","))):
        if None in row:
            floats = ("" if v is None else format(v, ".17g") for v in row[1:5])
            lines.append(",".join([str(row[0]), *floats, str(row[5]), str(row[6])]))
        else:
            lines.append("%d,%.17g,%.17g,%.17g,%.17g,%d,%d" % row)
    return "\n".join(lines) + "\n"


# subnormals, signed zeros, non-finite values and extremes
CSV_SPECIAL = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0)


class TestWriteCsvDifferential:
    """write_csv against the row-wise reference on seeded columnar traces."""

    GAPS = ("equal", "other", "mixed", "unknown")

    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 255, 256, 257, 600, 1023, 1024, 1025])
    def test_matches_rowwise(self, n, gap, tmp_path):
        rng = np.random.default_rng(10 * n + self.GAPS.index(gap))

        def draw():
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 307, n)
            special = rng.random(n) < 0.3
            values[special] = rng.choice(CSV_SPECIAL, special.sum())
            return values

        f_val = draw()
        cols = first_order._columns(
            n, 1, None if gap == "unknown" else 0.0, None,
            {"grad_norm": rng.random(n) < 0.1},
            f_val=f_val, grad_norm=np.abs(draw()), step_len=draw(),
            oracle_calls=np.cumsum(rng.integers(1, 200, n)))
        cols["stage"][:] = rng.integers(1, 3, n)
        if gap != "unknown":
            # f_gap is f_val - 0.0, bit for bit f_val; "other" replaces it and
            # "mixed" replaces it on the middle row only
            other = {"equal": [], "other": slice(None), "mixed": [n // 2]}[gap]
            cols["f_gap"][other] = draw()[other]
            cols["missing"][:, first_order.OPTIONAL.index("f_gap")] = rng.random(n) < 0.1
        trace = Trace(columns=cols, final_x=np.zeros(2), termination="BudgetExhausted")
        write_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == rowwise_csv(trace)
        equal = np.array_equal(cols["f_gap"].view(np.int64), f_val.view(np.int64))
        assert equal == (gap == "equal") and trace.present("f_gap").any() == (gap != "unknown")


def percent_cells(col: np.ndarray) -> tuple[list[str], list[str]]:
    """`csv_rows` of one column, cell by cell, beside '%.17g' or '%d' of each entry."""
    assert len(col) >= csvformat.SHORT_CHUNK  # else `%` formats every entry
    spec = "%.17g" if col.dtype.kind == "f" else "%d"
    return csv_rows([col], [None]).decode().split("\n")[:-1], [spec % v for v in col.tolist()]


def boundary_floats() -> np.ndarray:
    """Both signs of: 10**k and its neighbours for every k of the fast range
    (13 of them print as a power of ten they lie below: the 17 digits carry
    to 10**17), the fast range's own edges, 1e-5 and 1e-4, where %g leaves
    fixed point, 1e16 and 1e17, where it leaves it, exact halves at the
    17th digit, zero, inf, NaN, subnormals and the largest double."""
    centres = [float(f"1e{k}") for k in range(-280, 281)]
    centres += [csvformat._FAST_MIN, csvformat._FAST_MAX, 1e-5, 1e-4, 1e16, 1e17,
                9999999999999998.0, 99999999999999984.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308]
    values = [w for c in centres for w in (math.nextafter(c, 0), c, math.nextafter(c, math.inf))]
    values += [1e15 + 0.25 + k for k in range(20)]  # 10*v ends in exactly .5
    values += [0.0, math.inf, math.nan]
    return np.array(values + [-v for v in values])


class TestCsvRows:
    """The numpy formatter against `%`, byte for byte."""

    def test_bit_patterns(self):
        """Seeded float64 bit patterns: every exponent, both signs, subnormals,
        infs and NaNs.  The fast path certifies nearly every draw of its
        range, so the `%` fallback cannot carry the comparison."""
        rng = np.random.default_rng(30)
        n = 2 * 10**5
        bits = (rng.integers(0, 2**52, n, dtype=np.uint64)
                | (np.arange(n, dtype=np.uint64) % 2048) << np.uint64(52)
                | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
        values = bits.view(np.float64)
        got, want = percent_cells(values)
        assert got == want
        fast = csvformat._digits(values)[0]
        in_range = (np.abs(values) >= csvformat._FAST_MIN) & (np.abs(values) <= csvformat._FAST_MAX)
        assert in_range.sum() > 0.9 * n
        assert fast[in_range].mean() >= 0.99
        assert not fast[~in_range].any()

    def test_boundaries(self):
        values = boundary_floats()
        got, want = percent_cells(values)
        assert got == want
        # 1e-14 lies below 10**-14: its log10 floors to -15, and its digits
        # round up to 10**17, which carries back to the exponent -14
        fast, digits, x = csvformat._digits(np.array([1e-14, 1e98]))
        assert fast.all() and digits.tolist() == [10**16] * 2 and x.tolist() == [-14, 98]
        # exact halves are left to `%`, which rounds them to even
        assert not csvformat._digits(np.array([1e15 + 0.25, 1e15 + 0.75]))[0].any()

    @pytest.mark.parametrize("dtype", [np.int64, np.int8])
    def test_integers(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(31)
        edges = [0, 1, -1, 9, 10, 99, 100, info.min, info.max, info.min + 1, info.max - 1]
        if dtype is np.int64:
            edges += [s * v for s in (1, -1)
                      for v in (2**53, 2**53 + 1, 10**16, 10**17 - 1, 10**17)]
        values = np.concatenate([np.array(edges, dtype),
                                 rng.integers(info.min, info.max, 500, dtype, endpoint=True),
                                 rng.integers(-1000, 1000, 500).astype(dtype)])
        got, want = percent_cells(values)
        assert got == want


# preset_figure(which, "out") row by row: (problem_spec, method_spec, radius,
# output_path, label); every row also has x0=None, budget=100000, grad_tol=0.0,
# seed=0.
PRESET_GOLDEN = {
    "fig1": [
        ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal", 10.0,
         "out/fig1_p4_gd_optimal.csv", "fig1 p=4 gd_optimal"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=simplified", 10.0,
         "out/fig1_p4_gd_simplified.csv", "fig1 p=4 gd_simplified"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=clipped", 10.0,
         "out/fig1_p4_gd_clipped.csv", "fig1 p=4 gd_clipped"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=polyak", 10.0,
         "out/fig1_p4_gd_polyak.csv", "fig1 p=4 gd_polyak"),
        ("power_norm:d=2,p=4,l1=1", "ngd:r_hat=20,schedule=linear", 10.0,
         "out/fig1_p4_ngd.csv", "fig1 p=4 ngd"),
        ("power_norm:d=2,p=4,l1=1", "two_stage:", 10.0,
         "out/fig1_p4_two_stage.csv", "fig1 p=4 two_stage"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal", 10.0,
         "out/fig1_p6_gd_optimal.csv", "fig1 p=6 gd_optimal"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=simplified", 10.0,
         "out/fig1_p6_gd_simplified.csv", "fig1 p=6 gd_simplified"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=clipped", 10.0,
         "out/fig1_p6_gd_clipped.csv", "fig1 p=6 gd_clipped"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=polyak", 10.0,
         "out/fig1_p6_gd_polyak.csv", "fig1 p=6 gd_polyak"),
        ("power_norm:d=2,p=6,l1=1", "ngd:r_hat=20,schedule=linear", 10.0,
         "out/fig1_p6_ngd.csv", "fig1 p=6 ngd"),
        ("power_norm:d=2,p=6,l1=1", "two_stage:", 10.0,
         "out/fig1_p6_two_stage.csv", "fig1 p=6 two_stage"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=optimal", 10.0,
         "out/fig1_p8_gd_optimal.csv", "fig1 p=8 gd_optimal"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=simplified", 10.0,
         "out/fig1_p8_gd_simplified.csv", "fig1 p=8 gd_simplified"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=clipped", 10.0,
         "out/fig1_p8_gd_clipped.csv", "fig1 p=8 gd_clipped"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=polyak", 10.0,
         "out/fig1_p8_gd_polyak.csv", "fig1 p=8 gd_polyak"),
        ("power_norm:d=2,p=8,l1=1", "ngd:r_hat=20,schedule=linear", 10.0,
         "out/fig1_p8_ngd.csv", "fig1 p=8 ngd"),
        ("power_norm:d=2,p=8,l1=1", "two_stage:", 10.0,
         "out/fig1_p8_two_stage.csv", "fig1 p=8 two_stage"),
    ],
    "fig2": [
        ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal,l0=4,l1=1", 10.0,
         "out/fig2_p4_l1_1.csv", "fig2 p=4 l1=1"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal,l0=1,l1=2", 10.0,
         "out/fig2_p4_l1_2.csv", "fig2 p=4 l1=2"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal,l0=0.25,l1=4", 10.0,
         "out/fig2_p4_l1_4.csv", "fig2 p=4 l1=4"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal,l0=0.0625,l1=8", 10.0,
         "out/fig2_p4_l1_8.csv", "fig2 p=4 l1=8"),
        ("power_norm:d=2,p=4,l1=1", "gd:rule=optimal,l0=0.015625,l1=16", 10.0,
         "out/fig2_p4_l1_16.csv", "fig2 p=4 l1=16"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal,l0=256,l1=1", 10.0,
         "out/fig2_p6_l1_1.csv", "fig2 p=6 l1=1"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal,l0=16,l1=2", 10.0,
         "out/fig2_p6_l1_2.csv", "fig2 p=6 l1=2"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal,l0=1,l1=4", 10.0,
         "out/fig2_p6_l1_4.csv", "fig2 p=6 l1=4"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal,l0=0.0625,l1=8", 10.0,
         "out/fig2_p6_l1_8.csv", "fig2 p=6 l1=8"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal,l0=0.00390625,l1=16", 10.0,
         "out/fig2_p6_l1_16.csv", "fig2 p=6 l1=16"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=optimal,l0=46656,l1=1", 10.0,
         "out/fig2_p8_l1_1.csv", "fig2 p=8 l1=1"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=optimal,l0=729,l1=2", 10.0,
         "out/fig2_p8_l1_2.csv", "fig2 p=8 l1=2"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=optimal,l0=11.390625,l1=4", 10.0,
         "out/fig2_p8_l1_4.csv", "fig2 p=8 l1=4"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=optimal,l0=0.177978515625,l1=8", 10.0,
         "out/fig2_p8_l1_8.csv", "fig2 p=8 l1=8"),
        ("power_norm:d=2,p=8,l1=1", "gd:rule=optimal,l0=0.002780914306640625,l1=16", 10.0,
         "out/fig2_p8_l1_16.csv", "fig2 p=8 l1=16"),
    ],
    "fig3": [
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal", 5.0,
         "out/fig3_R5_gd_optimal.csv", "fig3 R=5 gd_optimal"),
        ("power_norm:d=2,p=6,l1=1", "two_stage:l=1024", 5.0,
         "out/fig3_R5_two_stage.csv", "fig3 R=5 two_stage"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal", 100.0,
         "out/fig3_R100_gd_optimal.csv", "fig3 R=100 gd_optimal"),
        ("power_norm:d=2,p=6,l1=1", "two_stage:l=1024", 100.0,
         "out/fig3_R100_two_stage.csv", "fig3 R=100 two_stage"),
        ("power_norm:d=2,p=6,l1=1", "gd:rule=optimal", 500.0,
         "out/fig3_R500_gd_optimal.csv", "fig3 R=500 gd_optimal"),
        ("power_norm:d=2,p=6,l1=1", "two_stage:l=1024", 500.0,
         "out/fig3_R500_two_stage.csv", "fig3 R=500 two_stage"),
    ],
}


# sha256 of every CSV that `gensmooth preset fig1|fig2|fig3 --budget 300` writes,
# by file stem: the preset traces' bytes, in every rule, schedule and stage.
PRESET_CSV_SHA256 = {
    "fig1_p4_gd_clipped":
        "8a3afdceb39f98d84bc8a5d9fd284c984d6cba2de8195a3e296079f160be45f5",
    "fig1_p4_gd_optimal":
        "9cf3a73014341b7dc108a011368ca1c533139582f9fdbfce579207815da6ecca",
    "fig1_p4_gd_polyak":
        "4d24ac7eb325fb6f22bc8d6755d2492d9e96eb87b545e4592735ee2aa79c3609",
    "fig1_p4_gd_simplified":
        "4c4826e8a613a179f8061fe4947018e91ef96db2cb963e6153acf5787ab7bd94",
    "fig1_p4_ngd":
        "bc9b4a81447f98b3a6d09918779c1a69fc5ea760ede89302e9a53975b432bd86",
    "fig1_p4_two_stage":
        "f1f6d28038c2b3603619ff17bde16099a44bb170e236974c4787e4620b09423e",
    "fig1_p6_gd_clipped":
        "823b2bfe706eff9f25b6d4fe7ade2df6e3b099a0fa55a09ff366e692e2ba4b06",
    "fig1_p6_gd_optimal":
        "fb460b5da3730b0c45fe31a05f18b74d058204289ba8ccecf2e7af29639c427e",
    "fig1_p6_gd_polyak":
        "610cf9840bb2b1ae757ddf7e78d70f03a492619c8f179d5a412ad3462e471491",
    "fig1_p6_gd_simplified":
        "32eaaeb0fdf1ffc245e98e868179aa6eb46c521221675e57bd9a1ae7c2daf9aa",
    "fig1_p6_ngd":
        "1c194862f1822afcc5f4655ac516daa84a970555bb004d0297f3b12f98f75f22",
    "fig1_p6_two_stage":
        "e7a0b34806cc8f511cc2168b3bcc14da1d912f161b1586cc1a38250cb188cbf6",
    "fig1_p8_gd_clipped":
        "c75243a486976f3ee8672f8726ebf446b3641bcd373a04d48dec4f447ec8d393",
    "fig1_p8_gd_optimal":
        "e694997eb351e851522ec4168d5536058633f355b9f272b8ca800123714486c9",
    "fig1_p8_gd_polyak":
        "31a92d830bde41427a155dae9cb0782b705c60fc2d8856e6ddb30a085202d236",
    "fig1_p8_gd_simplified":
        "5118d8b106e029acd69f2365c556b8cd80f954f27300fe0f28501ddf5911f24c",
    "fig1_p8_ngd":
        "78ab2a6101fbf423c3f1ba473b7bdc9c61184df3d90b7951fb56b9bf89536b29",
    "fig1_p8_two_stage":
        "81286c7424d44f99432e9d802eba22d0cb06c7db1aa68f75989f104322fba416",
    "fig2_p4_l1_1":
        "9cf3a73014341b7dc108a011368ca1c533139582f9fdbfce579207815da6ecca",
    "fig2_p4_l1_2":
        "4480f00ff0262d89fbf66767a89094c7ec41a1828b320d280b956fc9955fd7c7",
    "fig2_p4_l1_4":
        "dddb95ae784a72073065ba85b5a97c3979a71798d2483794331f9ade9862a6cd",
    "fig2_p4_l1_8":
        "6a4a1c3d9c303cb4d8b8a099d96ac1e1a92564a429ea2e32fc93b359a2f2299d",
    "fig2_p4_l1_16":
        "ccd3b02ba79c5d196b8a38730bae8efbd9984b71085e8a9bdc214d60b3612c1f",
    "fig2_p6_l1_1":
        "fb460b5da3730b0c45fe31a05f18b74d058204289ba8ccecf2e7af29639c427e",
    "fig2_p6_l1_2":
        "9b946f1646ad70d2a7407888743a1a13411c5fd1fe1962544c99c66b330b5a37",
    "fig2_p6_l1_4":
        "ffdc817780a79fff0053363ac5a2dd8750418633ddec6b3a627503513921744f",
    "fig2_p6_l1_8":
        "78fc27a94431f241118f83b71f0533edacd35daf04fba311f7402d140e47ca55",
    "fig2_p6_l1_16":
        "5851fc82d8eebdf42f93f20164dbed22e7a17788d2db9c37ce2241192ff04b6e",
    "fig2_p8_l1_1":
        "e694997eb351e851522ec4168d5536058633f355b9f272b8ca800123714486c9",
    "fig2_p8_l1_2":
        "5f2cd9b6174ab4177899845109189557dbd3e039ab65b65c4dd677f347994d25",
    "fig2_p8_l1_4":
        "1f145fbbd5f2eda16296b34e69d789ba4c2f3cac2fb6ee66702a21bd95b473b7",
    "fig2_p8_l1_8":
        "49654c5b80aeb0e4aaf942f2ca29d23ba3ed7c6b407aaf95ed83a39de1c77d32",
    "fig2_p8_l1_16":
        "d7db08524c5160c301abe8cbd42a4248dcaf8eb5ef6c139234ff5f7852b87a0b",
    "fig3_R5_gd_optimal":
        "f142d239f250c579d6e36dad40391050fd13f9720eb459c003cf7b8cbd3474b4",
    "fig3_R5_two_stage":
        "4f17e457d988f4d52a5da6eaf68871fdbab914d400fa33d04080f45b788713de",
    "fig3_R100_gd_optimal":
        "29f67827e8af8e2f91192ddcddec5a4f74fd4bf842032fac24847a30ed915012",
    "fig3_R100_two_stage":
        "38a124f51fdc01fd9a0300d3067421bb8483dfbfece21ac37e9ab8f04afcacff",
    "fig3_R500_gd_optimal":
        "1c9bd469778446d2046110be756d572bc56b32ae8027b81cee0d8c722b4f5986",
    "fig3_R500_two_stage":
        "5c9010ec4e52493586804cd48fffa9f3bdf3523f9ead53204634029506f4411d",
}


class TestPresets:
    @pytest.mark.parametrize("which", sorted(PRESET_GOLDEN))
    def test_golden_configs(self, which):
        """Every field of every run, in the order and types the metadata echoes."""
        want = [
            {"problem_spec": problem, "method_spec": method, "radius": radius, "x0": None,
             "budget": 100000, "grad_tol": 0.0, "seed": 0, "output_path": path,
             "label": label}
            for problem, method, radius, path, label in PRESET_GOLDEN[which]
        ]
        got = [cfg.to_json() for cfg in preset_figure(which, "out")]
        assert json.dumps(got) == json.dumps(want)

    @LIBM
    def test_csv_digests_at_budget_300(self, tmp_path, capsys):
        """Every preset run's CSV, byte for byte, at a budget of 300."""
        for which in PRESETS:
            assert main(["preset", which, "--out-dir", str(tmp_path), "--budget", "300"]) == 0
        got = {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
        assert got == PRESET_CSV_SHA256

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset 'fig4'"):
            preset_figure("fig4")

    def test_fig1_constants(self):
        configs = preset_figure("fig1")
        p6 = [c for c in configs if "p=6" in c.problem_spec]
        assert len(p6) == 6
        f = parse_problem(p6[0].problem_spec)
        assert f.params.l0 == 256.0
        assert all(c.radius == 10.0 for c in configs)

    def test_fig1_method_set(self):
        configs = preset_figure("fig1")
        kinds = {parse_method(c.method_spec).kind for c in configs}
        assert kinds == {"gd", "ngd", "two_stage"}
        ngd = [c for c in configs if c.method_spec.startswith("ngd")][0]
        m = parse_method(ngd.method_spec)
        assert m.r_hat == 20.0 and m.schedule == "linear"

    def test_fig2_same_objective_per_panel(self):
        configs = preset_figure("fig2")
        panels = {}
        for c in configs:
            panels.setdefault(c.problem_spec, []).append(c.method_spec)
        assert len(panels) == 3
        assert all(len(methods) == 5 for methods in panels.values())

    def test_fig3_radii_and_heavy_constant(self):
        configs = preset_figure("fig3")
        radii = sorted({c.radius for c in configs})
        assert radii == [5.0, 100.0, 500.0]
        two_stage = [c for c in configs if c.method_spec.startswith("two_stage")][0]
        assert parse_method(two_stage.method_spec).l_const == 4.0 * 256.0

    def test_fig3_start_is_radius_times_first_axis(self):
        configs = preset_figure("fig3")
        big = [c for c in configs if c.radius == 500.0][0]
        f = parse_problem(big.problem_spec)
        np.testing.assert_array_equal(initial_point(f, big), [500.0, 0.0])

    def test_configs_round_trip_through_json(self):
        presets = [cfg for which in PRESETS for cfg in preset_figure(which)]
        for cfg in presets + [cfg for cfg, _ in THEOREM_RUNS]:
            again = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
            assert again == cfg


class TestVerifySuite:
    def test_kernels_scope_clean(self, tmp_path):
        code, reports = run_verify_suite(scope="kernels", seed=0,
                                         report_path=tmp_path / "k.txt")
        assert code == 0
        assert all(r.n_failures == 0 for r in reports)

    def test_negative_controls_force_nonzero_exit(self):
        code, reports = run_verify_suite(scope="kernels", seed=0, negative_controls=True)
        assert code == 1
        controls = [r for r in reports if "corrupted" in r.check_name or "negative" in r.check_name]
        assert controls and all(r.n_failures > 0 for r in controls)

    def test_report_files_reproducible(self, tmp_path):
        for tag in ("a", "b"):
            run_verify_suite(scope="lemmas", seed=9, report_path=tmp_path / f"{tag}.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_full_scope_reproducible(self, tmp_path):
        for tag in ("a", "b"):
            code, _ = run_verify_suite(scope="all", seed=4, report_path=tmp_path / f"{tag}.txt")
            assert code == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            run_verify_suite(scope="everything")

    def test_theorem_runs_are_run_configs(self, tmp_path, monkeypatch, capsys):
        """`run --config` on a theorem row writes the trace the suite monitors."""
        monitored, rate_monitor = [], verify.rate_monitor

        def record(trace, bound, **kwargs):
            if not monitored or monitored[-1] is not trace:
                monitored.append(trace)
            return rate_monitor(trace, bound, **kwargs)

        monkeypatch.setattr(verify, "rate_monitor", record)
        assert run_verify_suite(scope="theorems")[0] == 0
        assert len(monitored) == len(THEOREM_RUNS)
        for i, ((cfg, _), trace) in enumerate(zip(THEOREM_RUNS, monitored)):
            config = tmp_path / f"theorem{i}.json"
            config.write_text(json.dumps(cfg.to_json()))
            out = tmp_path / f"theorem{i}.csv"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            write_csv(trace, tmp_path / f"monitored{i}.csv")
            assert out.read_bytes() == (tmp_path / f"monitored{i}.csv").read_bytes()
        assert capsys.readouterr().out.count("termination=") == len(THEOREM_RUNS)

    def test_theorems_report_golden(self, tmp_path):
        """The rate-theorem runs and their monitors, line for line."""
        code, _ = run_verify_suite(scope="theorems", seed=0, report_path=tmp_path / "t.txt")
        assert code == 0
        assert (tmp_path / "t.txt").read_text() == (
            "rate_min_grad\t4000\t0\t4.111056758699597\t0\n"
            "rate_convex_gap\t4002\t0\t3.1482987575853599e-11\t0\n"
            "rate_min_grad\t4000\t0\t4.1110567565997496\t0\n"
            "rate_convex_gap\t4002\t0\t3.1494776352376334e-11\t0\n"
            "rate_polyak\t443\t0\t5.9975534042069783e-109\t0\n"
            "rate_normalized_fixed\t2\t0\t0.20183711076428867\t0\n"
            "rate_two_stage\t5335\t0\t0\t0\n"
        )

    def test_all_scope_report_golden(self, tmp_path):
        """Every scope plus the negative controls, line for line, and the
        worst case each report names (which `line()` does not print)."""
        code, reports = run_verify_suite(scope="all", seed=0, negative_controls=True,
                                         report_path=tmp_path / "all.txt")
        assert code == 1
        assert (tmp_path / "all.txt").read_text() == (
            "kernel_phi_upper\t10000\t0\t0\t0\n"
            "kernel_conjugate_sandwich\t10000\t0\t0\t0\n"
            "kernel_log_bracket\t10000\t0\t0\t0\n"
            "kernel_conjugate_grid\t100\t0\t9.9468951195069617e-07\t0\n"
            "fd_gradient[power_norm(d=2,p=4.0,l1=1.0)]\t50\t0\t9.9998789668457699e-06\t0\n"
            "smoothness_envelopes[power_norm(d=2,p=4.0,l1=1.0)]\t"
                "1000\t0\t1.6072097420838309e-09\t0\n"
            "convex_lower_bounds[power_norm(d=2,p=4.0,l1=1.0)]\t"
                "1000\t0\t9.0902634946555797e-10\t0\n"
            "fd_gradient[power_norm(d=2,p=6.0,l1=1.0)]\t50\t0\t9.9998636730179575e-06\t0\n"
            "smoothness_envelopes[power_norm(d=2,p=6.0,l1=1.0)]\t"
                "1000\t0\t4.7009108597779759e-06\t0\n"
            "convex_lower_bounds[power_norm(d=2,p=6.0,l1=1.0)]\t"
                "1000\t0\t1.4903767016590135e-06\t0\n"
            "fd_gradient[power_norm(d=2,p=8.0,l1=1.0)]\t50\t0\t9.9998718847567806e-06\t0\n"
            "smoothness_envelopes[power_norm(d=2,p=8.0,l1=1.0)]\t"
                "1000\t0\t0.0010792912449930406\t0\n"
            "convex_lower_bounds[power_norm(d=2,p=8.0,l1=1.0)]\t"
                "1000\t0\t1.3125680534342697e-05\t0\n"
            "fd_gradient[logistic(l1=0.5)]\t50\t0\t9.9999480282777276e-06\t0\n"
            "smoothness_envelopes[logistic(l1=0.5)]\t1000\t0\t6.2338347017572575e-09\t0\n"
            "convex_lower_bounds[logistic(l1=0.5)]\t1000\t0\t2.0463546307835839e-09\t0\n"
            "fd_gradient[affine_logistic(|a|=3,b=0.0,l1=1.0)]\t"
                "50\t0\t9.9998987393819546e-06\t0\n"
            "smoothness_envelopes[affine_logistic(|a|=3,b=0.0,l1=1.0)]\t"
                "1000\t0\t4.1103491860946524e-08\t0\n"
            "convex_lower_bounds[affine_logistic(|a|=3,b=0.0,l1=1.0)]\t"
                "1000\t0\t1.4256191394081278e-11\t0\n"
            "fd_gradient[exp_phi(d=2,l0=1.0,l1=1.0)]\t50\t0\t9.9998833233273252e-06\t0\n"
            "smoothness_envelopes[exp_phi(d=2,l0=1.0,l1=1.0)]\t"
                "1000\t0\t5.9453686823409989e-10\t0\n"
            "convex_lower_bounds[exp_phi(d=2,l0=1.0,l1=1.0)]\t"
                "1000\t0\t2.7659688689697799e-10\t0\n"
            "fd_gradient[separable_pnorm(d=3,p=4.0,l1=1.0)]\t50\t0\t9.9999314995984201e-06\t0\n"
            "smoothness_envelopes[separable_pnorm(d=3,p=4.0,l1=1.0)]\t"
                "1000\t0\t6.4188910988119185e-06\t0\n"
            "convex_lower_bounds[separable_pnorm(d=3,p=4.0,l1=1.0)]\t"
                "1000\t0\t1.018726156152026e-06\t0\n"
            "rate_min_grad\t4000\t0\t4.111056758699597\t0\n"
            "rate_convex_gap\t4002\t0\t3.1482987575853599e-11\t0\n"
            "rate_min_grad\t4000\t0\t4.1110567565997496\t0\n"
            "rate_convex_gap\t4002\t0\t3.1494776352376334e-11\t0\n"
            "rate_polyak\t443\t0\t5.9975534042069783e-109\t0\n"
            "rate_normalized_fixed\t2\t0\t0.20183711076428867\t0\n"
            "rate_two_stage\t5335\t0\t0\t0\n"
            "fd_gradient[corrupted_gradient]\t50\t50\t-0.008861804128188152\t0\n"
            "negative_control_halved_l0\t1000\t114\t-6.7352837861615384\t0\n"
        )
        assert [r.worst_case_input for r in reports] == [
            "t=0.0",
            "g=0.0",
            "g=0.0",
            "g=9.545904936907373",
            "x=[-1.5726929848460454, -4.21537734648222]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-1.5726929848460454, -4.21537734648222]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-4.813891868792964, 0.31918329388905403]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[0.07353152482684644]",
            "x=[-3.650860116752014] "
            "y=[-3.650363179379057]",
            "x=[-3.650860116752014] "
            "y=[-3.650363179379057]",
            "x=[4.329641857840848, 0.4505290686994142]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-4.868203164323283, 0.9605742352067586] "
            "y=[-4.865565775453137, 0.962313476327578]",
            "x=[-4.813891868792964, 0.31918329388905403]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[-0.3088148533554567, 2.060179698147804] "
            "y=[-0.3088625921685082, 2.060390370599535]",
            "x=[2.2806146891580137, -1.403647227746005, 4.138909276018587]",
            "x=[1.1429907112504696, -1.8843451470191415, -2.8150758774490807] "
            "y=[1.1422594941882636, -1.8844037238020734, -2.8148090964466768]",
            "x=[1.1429907112504696, -1.8843451470191415, -2.8150758774490807] "
            "y=[1.1422594941882636, -1.8844037238020734, -2.8148090964466768]",
            "K=3999",
            "monotone gap k=3998",
            "K=3999",
            "monotone gap k=3998",
            "k=439",
            "K=1000",
            "sublevel k=14",
            "x=[0.13226839964880802, -0.4810084101516751]",
            "x=[1.09195869375339, 0.2811188477545933] "
            "y=[2.931178826835505, 0.7083632115675164]",
        ]


class TestMainEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main([
            "run", "--problem", "power_norm:d=2,p=4,l1=1",
            "--method", "gd:rule=simplified", "--radius", "10",
            "--budget", "100", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "termination=" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "problem_spec": "power_norm:d=2,p=4,l1=1",
            "method_spec": "gd:rule=optimal",
            "radius": 10.0,
            "budget": 50,
            "output_path": str(tmp_path / "from_file.csv"),
        }))
        code = main(["run", "--config", str(cfg_file),
                     "--budget", "75", "--out", str(tmp_path / "override.csv")])
        assert code == 0
        rows = (tmp_path / "override.csv").read_text().splitlines()
        assert len(rows) - 1 == 75  # flag beats file

    def test_config_file_with_specs_from_flags(self, tmp_path, capsys):
        """A file may leave out fields the flags supply."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"radius": 10, "budget": 50}))
        code = main(["run", "--config", str(cfg_file),
                     "--problem", "power_norm:d=2,p=4,l1=1", "--method", "gd:rule=optimal",
                     "--out", str(tmp_path / "partial.csv")])
        assert code == 0
        assert len((tmp_path / "partial.csv").read_text().splitlines()) - 1 == 50

    def test_config_missing_spec_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"radius": 10, "budget": 50}))
        code = main(["run", "--config", str(cfg_file), "--method", "gd:rule=optimal",
                     "--out", str(tmp_path / "never.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "problem_spec" in err and "--problem" in err

    @pytest.mark.parametrize("text", ["5", "[]", "null"])
    def test_config_not_an_object_exits_2(self, text, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        code = main(["run", "--config", str(cfg_file),
                     "--problem", "power_norm:d=2,p=4,l1=1", "--method", "gd:rule=optimal",
                     "--radius", "10", "--budget", "5", "--out", str(tmp_path / "never.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")

    @pytest.mark.parametrize(
        "field,value",
        [("budget", "100"), ("radius", "10"), ("x0", [1.0, "a"]), ("grad_tol", True),
         ("problem_spec", 5), ("label", 5)],
        ids=["budget_str", "radius_str", "x0_str_item", "grad_tol_bool", "problem_spec_int",
             "label_int"],
    )
    def test_config_wrong_type_exits_2(self, field, value, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "problem_spec": "power_norm:d=2,p=4,l1=1", "method_spec": "gd:rule=optimal",
            "radius": 10.0, "budget": 5, "output_path": str(tmp_path / "never.csv"),
            field: value,
        }))
        code = main(["run", "--config", str(cfg_file)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config field {field} must be")
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config", "preset"])
    def test_negative_budget_exits_2(self, source, tmp_path, capsys):
        """A negative budget is one `error:` line, before any CSV is written."""
        out = tmp_path / "out"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"budget": -3}))
        run = ["run", "--problem", "power_norm:d=2,p=4,l1=1", "--method", "gd:rule=optimal",
               "--radius", "10", "--out", str(out / "never.csv")]
        argv = {"flag": [*run, "--budget", "-3"], "config": [*run, "--config", str(cfg_file)],
                "preset": ["preset", "fig1", "--out-dir", str(out), "--budget", "-3"]}[source]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget must be nonnegative, got -3\n"
        assert not out.exists()

    def test_parse_error_exits_2(self, capsys):
        code = main(["run", "--problem", "power_norm:d=2,p=2,l1=1",
                     "--method", "gd:rule=optimal", "--radius", "1",
                     "--out", "/tmp/never.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_exp_phi_without_dimension_exits_2(self, command, tmp_path, capsys):
        """d=0 is one `error:` line, not an IndexError or a division by zero."""
        args = {"run": ["--method", "gd:rule=optimal", "--radius", "1",
                        "--out", str(tmp_path / "never.csv")], "certify": []}[command]
        code = main([command, "--problem", "exp_phi:d=0,l0=1,l1=1", *args])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: bad spec 'exp_phi:d=0,l0=1,l1=1' at position 0: "
                           "dim must be positive\n")
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("method", ["ngd:r_hat=5,schedule=sqrt", "agmsdr:", "two_stage:"])
    def test_grad_tol_only_for_gd(self, method, tmp_path, capsys):
        """A gradient tolerance that the method would not honor is an error."""
        code = main(["run", "--problem", "logistic:l1=0", "--method", method,
                     "--radius", "1", "--budget", "200", "--grad-tol", "0.5",
                     "--out", str(tmp_path / "never.csv")])
        assert code == 2
        kind = method.partition(":")[0]
        assert capsys.readouterr().err == f"error: grad_tol applies only to gd, not {kind}\n"
        assert not (tmp_path / "never.csv").exists()

    def test_separable_pnorm_without_dimension_exits_2(self, capsys):
        code = main(["certify", "--problem", "separable_pnorm:d=0,p=4,l1=1"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: bad spec 'separable_pnorm:d=0,p=4,l1=1' at position 0: "
                           "dim must be positive\n")

    @pytest.mark.parametrize("radius", ["-1", "nan"])
    def test_certify_radius_must_be_positive_and_finite(self, radius, capsys):
        code = main(["certify", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--radius", radius, "--samples", "10"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: region_radius must be positive and finite\n"

    @pytest.mark.parametrize("r_hat", ["nan", "inf"])
    def test_ngd_r_hat_must_be_positive_and_finite(self, r_hat, tmp_path, capsys):
        code = main(["run", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--method", f"ngd:r_hat={r_hat},schedule=linear",
                     "--radius", "10", "--out", str(tmp_path / "never.csv")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: r_hat must be positive\n"
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("l_const", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["agmsdr", "two_stage"])
    def test_accelerated_l_must_be_positive_and_finite(self, kind, l_const, tmp_path, capsys):
        code = main(["run", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--method", f"{kind}:l={l_const}", "--radius", "10", "--budget", "200",
                     "--out", str(tmp_path / "never.csv")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: l_const must be positive and finite\n"
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("problem", ["logistic:l1=1", "affine_logistic:a=3;4,l1=5"])
    def test_agmsdr_default_l_needs_a_positive_l0(self, problem, tmp_path, capsys):
        code = main(["run", "--problem", problem, "--method", "agmsdr:", "--radius", "1",
                     "--budget", "20", "--out", str(tmp_path / "never.csv")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: default l = 3*l0 is 0 because the objective's l0 is 0: "
                           "give l\n")
        assert not (tmp_path / "never.csv").exists()

    def test_two_stage_needs_a_positive_l0(self, tmp_path, capsys):
        """With l0 = 0 both hand-over targets are 0, which stage 1 never meets."""
        code = main(["run", "--problem", "logistic:l1=1", "--method", "two_stage:", "--radius",
                     "1", "--budget", "200", "--out", str(tmp_path / "never.csv")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: two_stage's hand-over targets are 0 because the objective's "
                           "l0 is 0\n")
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--method", "gd:rule=optimal", "--radius", "2", "--budget", "5"], ["certify"]])
    def test_overflowing_affine_norm_is_one_error_line(self, command, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--problem", "affine_logistic:a=1e300;1,l1=1",
                         *(["--out", str(tmp_path / "never.csv")] if command[0] == "run" else [])])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and out.err.startswith("error: ")
        assert "a, b and ||a|| finite" in out.err
        assert not (tmp_path / "never.csv").exists()

    def test_two_stage_from_the_optimum_stops_there(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        code = main(["run", "--problem", "power_norm:d=2,p=4,l1=1", "--method", "two_stage:",
                     "--radius", "0", "--budget", "10", "--out", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "termination=StationaryExact" in out and "oracle_calls=1 " in out
        assert out_csv.read_text().splitlines()[1:] == ["0,0,0,0,0,1,1"]

    @pytest.mark.parametrize("f_star", ["nan", "-inf", "inf"])
    @pytest.mark.parametrize("rule", ["polyak", "optimal"])
    def test_gd_f_star_must_be_finite(self, rule, f_star, tmp_path, capsys):
        code = main(["run", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--method", f"gd:rule={rule},f_star={f_star}", "--radius", "10",
                     "--budget", "200", "--out", str(tmp_path / "never.csv")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: f_star must be finite, got {float(f_star)}\n"
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("grad_tol", ["nan", "-1", "-0.5", "-inf", "-1e-300"])
    @pytest.mark.parametrize("method", ["gd:rule=optimal", "ngd:r_hat=5,schedule=sqrt"])
    def test_grad_tol_must_be_nonnegative(self, method, grad_tol, tmp_path, capsys):
        """A tolerance that `g <= grad_tol` can never meet is an error, not ignored."""
        code = main(["run", "--problem", "logistic:l1=0", "--method", method,
                     "--radius", "1", "--budget", "200", "--grad-tol", grad_tol,
                     "--out", str(tmp_path / "never.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: grad_tol must be nonnegative, got {float(grad_tol)}\n")
        assert not (tmp_path / "never.csv").exists()

    def test_negative_start_as_separate_argument(self, tmp_path, capsys):
        """`--x0 -1;2` is a start point, as `--x0=-1;2` is, not an unknown option."""
        runs = {}
        for form, args in (("joined", ["--x0=-1;2"]), ("separate", ["--x0", "-1;2"])):
            out = tmp_path / f"{form}.csv"
            code = main(["run", "--problem", "power_norm:d=2,p=4,l1=1",
                         "--method", "gd:rule=optimal", *args, "--budget", "5",
                         "--out", str(out)])
            assert code == 0 and capsys.readouterr().err == ""
            runs[form] = out.read_text()
        assert runs["separate"] == runs["joined"]
        assert runs["joined"].splitlines()[1].startswith("0,6.25")  # f(-1, 2) = 5**2/4

    @pytest.mark.parametrize("x0_from", ["flag", "config"])
    @pytest.mark.parametrize("radius_from", ["flag", "config"])
    def test_start_given_twice_exits_2(self, x0_from, radius_from, tmp_path, capsys):
        """x0 and radius together are one `error:` line, wherever each comes from."""
        given = {"x0": ([1.0, 2.0], ["--x0", "1;2"]), "radius": (500.0, ["--radius", "500"])}
        data, flags = {}, []
        for field, source in (("x0", x0_from), ("radius", radius_from)):
            value, args = given[field]
            if source == "config":
                data[field] = value
            else:
                flags += args
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(data))
        code = main(["run", "--config", str(cfg_file), "--problem", "power_norm:d=2,p=4,l1=1",
                     "--method", "gd:rule=optimal", *flags, "--budget", "3",
                     "--out", str(tmp_path / "never.csv")])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: config gives both x0 and radius: give one start\n"
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_certify_tol_must_be_finite(self, tol, tmp_path, capsys, monkeypatch):
        """A tolerance no violation can be compared against is an error, not a verdict."""
        monkeypatch.chdir(tmp_path)
        code = main(["certify", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--samples", "10", "--tol", tol])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: tol must be finite, got {float(tol)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_overflow_exits_2(self, tmp_path, capsys):
        """An OverflowError inside the accelerated line search is a clean error."""
        code = main(["run", "--problem", "exp_phi:d=2,l0=1,l1=1",
                     "--method", "agmsdr:", "--radius", "300",
                     "--out", str(tmp_path / "overflow.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["agmsdr:ls_tol=-1", "agmsdr:ls_max=0",
                                        "agmsdr:ls_max=60", "two_stage:l=1024,ls_tol=1e-10",
                                        "two_stage:rule=optimal", "two_stage:target=gap"])
    def test_run_rejects_bad_line_search(self, method, tmp_path, capsys):
        """The segment search and stage 1 take no spec keys: each exits 2
        naming the key at its token's offset."""
        code = main(["run", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--method", method, "--radius", "10", "--budget", "2000",
                     "--out", str(tmp_path / "ls.csv")])
        assert code == 2
        key = re.findall(r"(\w+)=", method)[-1]
        assert capsys.readouterr().err == (
            f"error: bad spec {method!r} at position {method.index(key)}: "
            f"unknown key {key!r}\n"
        )
        assert not (tmp_path / "ls.csv").exists()

    def test_verify_subcommand_exit_codes(self, tmp_path, capsys):
        assert main(["verify", "--scope", "kernels",
                     "--report", str(tmp_path / "r.txt")]) == 0
        assert main(["verify", "--scope", "kernels", "--negative-controls"]) == 1

    def test_certify_subcommand(self, capsys):
        code = main(["certify", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--radius", "5", "--samples", "500", "--seed", "3"])
        assert code == 0
        assert "max_violation=" in capsys.readouterr().out

    def test_certify_flags_violation(self, capsys):
        code = main(["certify", "--problem", "logistic:l1=0",
                     "--l0", "0.2", "--radius", "0.001",
                     "--samples", "1000", "--seed", "3"])
        assert code == 1

    def test_certify_fails_on_nan_hessian(self, monkeypatch, capsys):
        def nan_hessian(spec):
            return replace(parse_problem(spec), hessian=lambda x: np.full((2, 2), np.nan))

        monkeypatch.setattr("gensmooth.cli.parse_problem", nan_hessian)
        code = main(["certify", "--problem", "power_norm:d=2,p=4,l1=1",
                     "--radius", "5", "--samples", "100", "--seed", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL ") and out.endswith(" max_violation=nan\n")

    def test_preset_writes_metadata(self, tmp_path, capsys):
        code = main(["preset", "fig2", "--out-dir", str(tmp_path), "--budget", "50"])
        assert code == 0
        meta = json.loads((tmp_path / "fig2_meta.json").read_text())
        assert "omitted" in meta["note"]
        assert len(meta["configs"]) == 15
        assert len(list(tmp_path.glob("fig2_*.csv"))) == 15

    def test_usage_error_exits_2(self, capsys):
        assert main(["run", "--radius", "1"]) == 2

    @pytest.mark.parametrize("command", [
        ["verify", "--seed", "-1"], ["certify", "--problem", "logistic:l1=0.5", "--seed", "-3"],
        ["run", "--problem", "power_norm:d=2,p=4,l1=1", "--method", "gd:rule=optimal",
         "--radius", "1", "--budget", "5", "--out", "never-written.csv", "--seed", "-1"]])
    def test_negative_seed_names_itself(self, command, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(command) == 2
        assert not (tmp_path / "never-written.csv").exists()
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: seed must be nonnegative, got {command[-1]}\n"


# Values the fuzz below writes into specs and flags: the first five valid
# almost everywhere, the rest at an edge or beyond it.
FUZZ_VALUES = ("1", "2", "4", "6", "0.5", "0", "-0", "2.5", "-1", "1e-300", "1e300", "inf",
               "-inf", "nan", "3;4", "1e-320")
FUZZ_DIMS = ("1", "2", "3", "-1", "0", "1.5")
FUZZ_RADII = ("1", "10", "0.5", "0", "-1", "1e300", "nan", "inf")


def _fuzz_spec(rng, name, keys):
    """A `name:` spec from its table: each required key present with
    probability 0.9 and each other key 0.3; a choice key takes one of its
    choices or a wrong one, d a value of FUZZ_DIMS, any other key one of
    FUZZ_VALUES, half the time one of the first five."""
    pairs = []
    for key, (_, convert, default) in keys.items():
        if rng.random() < (0.9 if default is REQUIRED else 0.3):
            pool = ((*convert, "bogus") if isinstance(convert, tuple)
                    else FUZZ_DIMS if key == "d" else FUZZ_VALUES)
            pairs.append(f"{key}={rng.choice(pool if rng.random() < 0.5 else pool[:5])}")
    return f"{name}:" + ",".join(pairs)


def test_one_error_line_fuzz(tmp_path, capsys):
    """800 argument lists drawn from the spec tables, run in-process: each
    exits 0, 1 or 2 with no warning; 0 and 1 print nothing on stderr, and 2
    prints one `error:` line and writes no CSV.  Budgets and samples are at
    most 30 and d at most 3, so the whole draw takes under 2 s."""
    rng = random.Random(0)
    out = tmp_path / "run.csv"
    for _ in range(800):
        name = rng.choice(list(PROBLEMS))
        problem = _fuzz_spec(rng, name, PROBLEMS[name][1])
        radius = rng.choice(FUZZ_RADII)
        if rng.random() < 0.8:
            kind = rng.choice(list(METHODS))
            argv = ["run", "--problem", problem, "--method", _fuzz_spec(rng, kind, METHODS[kind]),
                    "--radius", radius, "--budget", rng.choice(("0", "1", "30")),
                    "--out", str(out)]
        else:
            argv = ["certify", "--problem", problem, "--radius", radius,
                    "--samples", rng.choice(("0", "1", "20"))]
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
            assert not out.exists(), argv
        else:
            assert err == "", (argv, err)


def test_readme_documents_spec_tables():
    """The README's CLI section shows every key of every problem and method
    spec, and names every preset."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    tables = {name: keys for name, (_, keys) in PROBLEMS.items()} | METHODS
    for name, keys in tables.items():
        shown = re.search(rf"`{name}:([^`]*)`", cli_section)
        assert shown, f"README shows no {name}: spec"
        assert set(re.findall(r"(\w+)=", shown.group(1))) == set(keys), name
    for which in PRESETS:
        assert f"`{which}`" in cli_section, which
