"""One table of the input rules every sampling entry point shares.

A seed is a nonnegative integer (a numpy Generator raises TypeError), a
count is at least 1 and a radius is positive and finite: an empty sample
or region would pass vacuously.  Each refusal names the argument the
caller passed, and comes before any oracle call.  The same seed rule
holds for `run_config` and `run_verify_suite`, and the normalized
monitor refuses an `r_hat` outside (0, inf) as `ngd_run` does.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gensmooth.cli import RunConfig, run_config, run_verify_suite
from gensmooth.first_order import ngd_run
from gensmooth.problems import certify_smoothness, power_norm
from gensmooth.verify import (
    check_convex_lower_bounds,
    check_smoothness_envelopes,
    conjugate_grid_consistency,
    fd_gradient_check,
    kernel_bound_checks,
    rate_monitor,
)


def _no_oracle(x):
    raise AssertionError("an oracle was called before the inputs were checked")


P4 = power_norm(2, 4, 1)
SILENT = replace(P4, value=_no_oracle, gradient=_no_oracle, hessian=_no_oracle)

# entry point -> (call(**overrides), its count's name, its radius's name or
# None); kernel_bound_checks draws no random numbers, so it takes no seed
ENTRIES = {
    "certify_smoothness": (
        lambda seed=0, n=10, radius=5.0: certify_smoothness(SILENT, P4.params, radius, n, seed),
        "n_samples", "region_radius"),
    "fd_gradient_check": (
        lambda seed=0, n=10, radius=5.0: fd_gradient_check(SILENT, n_points=n, seed=seed,
                                                           radius=radius),
        "n_points", "radius"),
    "check_smoothness_envelopes": (
        lambda seed=0, n=10, radius=5.0: check_smoothness_envelopes(
            SILENT, P4.params, n_pairs=n, seed=seed, radius=radius),
        "n_pairs", "radius"),
    "check_convex_lower_bounds": (
        lambda seed=0, n=10, radius=5.0: check_convex_lower_bounds(
            SILENT, P4.params, n_pairs=n, seed=seed, radius=radius),
        "n_pairs", "radius"),
    "conjugate_grid_consistency": (
        lambda seed=0, n=10: conjugate_grid_consistency(n_samples=n, seed=seed),
        "n_samples", None),
    "kernel_bound_checks": (lambda n=10: kernel_bound_checks(n_grid=n), "n_grid", None),
}

# (entry, overrides, error, message the refusal starts with), by test id
CASES = {}
for entry, (_, count, radius_name) in ENTRIES.items():
    if entry != "kernel_bound_checks":
        CASES[f"{entry}-seed=-1"] = (entry, {"seed": -1}, ValueError,
                                     "seed must be nonnegative, got -1")
        CASES[f"{entry}-seed=generator"] = (entry, {"seed": np.random.default_rng(0)},
                                            TypeError, "seed must be an integer")
    for n in (0, -5):
        CASES[f"{entry}-{count}={n}"] = (entry, {"n": n}, ValueError,
                                         f"{count} must be at least 1")
    for r in (0.0, -1.0, math.inf, math.nan) if radius_name else ():
        CASES[f"{entry}-{radius_name}={r}"] = (entry, {"radius": r}, ValueError,
                                               f"{radius_name} must be positive and finite")


@pytest.mark.parametrize("entry,overrides,error,message", CASES.values(), ids=CASES.keys())
def test_sampler_refuses_and_names_the_argument(entry, overrides, error, message):
    call = ENTRIES[entry][0]
    with pytest.raises(error) as info:
        call(**overrides)
    assert str(info.value).startswith(message)


def test_run_config_refuses_a_negative_seed():
    cfg = RunConfig("power_norm:d=2,p=4,l1=1", "gd:rule=optimal", radius=1.0, budget=5, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        run_config(cfg)


def test_run_verify_suite_refuses_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        run_verify_suite(scope="kernels", seed=-1)


@pytest.mark.parametrize("r_hat", [0.0, -1.0, math.inf, math.nan])
def test_normalized_monitor_refuses_r_hat(r_hat):
    trace = ngd_run(P4, 10.0, "fixed", [10, 0], 200, horizon=100)
    with pytest.raises(ValueError, match=r"^r_hat must be positive and finite$"):
        rate_monitor(trace, "normalized", params=P4.params, r=10.0, r_hat=r_hat)
