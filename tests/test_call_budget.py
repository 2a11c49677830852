"""Python calls per loop iteration, counted, as upper bounds.

Each iteration of the descent and accelerated loops pays for every Python
frame it opens, so their count is part of the loops' cost.  A profile hook
counts the `call` events of two runs of different lengths; the difference
per iteration (per row) leaves out what a run does once, such as building
its trace.  The count depends on the code and the Python version, not on
the host: Python 3.12 inlines comprehensions, so there it can only be
lower.
"""

import sys

import numpy as np
import pytest

from gensmooth.agmsdr import agmsdr_run
from gensmooth.first_order import StepRule, gd_run, ngd_run
from gensmooth.problems import power_norm, separable_pnorm


def counted_calls(run):
    """(Python calls made, rows) of run()."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(hook)
    try:
        trace = run()
    finally:
        sys.setprofile(None)
    return calls, len(trace)


def calls_per_row(make, short=200, long=400):
    (n1, rows1), (n2, rows2) = counted_calls(lambda: make(short)), counted_calls(lambda: make(long))
    assert rows2 > rows1 > 10  # neither run stopped at once
    return (n2 - n1) / (rows2 - rows1)


P4 = power_norm(2, 4.0, 1.0)
SEP3 = separable_pnorm(3, 4.0, 1.0)
START = np.array([6.0, 8.0])

# make(budget) -> trace, and the most calls an iteration (a row) may make.
# The loop, then per call to the oracle `floats`: itself, the norm, the
# profile and the gradient's comprehension (the separable objective: a
# profile call per coordinate and the sum); the step rule; the move's
# comprehension.  A row of the accelerated loop where v_k keeps winning:
# the search and its result, `floats` at v_k, `value` at the next iterate
# (itself, the norm, the profile), the step rule, the move and the
# state's two updates.
BUDGETS = {
    **{f"gd:{rule}": (lambda n, rule=rule: gd_run(P4, StepRule(rule, P4.params), START, n), 6)
       for rule in ("optimal", "simplified", "clipped", "polyak")},
    "gd:optimal separable_pnorm d=3": (
        lambda n: gd_run(SEP3, StepRule("optimal", SEP3.params), np.array([3.0, 4.0, 1.0]), n),
        7),
    "ngd:sqrt": (lambda n: ngd_run(P4, 3.0, "sqrt", START, n), 6),
    "agmsdr v wins": (lambda n: agmsdr_run(power_norm(2, 6.0, 1.0), np.array([0.3, 0.4]), None,
                                           n), 12),
}


@pytest.mark.parametrize("name", BUDGETS)
def test_calls_per_iteration_stay_within_budget(name):
    make, most = BUDGETS[name]
    assert calls_per_row(make) <= most
