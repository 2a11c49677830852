"""Every module attribute that bench/tracing.py patches is the one a run
calls: the loops bind their names when a call starts, never at import, so
a traced (or mutated) function patched on its module is the one that runs."""

import numpy as np
import pytest

from gensmooth import agmsdr, first_order
from gensmooth.first_order import GD_VARIANTS, StepRule
from gensmooth.problems import power_norm

F = power_norm(2, 6.0, 1.0)
START = np.array([6.0, 8.0])

# (module, attribute, a short run that must call it)
PATCH_POINTS = [
    *((first_order, f"stepsize_{rule}",
       lambda rule=rule: first_order.gd_run(F, StepRule(rule, F.params), START, 5))
      for rule in GD_VARIANTS),
    (agmsdr, "stepsize_simplified", lambda: agmsdr.agmsdr_run(F, START, None, 10)),
    (agmsdr, "segment_line_search", lambda: agmsdr.agmsdr_run(F, START, None, 10)),
    (agmsdr, "gd_run", lambda: agmsdr.two_stage_run(F, START, F.params, 50)),
    (agmsdr, "agmsdr_run", lambda: agmsdr.two_stage_run(F, START, F.params, 50)),
]


@pytest.mark.parametrize("module, name, run", PATCH_POINTS,
                         ids=[f"{m.__name__.rsplit('.', 1)[1]}.{n}" for m, n, _ in PATCH_POINTS])
def test_a_run_calls_the_patched_function(monkeypatch, module, name, run):
    original, calls = getattr(module, name), []

    def patched(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)
    run()
    assert calls
