"""The fixed-order dot behind every norm and dot whose bits reach an output.

It gives numpy's reduction np.add.reduce(u * v) bit for bit, for a point
(a Python loop below 8 entries, the reduction from 8 on) and for each row
of a stack, so a trace, a report or a certificate does not depend on which
ddot kernel OpenBLAS picks for the CPU.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gensmooth
from gensmooth.cli import main
from gensmooth.problems import _dot, _norm, _row_dots, _row_norms, _sum

DIMS = [*range(1, 10), 16, 1000]


def pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows at scales from about 1e-9 to 1e9, then rows holding 0.0, -0.0,
    inf, -inf or nan in their first entry, their last one or all of them;
    the second factor has a -0.0 entry wherever the first has a 0.0."""
    rng = np.random.default_rng(dim)
    u = rng.standard_normal((60, dim)) * np.exp(4.0 * rng.standard_normal((60, dim)))
    v = rng.standard_normal((60, dim))
    special = []
    for entry in (0.0, -0.0, math.inf, -math.inf, math.nan):
        for where in (slice(0, 1), slice(dim - 1, dim), slice(None)):
            row = rng.standard_normal(dim)
            row[where] = entry
            special.append(row)
    special = np.array(special)
    other = rng.standard_normal(special.shape)
    other[special == 0.0] = -0.0
    return np.concatenate([u, special]), np.concatenate([v, other])


def bits(values) -> bytes:
    """The bytes of each value, all NaNs as one: a zero's sign counts."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), math.nan, a).tobytes()


@pytest.mark.parametrize("dim", DIMS)
def test_dot_and_norm_are_numpys_reduction_for_points_and_rows(dim):
    u, v = pairs(dim)
    with np.errstate(all="ignore"):
        want = bits([np.add.reduce(a * b) for a, b in zip(u, v)])
        want_norms = bits([np.sqrt(np.add.reduce(a * a)) for a in u])
        assert bits([_dot(a, b) for a, b in zip(u, v)]) == want
        assert bits([_dot(a, b) for a, b in zip(u.tolist(), v.tolist())]) == want
        assert bits(_row_dots(u, v)) == want
        assert bits(_row_dots(np.asfortranarray(u), np.asfortranarray(v))) == want
        assert bits([_norm(a) for a in u]) == want_norms
        assert bits([_norm(a) for a in u.tolist()]) == want_norms
        assert bits(_row_norms(u)) == want_norms


def test_sum_adds_left_to_right_on_every_python():
    """Python 3.12's sum() compensates and gives 1.0 here; the loop gives
    the 0.0 that numpy's reduction and older Pythons give."""
    assert _sum([1e16, 1.0, -1e16]) == 0.0 == float(np.add.reduce([1e16, 1.0, -1e16]))


# Outputs whose bits depended on the ddot kernel before the fixed-order dot:
# two runs off the axis and a certificate whose worst case moved.
RUNS = {
    "descent.csv": ["run", "--problem", "power_norm:d=2,p=6,l1=1", "--method",
                    "gd:rule=optimal", "--x0", "6;-8", "--budget", "2000"],
    "two_stage.csv": ["run", "--problem", "separable_pnorm:d=3,p=4,l1=1", "--method",
                      "two_stage:", "--x0", "3;-4;5", "--budget", "2000"],
}
CERTIFY = ["certify", "--problem", "exp_phi:d=2,l0=1,l1=1", "--radius", "5", "--samples",
           "300", "--seed", "1"]
CHILD = ("import json, sys; from gensmooth.cli import main\n"
         "for args in json.loads(sys.argv[1]): main(args)")


def test_outputs_match_a_process_on_the_haswell_kernel(tmp_path, capsys):
    """A child process whose OpenBLAS takes its Haswell kernels (a ddot
    without fused multiply-adds) writes what this process writes."""
    here, child = tmp_path / "here", tmp_path / "child"
    here.mkdir()
    child.mkdir()
    for name, args in RUNS.items():
        assert main([*args, "--out", str(here / name)]) == 0
    capsys.readouterr()
    assert main(CERTIFY) == 0
    certified = capsys.readouterr().out
    src = str(Path(gensmooth.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = [[*args, "--out", str(child / name)] for name, args in RUNS.items()] + [CERTIFY]
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[-1] == certified.strip()
    for name in RUNS:
        assert (child / name).read_bytes() == (here / name).read_bytes()
