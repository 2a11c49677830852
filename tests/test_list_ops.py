"""The loops' list arithmetic: `_list_ops(dim)`'s scale and move against the
comprehensions they replace, byte for byte, at every dimension where the
straight-line form starts, stops and is left behind."""

import itertools
import math
import struct

import numpy as np
import pytest

from gensmooth.problems import UNROLL_BELOW, _list_ops

DIMS = [*range(1, UNROLL_BELOW + 2), 1000]

# signed zeros, infinities, a NaN, subnormals and the extremes, so that
# products and quotients overflow, underflow and meet 0*inf and inf/inf
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
           -2.2250738585072014e-308, 1.7976931348623157e308, -1e308, 1e-300, 1.0, -1.0)


def scale_comprehension(c, x):
    return [c * t for t in x]


def move_comprehension(x, s, g, n):
    return [xi - s * (gi / n) for xi, gi in zip(x, g)]


def outcome(fn, *args):
    """The bytes of fn's list (a NaN's sign and payload count), or the
    type of what it raised."""
    try:
        out = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return struct.pack(f"<{len(out)}d", *out)


def draws(rng, n, dim):
    """n points of dim entries at magnitudes from the subnormals to 1e300,
    a quarter of the entries special."""
    out = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-320, 300, (n, dim))
    special = rng.random((n, dim)) < 0.25
    out[special] = rng.choice(SPECIAL, special.sum())
    return out.tolist()


@pytest.mark.parametrize("dim", DIMS)
def test_scale_and_move_are_the_comprehensions_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    scale, move = _list_ops(dim)
    # the step (or scale) c and the norm n: drawn, then every pair of
    # special ones, so n = 0 raises and an infinite step meets the zeros
    scalars = [*map(tuple, draws(rng, 100, 2)), *itertools.product(SPECIAL, SPECIAL)]
    xs, gs = draws(rng, len(scalars), dim), draws(rng, len(scalars), dim)
    raised = 0
    for x, g, (c, n) in zip(xs, gs, scalars):
        assert outcome(scale, c, x) == outcome(scale_comprehension, c, x)
        want = outcome(move_comprehension, x, c, g, n)
        assert outcome(move, x, c, g, n) == want
        raised += want is ZeroDivisionError
    assert raised >= 2 * len(SPECIAL)  # n = 0.0 and n = -0.0 against every step at least


@pytest.mark.parametrize("dim", range(1, UNROLL_BELOW))
def test_short_forms_refuse_a_point_of_another_length(dim):
    scale, move = _list_ops(dim)
    right = [1.0] * dim
    for wrong in ([1.0] * (dim - 1), [1.0] * (dim + 1)):
        with pytest.raises(ValueError):
            scale(2.0, wrong)
        with pytest.raises(ValueError):
            move(wrong, 1.0, right, 1.0)
        with pytest.raises(ValueError):
            move(right, 1.0, wrong, 1.0)


def test_each_dimension_is_built_once_and_only_from_an_integer():
    assert _list_ops(3) is _list_ops(3)
    with pytest.raises(TypeError):
        _list_ops(3.0)
    # no straight-line form below one entry: the comprehensions
    scale, move = _list_ops(0)
    assert scale(2.0, []) == [] and move([], 1.0, [], 1.0) == []
