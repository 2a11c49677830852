"""Batched oracles and the chunked certifier: the same bits as per-point calls."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gensmooth.cli import PROBLEMS, SHIPPED_FOR_VERIFY, main, parse_problem
from gensmooth.kernels import SmoothnessParams
from gensmooth.problems import (
    _at_points,
    _values_grads,
    affine_logistic,
    certify_smoothness,
    exp_phi,
    logistic_1d,
    power_norm,
    sample_ball,
    separable_pnorm,
    spectral_norm,
)


def wrapped(f):
    """f with every oracle swapped for a wrapper, as bench tracing does, so
    that nothing of the builder's is used."""
    value, gradient, hessian = f.value, f.gradient, f.hessian
    return replace(f, value=lambda x: value(x), gradient=lambda x: gradient(x),
                   hessian=lambda x: hessian(x))


# certify_smoothness(f, f.params, 5.0, 1000, seed): (spec, seed,
# repr(max_violation), sha256 of violating_point.tobytes()), pinned before the
# batched kernels (exp_phi's since its coefficient-form gradient and Hessian);
# a "wrapped:" spec is the objective through `wrapped`.
CERTIFY_GOLDEN = (
    ("power_norm:d=2,p=4,l1=1", 0, "-7.165378006224188e-05",
     "a330339cd23767a596482f5654f8d3a067ec5389de30a610aa47b7074550ab76"),
    ("power_norm:d=2,p=4,l1=1", 1, "-5.635572009055068e-09",
     "ac36b26f8cd9fc193ce4c880276c8f40d58c5b9c3269a786b20d9e0258970274"),
    ("power_norm:d=2,p=6,l1=1", 0, "-0.0032367609388757046",
     "1cd6e44894d7c053717c9ee102d7d569fe0bf810320ee66c3ba53ded238f48ff"),
    ("power_norm:d=2,p=6,l1=1", 1, "-0.00021410000317700906",
     "5d1f152327875458a253a0103ad552d1c373782b0440979ad5cb4d599508dc83"),
    ("power_norm:d=2,p=8,l1=1", 0, "-15430.215620497038",
     "b91255fe2072c965255957276699b4a658167644deeacb463c510939735b3901"),
    ("power_norm:d=2,p=8,l1=1", 1, "-15607.810527326918",
     "0a43d3d2b28c635f13caf8b385c98aeb2b24ea7c225b3850cab27c0836ce2e7c"),
    ("logistic:l1=0.5", 0, "-5.270233432441707e-07",
     "7df340379a669e58d7505e8dddd99e72558e263df05510c9e64ce72b78df99a8"),
    ("logistic:l1=0.5", 1, "-1.0299811602221265e-06",
     "aec2f07d9c41f25a35a6b4da5667e2ae7d2cc8efdb20c2317dd420af283e9ce7"),
    ("affine_logistic:a=3;0,b=0,l1=1", 0, "-2.9116619206570604e-05",
     "47e312bf4131d7f6ad715d7251f33763c7dd88f24b098cf87ea3646011f2b2bb"),
    ("affine_logistic:a=3;0,b=0,l1=1", 1, "-2.5005421835366803e-06",
     "ee1b4c746c96ec79d9b65effca904fa35cf6233e910e1b4687765d68a23878bb"),
    ("exp_phi:d=2,l0=1,l1=1", 0, "5.684341886080802e-14",
     "2b52bb8cee79dac1390234ac98574df29ae5be32d14d253ec7606fec5d4595e7"),
    ("exp_phi:d=2,l0=1,l1=1", 1, "4.263256414560601e-14",
     "1bdd9872c221b1532e96f1cf4a1619683a3c458a15414c700748fe8a2b59e6a0"),
    ("separable_pnorm:d=3,p=4,l1=1", 0, "-0.001311045621195106",
     "7761e878fb773051bed5643d222ff7043868e7e89ea8df7a79cc386d43dabe60"),
    ("separable_pnorm:d=3,p=4,l1=1", 1, "-0.0009795436304900207",
     "86387a15d2a0692c602cbd9dc5baae211755589f5b01ff5ef7bb5d9dfc597a53"),
    ("wrapped:exp_phi:d=2,l0=1,l1=1", 0, "5.684341886080802e-14",
     "2b52bb8cee79dac1390234ac98574df29ae5be32d14d253ec7606fec5d4595e7"),
    ("wrapped:exp_phi:d=2,l0=1,l1=1", 1, "4.263256414560601e-14",
     "1bdd9872c221b1532e96f1cf4a1619683a3c458a15414c700748fe8a2b59e6a0"),
)


def test_golden_covers_every_shipped_objective():
    shipped = {spec for spec, *_ in CERTIFY_GOLDEN if not spec.startswith("wrapped:")}
    assert shipped == set(SHIPPED_FOR_VERIFY)


@pytest.mark.parametrize("spec,seed,worst,digest", CERTIFY_GOLDEN,
                         ids=[f"{row[0]}-{row[1]}" for row in CERTIFY_GOLDEN])
def test_certify_golden(spec, seed, worst, digest):
    if spec.startswith("wrapped:"):
        f = wrapped(parse_problem(spec.split(":", 1)[1]))
    else:
        f = parse_problem(spec)
    report = certify_smoothness(f, f.params, 5.0, 1000, seed)
    assert repr(report.max_violation) == worst
    assert hashlib.sha256(report.violating_point.tobytes()).hexdigest() == digest


AFFINE_A = np.array([3.0, -4.0, 1.5])
BUILDERS = {
    **{f"power_norm_p{p}_d{d}": (lambda p=p, d=d: power_norm(d, p, 1.0))
       for p in (3.5, 4, 6, 8) for d in (1, 2, 3, 5)},
    **{f"separable_pnorm_d{d}": (lambda d=d: separable_pnorm(d, 4, 1.0)) for d in (1, 3, 5)},
    **{f"exp_phi_d{d}": (lambda d=d: exp_phi(d, SmoothnessParams(1.7, 0.6))) for d in (1, 2, 3)},
    **{f"affine_logistic_d{d}": (lambda d=d: affine_logistic(AFFINE_A[:d], 0.25, 1.0))
       for d in (1, 2, 3)},
    # one-dimensional: the three are three seeds of points
    **{f"logistic_{d}": (lambda: logistic_1d(0.5)) for d in (1, 2, 3)},
}


def point_blocks(dim, seed, n_blocks=24, rows=4):
    """Blocks of seeded points, each block at one order of magnitude, from
    1e-300 to 1e300 (sorted, so an overflow stays in the blocks past it),
    then blocks between 1e-3 and 1e3; the first block holds a zero row and
    a -0.0 row."""
    rng = np.random.default_rng(seed)
    exponents = np.concatenate([np.sort(rng.uniform(-300, 300, n_blocks)),
                                rng.uniform(-3, 3, n_blocks)])
    blocks = [rng.standard_normal((rows, dim)) * 10.0 ** e for e in exponents]
    blocks[0][0], blocks[0][1] = 0.0, -0.0
    blocks[1][0, 0] = -0.0
    return blocks


def outcome(fn, *args):
    """(shape, dtype, bytes) of each array fn returns, or the type it raises."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            out = fn(*args)
        except Exception as exc:  # any exception: its type is the outcome
            return type(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return tuple((np.shape(a), np.asarray(a).dtype, np.asarray(a).tobytes()) for a in parts)


def stacked(oracle):
    """Per-point calls of `oracle` at the rows of X, stacked as float64."""
    return lambda X: np.array([oracle(x) for x in X], dtype=float)


class TestBatchedMatchesPerPoint:
    """Each builder's batched kernels give, byte for byte, the per-point
    oracles' values, gradients and Hessians, or raise what they raise."""

    @pytest.mark.parametrize("name", BUILDERS)
    def test_values_gradients_and_hessians(self, name):
        f = BUILDERS[name]()
        assert f.batch is not None
        values_grads, hessians = f.batch
        checked = 0
        for X in point_blocks(f.dim, seed=len(name)):
            want_vg = outcome(lambda X: (stacked(f.value)(X),
                                         stacked(f.gradient)(X).reshape(X.shape)), X)
            assert outcome(values_grads, X) == want_vg
            assert outcome(_values_grads, f, X) == want_vg
            for oracle in ("value", "gradient", "hessian"):
                want = outcome(stacked(getattr(f, oracle)), X)
                assert outcome(_at_points, f, oracle, X) == want
            assert outcome(hessians, X) == outcome(stacked(f.hessian), X)
            checked += isinstance(want_vg, tuple)
        assert checked >= 24  # the moderate blocks at least

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exp_phi_overflow_raises_on_both_paths(self, d):
        f = exp_phi(d, SmoothnessParams(1.0, 1.0))
        X = np.zeros((3, d))
        X[1, 0] = 800.0  # l1 * ||x|| past ln(DBL_MAX)
        for fn in (f.value, f.gradient, f.hessian, f.value_grad):
            with pytest.raises(OverflowError):
                fn(X[1])
        for batched in f.batch:
            with pytest.raises(OverflowError):
                batched(X)
        with pytest.raises(OverflowError):
            certify_smoothness(f, f.params, 1e3, 50, seed=0)


@pytest.mark.parametrize("p", [3.5, 4.0, 6])
def test_radial_and_coordinatewise_share_the_power_profile(p):
    """In one dimension `power_norm` and `separable_pnorm` are the one
    `_power` profile through two compositions: values, gradients and
    Hessians agree in every bit, per point and batched, at log-uniform
    scales from 1e-300 to 1e300, at signed zeros and at subnormals."""
    rng = np.random.default_rng(21)
    entries = np.concatenate([10.0 ** rng.uniform(-300, 300, 2000),
                              [5e-324, 2.5e-320, 2.2250738585072014e-308, 1e-160, 1e-155]])
    entries *= rng.choice([-1.0, 1.0], entries.size)
    X = np.append(entries, [0.0, -0.0])[:, None]
    radial, coordinatewise = power_norm(1, p, 1.0), separable_pnorm(1, p, 1.0)
    for oracle in ("value", "gradient", "hessian", "value_grad"):
        one, other = getattr(radial, oracle), getattr(coordinatewise, oracle)
        for x in X:
            assert outcome(one, x) == outcome(other, x), (oracle, x.tolist())
    for one, other in zip(radial.batch, coordinatewise.batch):
        assert outcome(one, X) == outcome(other, X)


def counted(f, name, calls):
    """f with its `name` oracle swapped for a wrapper that counts its calls."""
    oracle = getattr(f, name)

    def wrapper(x):
        calls.append(name)
        return oracle(x)

    return replace(f, **{name: wrapper})


@pytest.mark.parametrize("name", ["value", "gradient", "hessian"])
@pytest.mark.parametrize("build", [lambda: power_norm(3, 4, 1.0),
                                   lambda: exp_phi(2, SmoothnessParams(1.0, 1.0)),
                                   lambda: separable_pnorm(3, 6, 1.0),
                                   lambda: affine_logistic(AFFINE_A, 0.25, 1.0),
                                   lambda: logistic_1d(0.5)],
                         ids=["power_norm", "exp_phi", "separable_pnorm", "affine_logistic",
                              "logistic"])
def test_a_swapped_oracle_is_the_one_called(build, name):
    """Swapping any one of value, gradient and hessian turns the batched
    path off: the samplers and the certifier call the swapped callable, once
    per point, and get the same bits."""
    f = build()
    calls = []
    g = counted(f, name, calls)
    assert g.batch is None
    X = sample_ball(np.random.default_rng(2), f.dim, 3.0, 7)
    for oracle in ("value", "gradient", "hessian"):
        calls.clear()
        assert _at_points(g, oracle, X).tobytes() == _at_points(f, oracle, X).tobytes()
        assert len(calls) == (7 if oracle == name else 0)
    calls.clear()
    got, want = _values_grads(g, X), _values_grads(f, X)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert len(calls) == (7 if name != "hessian" else 0)  # a hessian swap: per point, fused
    calls.clear()
    got, want = (certify_smoothness(h, f.params, 3.0, 300, seed=1) for h in (g, f))
    assert repr(got.max_violation) == repr(want.max_violation)
    assert got.violating_point.tobytes() == want.violating_point.tobytes()
    assert len(calls) == (300 if name != "value" else 0)  # certify takes no values


# One builder of each `cli.PROBLEMS` name at a dimension d (logistic is 1-D).
FLOATS_BUILDERS = {
    "power_norm": lambda d: power_norm(d, 4, 1.0),
    "logistic": lambda d: logistic_1d(0.5),
    "affine_logistic": lambda d: affine_logistic(
        np.random.default_rng(d).standard_normal(d) + 1.0, 0.25, 0.5),
    "exp_phi": lambda d: exp_phi(d, SmoothnessParams(1.7, 0.6)),
    "separable_pnorm": lambda d: separable_pnorm(d, 3.5, 1.0),
}
FLOATS_CASES = [(name, d) for name in FLOATS_BUILDERS for d in (1, 2, 3, 7, 8, 9, 30)
                if name != "logistic" or d == 1]


def floats_outcome(fn, x):
    """(value bytes, gradient bytes) of `fn` at x, or the type it raises; a
    list gradient must hold Python floats only."""
    with np.errstate(all="ignore"):
        try:
            value, grad = fn(x)
        except Exception as exc:  # any exception: its type is the outcome
            return type(exc)
    if type(grad) is list:
        assert all(type(t) is float for t in grad)
    return np.float64(value).tobytes(), np.asarray(grad, dtype=float).tobytes()


def test_floats_builders_cover_every_problem():
    assert set(FLOATS_BUILDERS) == set(PROBLEMS)


@pytest.mark.parametrize("name,d", FLOATS_CASES, ids=[f"{n}-{d}" for n, d in FLOATS_CASES])
def test_floats_is_value_grad_bit_for_bit(name, d):
    """`floats` on a point's list of Python floats gives value_grad's value
    and every gradient entry, bit for bit, as a list of Python floats: at
    the origin, at -0.0 entries, where power_norm's value overflows to inf,
    and at seeded points from 1e-300 to 1e300.  As a builder's value_grad
    is its floats on the array's list, both are also held to the batch of
    one, the numpy form of the same formula."""
    f = FLOATS_BUILDERS[name](d)
    special = np.zeros((4, d))
    special[1] = -0.0  # the origin with every sign bit set
    special[2, ::2] = -0.0
    special[2, 1::2] = np.arange(1, d // 2 + 1)
    special[3] = 1e100  # ||x||^4 overflows, ||x||^2 does not
    if name == "power_norm":
        assert f.value(special[3]) == math.inf
    for x in [*special, *np.concatenate(point_blocks(d, seed=d, n_blocks=12, rows=2))]:
        got = floats_outcome(f.floats, x.tolist())
        assert got == floats_outcome(f.value_grad, x), (name, x.tolist())
        batch_of_one = floats_outcome(lambda x: [a[0] for a in f.batch[0](x[None])], x)
        assert got == batch_of_one, (name, x.tolist())
    assert type(f.floats(special[2].tolist())[1]) is list


@pytest.mark.parametrize("name", ["value", "gradient", "hessian"])
@pytest.mark.parametrize("d", [2, 9])
def test_a_swapped_oracle_is_the_one_floats_calls(d, name):
    """A `dataclasses.replace`d value or gradient makes `floats` call the
    swapped callables, once each per point, for the same bits; a swapped
    Hessian leaves the builder's floats in place."""
    f = power_norm(d, 4, 1.0)
    calls = []
    g = counted(f, name, calls)
    assert (g.floats is f.floats) == (name == "hessian")
    for x in sample_ball(np.random.default_rng(3), d, 3.0, 5):
        calls.clear()
        assert floats_outcome(g.floats, x.tolist()) == floats_outcome(f.floats, x.tolist())
        assert calls == ([] if name == "hessian" else [name])


# certify_smoothness(f, f.params, 1.0, 2048, 0) at d = 30: (builder,
# repr(max_violation), sha256s of violating_point.tobytes()), pinned before
# the chunked certifier (exp_phi's since its coefficient-form Hessian, and
# since the fixed-order dot); it then peaked at 30.3 MB under tracemalloc.
# exp_phi's worst violation is rounding noise around 0, its inequality
# holding with equality: four samples tie at the worst value, and which
# comes first follows the rounding of eigvalsh, whose LAPACK calls BLAS
# kernels chosen for the CPU (sample 86 under SkylakeX, 114 under Haswell).
CHUNKED_GOLDEN = (
    (lambda: power_norm(30, 4, 1), "-2.0000627685425787",
     {"cab4c94391e3b6180d32ed5f32185636ca7d1d72567c8e12842a080b2444f90d"}),
    (lambda: exp_phi(30, SmoothnessParams(1, 1)), "3.774758283725532e-15",
     {"8ff6f65f71d696cefd1383b45ec0eb788c930ccefd8787f42625b1ad29d8f0ff",
      "49a383a0f1bcdaa1d81689693e3b51c418d5fc3345c1060e9356a87ad7281f86"}),
)


@pytest.mark.parametrize("build,worst,digests", CHUNKED_GOLDEN, ids=["power_norm", "exp_phi"])
def test_chunked_certifier_memory(build, worst, digests):
    f = build()
    f.hessian(np.ones(30))  # builds the cached identity, which outlives the certificate
    tracemalloc.start()
    try:
        report = certify_smoothness(f, f.params, 1.0, 2048, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert repr(report.max_violation) == worst
    assert hashlib.sha256(report.violating_point.tobytes()).hexdigest() in digests


NAN_ENTRY = np.array([[np.nan, 0.0], [0.0, 1.0]])
INF_ENTRY = np.array([[np.inf, 0.0], [0.0, 1.0]])


class TestNonFiniteSpectralNorm:
    """NaN curvature is NaN and infinite curvature is inf; only finite
    matrices reach eigvalsh, which returns garbage or raises on the others."""

    def test_nan_entry_is_nan(self):
        assert math.isnan(spectral_norm(NAN_ENTRY))

    def test_infinite_entry_is_inf(self):
        assert spectral_norm(INF_ENTRY) == math.inf
        assert spectral_norm(-INF_ENTRY) == math.inf
        assert math.isnan(spectral_norm(np.array([[np.inf, np.nan], [np.nan, 1.0]])))

    def test_stack_keeps_finite_values(self):
        m = np.random.default_rng(4).standard_normal((5, 3, 3))
        stack = m + m.transpose(0, 2, 1)
        want = spectral_norm(stack)
        stack[1, 0, 2] = np.nan
        stack[3, 1, 1] = -np.inf
        got = spectral_norm(stack)
        assert math.isnan(got[1]) and got[3] == math.inf
        assert got[[0, 2, 4]].tolist() == want[[0, 2, 4]].tolist()

    def test_certificate_names_the_first_nonfinite_sample(self):
        f = power_norm(2, 4, 1)
        calls = []

        def hessian(x):
            calls.append(x)
            return {2: INF_ENTRY, 4: NAN_ENTRY, 6: 1e9 * np.eye(2)}.get(len(calls), np.eye(2))

        report = certify_smoothness(replace(f, hessian=hessian), f.params, 5.0, 100, seed=0)
        assert math.isnan(report.max_violation)
        assert not report.passes()
        np.testing.assert_array_equal(report.violating_point, calls[3])
        calls.clear()

        def inf_only(x):
            calls.append(x)
            return INF_ENTRY if len(calls) in (2, 5) else np.eye(2)

        report = certify_smoothness(replace(f, hessian=inf_only), f.params, 5.0, 100, seed=0)
        assert report.max_violation == math.inf
        np.testing.assert_array_equal(report.violating_point, calls[1])
        report = certify_smoothness(replace(f, hessian=lambda x: NAN_ENTRY), f.params, 5.0, 100, 0)
        assert math.isnan(report.max_violation)
        first = sample_ball(np.random.default_rng(0), 2, 5.0, 100)[0]
        np.testing.assert_array_equal(report.violating_point, first)

    def test_cli_reports_an_overflowing_hessian_as_a_failure(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["certify", "--problem", "separable_pnorm:d=3,p=4,l1=1",
                         "--radius", "1e200", "--samples", "20"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        assert len(out.splitlines()) == 1
        assert out.startswith("FAIL ") and "max_violation=nan" in out
