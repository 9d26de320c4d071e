"""The reuse paths of the exact diagnostics against the plain references in
reference.py, bit for bit.

The Host-Kra recursion (composing through one table per h, and the
automorphism's ladder of matrix powers) is checked against
`ref_raised_exact`, which composes every (k, h) afresh by exact arithmetic
and sums each last product's Haar coefficient directly; the van der Corput
check against math.fsum means of fresh products per lag; `evaluate` against `ref_evaluate`, which
takes exp of every phase, multiplies every term by its coefficient and adds
it to 0.0; the single-point `SkewProduct.step` and `frac` against exact
residues.  Each compares raw float64 bits (or the exact exception), so a
change of operation order that moves one rounding fails here.
"""

import math

import numpy as np
import pytest

from ergolab.errors import (DimensionMismatchError, ResourceCapError,
                            ValidationError)
from ergolab.observables import _FLOAT_FREQ_LIMIT, Observable, evaluate
from ergolab.phases import CHUNK, frac
from ergolab.rng import SplitMix64
from ergolab.seminorms import hk_seminorm, van_der_corput_check
from ergolab.systems import (GOLDEN, SQRT2_M1, SQRT3_M1, Rotation,
                             SkewProduct, ToralAutomorphism, cat_map,
                             default_heisenberg, golden_rotation,
                             standard_skew)
from reference import (ref_compose_term, ref_evaluate, ref_raised_exact,
                       ref_residue, ref_skew_step, ref_van_der_corput)

# ---------------------------------------------------------------------------
# The Host-Kra recursion: one composition table per call


def _outcome(fn):
    try:
        value = fn()
    except ResourceCapError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "power", None)
    return value.hex() if isinstance(value, float) else value


def _observables(dim, seed):
    rng = np.random.default_rng(seed)
    zero = (0,) * dim
    out = [Observable.from_dict(dim, {zero: 0.25, (1,) + zero[1:]: 0.5,
                                      (-1,) + zero[1:]: -0.5j})]
    for n in (3, 5):
        coeffs = {}
        while len(coeffs) < n:
            k = tuple(int(v) for v in rng.integers(-3, 4, dim))
            coeffs[k] = complex(*rng.normal(size=2))
        out.append(Observable.from_dict(dim, coeffs))
    return out


SYSTEMS = [golden_rotation(), Rotation((GOLDEN, SQRT2_M1)), standard_skew(),
           SkewProduct((GOLDEN, SQRT2_M1), ((1, -1),), (SQRT3_M1,)),
           default_heisenberg(), cat_map()]


@pytest.mark.parametrize("system", SYSTEMS,
                         ids=["rot1", "rot2", "skew", "skew21", "heisenberg",
                              "cat"])
@pytest.mark.parametrize("order,H", [(2, 30), (3, 7), (4, 3)])
def test_recursion_bits_match_uncached_composition(system, order, H):
    for f in _observables(system.obs_dim, 3 + order):
        got = _outcome(lambda: hk_seminorm(system, f, order, H,
                                           method="exact").value)
        want = _outcome(lambda: ref_raised_exact(system, f, order, H)
                        ** (1.0 / (1 << order)))
        assert got == want


@pytest.mark.parametrize("order,H", [(2, 60), (3, 40)])
def test_cat_map_overflow_raises_at_the_same_h_and_falls_back(order, H):
    f = Observable.from_dict(2, {(1, 0): 0.75, (0, 1): -0.5j, (1, 1): 0.25})
    CM = cat_map()
    got = _outcome(lambda: hk_seminorm(CM, f, order, H, method="exact").value)
    want = _outcome(lambda: ref_raised_exact(CM, f, order, H))
    assert want[0] == "FrequencyOverflowError"
    assert got == want
    est = hk_seminorm(CM, f, order, H, inner_n=300, rng=SplitMix64(4))
    mc = hk_seminorm(CM, f, order, H, inner_n=300, rng=SplitMix64(4),
                     method="monte_carlo")
    assert not est.exact and est.value.hex() == mc.value.hex()


def test_automorphism_compose_term_matches_frozen_body():
    A = ToralAutomorphism(((1, 1, 0), (1, 2, 1), (0, 1, 2)))
    for n in (-3, 0, 1, 7, 30, 44, 45, 46, 80):
        for k in ((1, 0, 0), (0, -2, 1), (3, 1, -1)):
            assert _outcome(lambda: A.compose_term(k, n)) == \
                _outcome(lambda: ref_compose_term(A, k, n))


@pytest.mark.parametrize("inner_n", [0, -3])
@pytest.mark.parametrize("method", ["auto", "exact", "monte_carlo"])
def test_inner_n_below_one_is_rejected(inner_n, method):
    f = Observable.character((1, 0))
    with pytest.raises(ValidationError, match="inner"):
        hk_seminorm(cat_map(), f, 2, outer_h=60, inner_n=inner_n,
                    method=method, rng=SplitMix64(1))


# ---------------------------------------------------------------------------
# The van der Corput check: one lag buffer


@pytest.mark.parametrize("m,N", [(1, CHUNK - 1), (1, CHUNK), (1, CHUNK + 1),
                                 (2, CHUNK // 2 - 1), (2, CHUNK // 2),
                                 (2, CHUNK // 2 + 1), (1, 500), (3, 6000)])
def test_vdc_bits_match_fresh_temporaries(m, N):
    # N * m at and around 16,384 values (256 KiB of products), from where
    # numpy would elide the temporary conj(...) of the plain expression
    # x * conj(...) and multiply as conj(...) * x; the products are
    # x * conj(...) at every size.  A lag's mean moves with a last-bit
    # change of its products about half the time, so each size runs
    # several short checks
    rng = np.random.default_rng(N + m)
    for H in (1, 1, 2, 2, 3, 3):
        z = rng.normal(size=(N + H, m)) + 1j * rng.normal(size=(N + H, m))
        seq = z[:, 0] if m == 1 else z
        rep = van_der_corput_check(seq, H)
        ref = ref_van_der_corput(seq, H)
        assert (rep.lhs.hex(), rep.rhs.hex(), rep.n_used) == \
            (ref.lhs.hex(), ref.rhs.hex(), N)


# ---------------------------------------------------------------------------
# evaluate: a zero frequency takes no exp


# general complex coefficients: numpy's c * v and v * c differ in the last
# bit, and evaluate multiplies as c * v
ZERO_FREQ = [Observable.constant(0.3 - 0.7j, 1),
             Observable.from_dict(1, {(0,): -0.5 + 1e-300j, (2,): 0.3 - 0.7j,
                                      (-1,): -0.45 + 0.8j}),
             Observable.constant(-1.5j, 2),
             Observable.from_dict(2, {(0, 0): 0.6 - 0.35j, (1, -2): 0.3 - 0.7j}),
             Observable.from_dict(3, {(0, 0, 0): 1.0, (0, 1, 0): -0.45 + 0.8j,
                                      (1, 0, 2): 0.2 + 0.9j})]


@pytest.mark.parametrize("f", ZERO_FREQ,
                         ids=["const1", "three1", "const2", "two2", "three3"])
@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_zero_frequency_evaluate_bits(f, size):
    rng = np.random.default_rng(size + f.dim)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-17, -2.0, 3.0]
    blocks = [rng.random((size, f.dim)), -rng.random((size, f.dim)) * 1e3,
              rng.choice(special, size=(size, f.dim)),
              rng.normal(size=(size, f.dim + 1)) * 1e-12]
    for pts in blocks:
        assert evaluate(f, pts).tobytes() == ref_evaluate(f, pts).tobytes()
    for p in ([0.0] * f.dim, [-0.0] * f.dim, [-5e-324] * f.dim,
              list(-rng.random(f.dim))):
        got, want = evaluate(f, p), ref_evaluate(f, p)
        assert type(got) is complex
        assert (got.real.hex(), got.imag.hex()) == \
            (want.real.hex(), want.imag.hex())


# ---------------------------------------------------------------------------
# evaluate: a first term with coefficient 1 is exp itself


UNIT_FIRST = {
    "int1": Observable(1, (((3,), 1),)),
    "one": Observable.character(-7),
    "one-0j": Observable(1, (((2,), complex(1.0, -0.0)),)),
    "huge": Observable.character(_FLOAT_FREQ_LIMIT + 3),
    "near1": Observable.character(5, 1.0 + 2.0 ** -52),     # not 1
    "unit+c": Observable.from_dict(1, {(1,): 1.0, (4,): 0.3 - 0.7j}),
    "c+unit": Observable.from_dict(1, {(-3,): 0.5 + 0.25j, (2,): 1.0}),
    "zero+unit": Observable.from_dict(1, {(0,): 1.0, (1,): 1.0}),
    "unit2": Observable.character((1, -2)),
    "unit+c2": Observable.from_dict(2, {(-1, 2): 1.0, (3, 0): 0.2 + 0.9j}),
}
POINTS = [0.0, -0.0, 5e-324, -5e-324, 1 - 2.0 ** -53, 1e300, -1e300,
          math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("f", UNIT_FIRST.values(), ids=UNIT_FIRST.keys())
@pytest.mark.parametrize("shape", [(CHUNK - 1,), (CHUNK,), (CHUNK + 1,),
                                   (163, 100)])
def test_unit_coefficient_evaluate_bits(f, shape):
    rng = np.random.default_rng(len(shape) + f.dim)
    points = POINTS
    # exact phases take finite points only, and so does a zero frequency,
    # whose exp the reference takes
    if f is UNIT_FIRST["huge"] or f is UNIT_FIRST["zero+unit"]:
        points = [x for x in POINTS if math.isfinite(x)]
    size = (*shape, f.dim)
    blocks = [rng.random(size), -rng.random(size) * 1e3,
              rng.choice(points, size=size),
              rng.normal(size=(*shape, f.dim + 1)) * 1e-12]
    with np.errstate(invalid="ignore"):
        for pts in blocks:
            assert evaluate(f, pts).tobytes() == \
                ref_evaluate(f, pts).tobytes()
        for x in points:
            got, want = evaluate(f, [x] * f.dim), \
                ref_evaluate(f, [x] * f.dim)
            assert type(got) is complex
            assert np.complex128(got).tobytes() == \
                np.complex128(want).tobytes()


# ---------------------------------------------------------------------------
# The single-point skew step in Python floats


@pytest.mark.parametrize("system", [
    standard_skew(),
    SkewProduct((GOLDEN, SQRT2_M1), ((1, 2), (0, -3)), (SQRT3_M1, 0.25))],
    ids=["skew", "skew22"])
def test_skew_step_bits_match_numpy_step(system):
    rng = np.random.default_rng(system.dim)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1.0, 3.0, -1.0]
    for i in range(2000):
        p = [rng.random(system.dim), -rng.random(system.dim) * 1e4,
             rng.choice(special, size=system.dim),
             1.0 + rng.random(system.dim) * 1e3,
             rng.normal(size=system.dim) * 1e-12][i % 5]
        n = int(rng.choice([1, -1, 0, 7, 10 ** 6 + 3, -12345, 2 ** 40]))
        want = ref_skew_step(system, p, n).tobytes()
        assert system.step(p, n).tobytes() == want
        assert system.step(tuple(p.tolist()), n).tobytes() == want
    with pytest.raises(ValidationError):
        system.step([math.nan] + [0.0] * (system.dim - 1))
    with pytest.raises(DimensionMismatchError):
        system.step([0.0] * (system.dim + 1))
    rows = rng.random((20, system.dim))
    assert system.step(rows, 3).tobytes() == \
        np.stack([ref_skew_step(system, q, 3) for q in rows]).tobytes()


def test_frac_of_a_float_matches_floor_difference():
    rng = np.random.default_rng(8)
    xs = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1.0, -1.0, -3.0, 0.5,
          -0.5, 1 - 2 ** -53, -(1 - 2 ** -53), 2.0 ** 60, -2.0 ** 60, 1e300,
          -1e300, math.inf, math.nan] + (rng.normal(size=500) * 1e3).tolist()
    wants = []
    for x in xs:
        with np.errstate(invalid="ignore"):
            # x - floor(x) is the exact residue rounded once; inf - inf and
            # nan - nan give the non-finite inputs' NaN
            want = np.float64(ref_residue(x) if math.isfinite(x) else
                              np.subtract(x, np.floor(x))).tobytes()
            got = np.float64(frac(np.float64(x))).tobytes()
        assert np.float64(frac(x)).tobytes() == want
        assert got == want
        wants.append(want)
    with np.errstate(invalid="ignore"):      # the array branch, all at once
        assert [v.tobytes() for v in frac(np.array(xs))] == wants
