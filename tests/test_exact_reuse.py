"""The reuse paths of the exact diagnostics against frozen copies of the code
they replaced, bit for bit.

The references below are the functions as they stood before reuse came in:
the Host-Kra recursion composing every (k, h) afresh (and the automorphism
building both matrix powers per term), the van der Corput check building
fresh temporaries per lag, and the single-point `SkewProduct.step` on numpy
arrays; `evaluate` is checked against conftest's plain `ref_evaluate`,
which takes exp of every phase, multiplies every term by its coefficient
and adds it to 0.0.  Each compares raw float64 bits (or the exact
exception), so a change of operation order that moves one rounding fails
here.
"""

import math

import numpy as np
import pytest

from conftest import ref_evaluate
from ergolab.errors import (DimensionMismatchError, FrequencyOverflowError,
                            ResourceCapError, ValidationError)
from ergolab.observables import (_FLOAT_FREQ_LIMIT, Observable, conjugate,
                                 evaluate, integral_haar, multiply,
                                 product_integral)
from ergolab.phases import CHUNK, exact_sum, frac, frac_combo
from ergolab.rng import SplitMix64
from ergolab.seminorms import hk_seminorm, van_der_corput_check
from ergolab.systems import (GOLDEN, SQRT2_M1, SQRT3_M1, Rotation,
                             SkewProduct, ToralAutomorphism, _int_mat_pow,
                             binom2, cat_map, default_heisenberg,
                             golden_rotation, standard_skew)

# ---------------------------------------------------------------------------
# Frozen references


def ref_compose_term(system, k, n):
    # the polynomial kinds' compose_term is pinned against its frac_combo
    # form in test_rate_table.py; the automorphism's below builds both
    # powers on every call
    if not isinstance(system, ToralAutomorphism):
        return system.compose_term(k, n)
    limit = (1 << 63) - 1
    for mod in (1 << 128, 0):
        mat = _int_mat_pow(system.matrix, n, mod)
        new_k = tuple(sum(mat[i][j] * k[i] for i in range(system.dim))
                      for j in range(system.dim))
        if mod:
            new_k = tuple((v + (mod >> 1)) % mod - (mod >> 1) for v in new_k)
        if any(abs(v) > limit for v in new_k):
            raise FrequencyOverflowError(
                f"character frequency overflow composing with T^{n}: {k} "
                "-> a frequency beyond the 63-bit range", n)
    return new_k, 1.0 + 0.0j


def ref_compose_with_power(f, system, n):
    acc = {}
    for k, c in f.terms:
        nk, mult = ref_compose_term(system, k, n)
        acc[nk] = acc.get(nk, 0.0) + c * mult
    return Observable.from_dict(f.dim, acc)


def ref_raised_exact(system, f, order, H):
    if order == 1:
        return abs(integral_haar(f)) ** 2
    fc = conjugate(f)
    vals = []
    for h in range(1, H + 1):
        g = ref_compose_with_power(fc, system, h)
        if order == 2:
            vals.append(abs(product_integral(f, g)) ** 2)
        else:
            vals.append(ref_raised_exact(system, multiply(f, g), order - 1, H))
    return math.fsum(vals) / H


def ref_van_der_corput(seq, H):
    xs = np.asarray(seq, dtype=np.complex128)
    if xs.ndim == 1:
        xs = xs[:, None]
    N = xs.shape[0] - H

    def mean(v):
        t = exact_sum(v)
        return complex(t.real / N, t.imag / N)

    means = np.array([mean(xs[:N, c]) for c in range(xs.shape[1])])
    lhs = float(np.sum(np.abs(means) ** 2))
    rhs = math.fsum(abs(mean(np.sum(np.multiply(xs[:N], np.conj(xs[h:h + N])),
                                    axis=1)))
                    for h in range(1, H + 1)) / H
    return lhs, rhs


def ref_frac(x):
    out = np.floor(x)
    if isinstance(out, np.ndarray):
        np.subtract(x, out, out=out)
        out[out >= 1.0] -= 1.0
        return out
    out = x - out
    return out - 1.0 if out >= 1.0 else out


def ref_skew_step(system, p, n):
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1:] != (system.dim,):
        raise DimensionMismatchError("point dim")
    if not np.all(np.isfinite(p)):
        raise ValidationError("non-finite coordinate")
    y, g = p[:system.base_dim], p[system.base_dim:]
    ny = ref_frac(y + np.array([frac_combo([(n, a)])
                                for a in system.base_alpha]))
    ng = np.array([
        ref_frac(g[f] + frac_combo(ref_fiber_shift_terms(system, y, n, f)))
        for f in range(system.fiber_dim)])
    return np.concatenate([ny, ng])


def ref_fiber_shift_terms(system, y, n, f):
    # sum_b B[f][b] (n y_b + C(n,2) alpha_b) + n c_f, as frac_combo terms
    terms = []
    for b in range(system.base_dim):
        B = system.linear[f][b]
        if B:
            terms.append((B * n, float(y[b])))
            terms.append((B * binom2(n), system.base_alpha[b]))
    terms.append((n, system.const[f]))
    return terms


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
        lhs, rhs = ref_van_der_corput(seq, H)
        assert (rep.lhs.hex(), rep.rhs.hex(), rep.n_used) == \
            (lhs.hex(), rhs.hex(), N)


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
    for x in xs:
        with np.errstate(invalid="ignore"):
            want = np.float64(ref_frac(np.float64(x))).tobytes()
            got = np.float64(frac(np.float64(x))).tobytes()
        assert np.float64(frac(x)).tobytes() == want
        assert got == want
