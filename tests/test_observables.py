import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import one_correlations
from ergolab.errors import (DimensionMismatchError, FrequencyOverflowError,
                            ResourceCapError, ValidationError)
from ergolab.exact import term_tuples
from ergolab.observables import (_FLOAT_FREQ_LIMIT, CompositionRow,
                                 Observable, compose_with_power, conjugate,
                                 evaluate, format_observable, integral_haar,
                                 multiply, parse_observable, product_integral)
from ergolab.phases import CHUNK, e
from ergolab.rng import SplitMix64
from ergolab.systems import (Rotation, ToralAutomorphism, cat_map,
                             default_heisenberg, golden_rotation,
                             standard_skew, step)
from reference import ref_evaluate

coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                            allow_infinity=False)


@st.composite
def observables(draw, dim=1, max_terms=3, kmax=4):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        k = tuple(draw(st.integers(-kmax, kmax)) for _ in range(dim))
        terms[k] = draw(coeffs)
    return Observable.from_dict(dim, terms)


# ---------------------------------------------------------------------------
# eval / integral


def test_eval_constant():
    one = Observable.constant(1.0, 1)
    assert evaluate(one, np.array([0.77])) == 1.0 + 0.0j


def test_eval_character_quarter():
    f = Observable.character(1)
    assert abs(evaluate(f, np.array([0.25])) - 1j) < 1e-15


def test_eval_cosine_at_third():
    f = Observable.from_dict(1, {(1,): 1.0, (-1,): 1.0})
    got = evaluate(f, np.array([1.0 / 3.0]))
    assert abs(got - 2 * math.cos(2 * math.pi / 3)) < 1e-14


def test_integral_examples():
    f = Observable.from_dict(1, {(0,): 3.0, (2,): 1.0})
    assert integral_haar(f) == 3.0
    assert integral_haar(Observable.character(5)) == 0.0
    cos2 = multiply(Observable.from_dict(1, {(1,): 1.0, (-1,): 1.0}),
                    Observable.from_dict(1, {(1,): 1.0, (-1,): 1.0}))
    assert integral_haar(cos2) == 2.0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(Observable.character((1, 2)), np.array([0.5]))


# ---------------------------------------------------------------------------
# multiply / conjugate


def test_multiply_unit_and_cancellation():
    f = Observable.from_dict(1, {(1,): 2.0, (3,): 1.0j})
    assert multiply(f, Observable.constant(1.0, 1)) == f
    assert conjugate(Observable.character(4)) == Observable.character(-4)
    prod = multiply(Observable.character(1), Observable.character(-1))
    assert prod == Observable.constant(1.0, 1)


@given(observables(), observables())
def test_multiply_matches_pointwise(f, g):
    pts = SplitMix64(5).unit_block(8).reshape(8, 1)
    lhs = evaluate(multiply(f, g), pts)
    rhs = evaluate(f, pts) * evaluate(g, pts)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + f.sup_bound() * g.sup_bound())


@given(observables(max_terms=4))
def test_parseval_on_finite_sums(f):
    power = integral_haar(multiply(f, conjugate(f)))
    expected = math.fsum(abs(c) ** 2 for _, c in f.terms)
    assert abs(power - expected) <= 1e-13 * (1 + expected)
    assert abs(power.imag) <= 1e-13 * (1 + expected)


def test_multiply_term_cap():
    f = Observable.from_dict(1, {(k,): 1.0 for k in range(40)})
    with pytest.raises(DimensionMismatchError):
        product_integral(f, Observable.character((1, 0)))
    # 1,001 x 1,000 term pairs pass TERM_CAP = 10**6 by 1,000
    f = Observable.from_dict(1, {(k,): 1.0 for k in range(-500, 501)})
    g = Observable.from_dict(1, {(k,): 1.0 for k in range(1000)})
    for product in (multiply, product_integral):
        with pytest.raises(ResourceCapError, match="1001000 term pairs"):
            product(f, g)
    # at 1,001 x 999 pairs, under the cap, it goes through: k = 0..500 of
    # f meet -k in g
    assert product_integral(f, Observable.from_dict(
        1, {(k,): 1.0 for k in range(-998, 1)})) == 501


def test_term_tuples_cap():
    # TUPLE_CAP = 10**6: 32**4 = 1,048,576 tuples raise on the first draw,
    # 31**4 = 923,521 go through
    def four(n):
        return [Observable.from_dict(1, {(k,): 1.0 for k in range(n)})] * 4
    with pytest.raises(ResourceCapError, match="term-tuple expansion"):
        next(term_tuples(four(32)))
    coeff, ks = next(term_tuples(four(31)))
    assert coeff == 1.0 and len(ks) == 4


@given(observables(dim=2, max_terms=5, kmax=2),
       observables(dim=2, max_terms=5, kmax=2))
def test_product_integral_bits_match_the_product(f, g):
    want = integral_haar(multiply(f, g))
    got = product_integral(f, g)
    assert type(got) is complex
    assert (got.real.hex(), got.imag.hex()) == \
        (want.real.hex(), want.imag.hex())
    # an exactly cancelling pair: the product drops its zero constant term
    h = Observable.from_dict(2, {(1, 0): 1.0, (0, 1): -1.0})
    hc = Observable.from_dict(2, {(-1, 0): 1.0, (0, -1): 1.0})
    assert product_integral(h, hc).imag.hex() == \
        integral_haar(multiply(h, hc)).imag.hex() == (0.0).hex()


def _composed_integrals(f, system, rows):
    """product_integral of f and each composed conj(f), one row at a time."""
    return [product_integral(f, compose_with_power(conjugate(f), system, h,
                                                   row))
            for h, row in enumerate(rows, 1)]


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("system", [golden_rotation(), Rotation((0.3, 0.7)),
                                    default_heisenberg()],
                         ids=lambda s: f"{type(s).__name__}-{s.obs_dim}")
def test_phase_correlations_bits_match_product_integral(system):
    """All lags at once give product_integral's bits through the same rows,
    also where multipliers planted in the rows (0 and 5e-324) make composed
    terms exact zeros, which drop out of the composed observable."""
    rng = np.random.default_rng(5)
    dim, dropped = system.obs_dim, 0
    for _ in range(20):
        f = Observable.from_dict(dim, {
            tuple(rng.integers(-3, 4, dim).tolist()):
            complex(*rng.normal(size=2)) for _ in range(5)})
        rows = [CompositionRow(system, h) for h in range(1, 8)]
        for row in rows[::2]:
            for k, _ in f.terms[::2]:
                nk = tuple(-v for v in k)
                row[nk] = (nk, complex(*rng.choice([0.0, 5e-324, -5e-324],
                                                   size=2)))
        want = _composed_integrals(f, system, rows)
        assert _bits(one_correlations(f, system, rows)) == _bits(want)
        dropped += sum(f.term_count - compose_with_power(
            conjugate(f), system, h, row).term_count
            for h, row in enumerate(rows, 1))
    assert dropped > 0
    # a sum whose one term underflows to -0.0 is +0.0, as 0.0 + (-0.0)
    k = (1,) + (0,) * (dim - 1)
    nk = tuple(-v for v in k)
    f = Observable.character(k, 1e-170)
    rows = [CompositionRow(system, 1)]
    rows[0][nk] = (nk, complex(-1e-150, 0.0))
    got = one_correlations(f, system, rows)
    assert _bits(got) == _bits(_composed_integrals(f, system, rows))
    assert got[0].real.hex() == "0x0.0p+0"


def test_phase_correlations_checks_each_lag_in_order():
    g = golden_rotation()
    with pytest.raises(DimensionMismatchError,
                       match="observable dim 2 != system frequency dim 1"):
        one_correlations(Observable.character((1, 0)), g,
                         [CompositionRow(g, 1)])
    # 1,001 terms: two exact zeros at h = 1 leave 1,001 x 999 term pairs,
    # under TERM_CAP; h = 2 has all 1,001
    wide = Observable.from_dict(1, {(k,): 1.0 for k in range(-500, 501)})
    rows = [CompositionRow(g, h) for h in (1, 2)]
    for k in ((7,), (-9,)):
        rows[0][k] = (k, 0j)
    assert _bits(one_correlations(wide, g, rows[:1])) == \
        _bits(_composed_integrals(wide, g, rows[:1]))
    with pytest.raises(ResourceCapError, match="1002001 term pairs"):
        one_correlations(wide, g, rows)
    assert one_correlations(Observable.from_dict(1, {}), g, rows) == \
        _composed_integrals(Observable.from_dict(1, {}), g, rows) == [0j, 0j]


# ---------------------------------------------------------------------------
# composition


def test_compose_rotation_phase():
    g = golden_rotation()
    f = Observable.character(3)
    comp = compose_with_power(f, g, 5)
    assert comp.terms[0][0] == (3,)
    expected = e((5 * 3 * g.alpha[0]) % 1.0)
    assert abs(comp.terms[0][1] - expected) < 1e-12


def test_compose_skew_example():
    # T(x,y) = (x+a, y+x): e(px+qy) pulls back to e(pa) e((p+q)x + qy)
    s = standard_skew()
    f = Observable.character((2, 3))
    comp = compose_with_power(f, s, 1)
    assert comp.terms[0][0] == (5, 3)
    assert abs(comp.terms[0][1] - e((2 * s.base_alpha[0]) % 1)) < 1e-12


def test_compose_cat_map_frequency():
    f = Observable.character((1, 0))
    comp = compose_with_power(f, cat_map(), 1)
    assert comp.terms == (((2, 1), 1.0 + 0.0j),)


@pytest.mark.parametrize("system", [golden_rotation(), standard_skew(),
                                    default_heisenberg(), cat_map()],
                         ids=lambda s: type(s).__name__)
def test_compose_matches_orbit_eval(system):
    rng = SplitMix64(17)
    dim = system.obs_dim
    f = Observable.from_dict(dim, {
        tuple(int(rng.next_u64() % 5) - 2 for _ in range(dim)): 0.7 + 0.2j,
        tuple(int(rng.next_u64() % 5) - 2 for _ in range(dim)): -0.3j,
    })
    powers = [-1000, -37, -1, 0, 1, 13, 1000]
    if type(system).__name__ == "ToralAutomorphism":
        powers = [-30, -7, -1, 0, 1, 7, 30]   # frequency overflow beyond ~45
    for n in powers:
        for _ in range(3):
            p = system.haar_block(rng, 1)[0]
            lhs = evaluate(compose_with_power(f, system, n), p)
            rhs = evaluate(f, step(system, p, n))
            assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("system", [golden_rotation(), standard_skew(),
                                    default_heisenberg()],
                         ids=lambda s: type(s).__name__)
@given(n=st.integers(-40, 40), m=st.integers(-40, 40))
def test_compose_cocycle_identity(system, n, m):
    dim = system.obs_dim
    f = Observable.from_dict(dim, {(1,) + (0,) * (dim - 1): 1.0,
                                   (-2,) + (1,) * (dim - 1): 0.5j})
    two_step = compose_with_power(compose_with_power(f, system, n), system, m)
    direct = compose_with_power(f, system, n + m)
    assert {k for k, _ in two_step.terms} == {k for k, _ in direct.terms}
    for (k1, c1), (k2, c2) in zip(two_step.terms, direct.terms):
        assert abs(c1 - c2) <= 1e-12


@given(observables(max_terms=2), observables(max_terms=2),
       st.integers(-20, 20))
def test_compose_is_algebra_homomorphism(f, g, n):
    system = golden_rotation()
    lhs = compose_with_power(multiply(f, g), system, n)
    rhs = multiply(compose_with_power(f, system, n),
                   compose_with_power(g, system, n))
    assert {k for k, _ in lhs.terms} == {k for k, _ in rhs.terms}
    for (_, c1), (_, c2) in zip(lhs.terms, rhs.terms):
        assert abs(c1 - c2) <= 1e-10 * (1 + f.sup_bound() * g.sup_bound())
    conj_then = compose_with_power(conjugate(f), system, n)
    then_conj = conjugate(compose_with_power(f, system, n))
    for (_, c1), (_, c2) in zip(conj_then.terms, then_conj.terms):
        assert abs(c1 - c2) <= 1e-12


def test_automorphism_overflow_names_power():
    f = Observable.character((1, 0))
    with pytest.raises(FrequencyOverflowError) as info:
        compose_with_power(f, cat_map(), 200)
    assert info.value.power == 200
    assert "T^200" in str(info.value)


def test_automorphism_overflow_far_past_int_str_limit():
    # the frequency has about 1.4e5 bits (over 4e4 decimal digits): the
    # message names the power, not the frequency's digits
    with pytest.raises(FrequencyOverflowError) as info:
        compose_with_power(Observable.character((1, 0)), cat_map(), 10 ** 5)
    assert info.value.power == 10 ** 5
    assert "T^100000" in str(info.value) and len(str(info.value)) < 200


def test_automorphism_overflow_decided_without_the_power():
    # A^n has ~1.4e9-bit entries at n = 10**9 + 7; the residue mod 2**128
    # already proves the overflow
    n = 10 ** 9 + 7
    t0 = time.perf_counter()
    with pytest.raises(FrequencyOverflowError) as info:
        cat_map().compose_term((1, 0), n)
    assert time.perf_counter() - t0 < 1.0
    assert info.value.power == n


def test_automorphism_compose_exact_where_the_residue_fits():
    # the fixed third coordinate keeps k = (0, 0, 1) while A^1000 has
    # ~1,400-bit entries: the residue fits, and the exact power decides
    system = ToralAutomorphism(((2, 1, 0), (1, 1, 0), (0, 0, 1)))
    assert system.compose_term((0, 0, 1), 10 ** 3) == ((0, 0, 1), 1.0 + 0.0j)
    k45, _ = cat_map().compose_term((1, 0), 45)
    assert system.compose_term((1, 0, 1), 45) == (k45 + (1,), 1.0 + 0.0j)
    with pytest.raises(FrequencyOverflowError):
        system.compose_term((1, 0, 1), 46)


def test_monte_carlo_integral_consistency():
    f = Observable.from_dict(1, {(0,): 0.25, (1,): 1.0, (-3,): 0.5j})
    pts = golden_rotation().haar_block(SplitMix64(31), 100_000)
    emp = np.mean(evaluate(f, pts))
    assert abs(emp - integral_haar(f)) <= 3 * f.sup_bound() / math.sqrt(100_000)


# ---------------------------------------------------------------------------
# literal syntax


def test_parse_and_format_roundtrip():
    text = "1,0:1 ; 0.5,-0.25:-3"
    f = parse_observable(text, 1)
    assert f.coefficient(1) == 1.0
    assert f.coefficient(-3) == 0.5 - 0.25j
    again = parse_observable(format_observable(f), 1)
    assert again == f


def test_parse_real_coefficient_shorthand():
    f = parse_observable("2:1,0", 2)
    assert f.coefficient((1, 0)) == 2.0


def test_parse_rejects_bad_terms():
    with pytest.raises(ValidationError):
        parse_observable("1,0:1,2", 1)
    with pytest.raises(ValidationError):
        parse_observable("nope", 1)
    with pytest.raises(ValidationError):
        parse_observable("", 1)


# ---------------------------------------------------------------------------
# evaluate against its plain zeros-buffer formulation, bit for bit


# with a -0.0 part, a coefficient can leave a -0.0 in a product at phase 0,
# which the zeros buffer turned into +0.0
EVAL_COEFFS = [1.0, -1.0, 1j, -1j, complex(0.5, -0.0), complex(-1.0, -0.0),
               complex(-0.0, 1.0)]
EVAL_SHAPES = [(), (1,), (CHUNK - 1,), (CHUNK,), (163, 100)]


def _eval_observables(dim):
    ks = [(-3,), (2,), (0,)] if dim == 1 else \
        [(-3, 2, -1)[:dim], (1,) * dim, (0, -2, 5)[:dim]]
    big = ((1 << 16) + 3,) + (-1,) * (dim - 1)
    out = [Observable.from_dict(dim, {ks[0]: c}) for c in EVAL_COEFFS]
    out.append(Observable.from_dict(dim, dict(zip(ks, EVAL_COEFFS))))
    out.append(Observable.from_dict(dim, {ks[0]: 1.0, big: -1j}))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("shape", EVAL_SHAPES)
def test_evaluate_bits_match_zeros_buffer_matmul(dim, shape):
    rng = np.random.default_rng(dim * 1000 + len(shape))
    pts = rng.random(shape + (dim + 1,))     # a trailing coordinate ignored
    flat = pts.reshape(-1, dim + 1)
    special = [0.0, 5e-324, 1.0 - 2.0 ** -53]
    for i in range(min(len(flat), 3 * len(special))):
        flat[i, :] = special[i % 3]
        flat[i, i % dim] = special[(i // 3) % 3]
    for f in _eval_observables(dim):
        got, want = evaluate(f, pts), ref_evaluate(f, pts)
        if not shape:
            assert isinstance(got, complex)
            got, want = np.array([got]), np.array([want])
        assert got.shape == want.shape
        assert got.real.tobytes() == want.real.tobytes()
        assert got.imag.tobytes() == want.imag.tobytes()


# ---------------------------------------------------------------------------
# evaluate: a value's bits depend only on its point


SPECIAL_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1 - 2.0 ** -53, 1e300, -1e300,
                  math.inf, -math.inf, math.nan]
SPECIAL_COEFFS = [1.0, complex(1.0, -0.0), complex(-0.0, 0.75),
                  complex(-0.5, -0.0), complex(-0.0, -1.0)]


@st.composite
def evaluate_cases(draw, size):
    """An observable of dim 1-3 with |k| <= 9 (and, on small batches, maybe
    one term past _FLOAT_FREQ_LIMIT), and `size` points with special values
    planted in coordinates or whole points (finite ones only under an
    exactly reduced term or a zero frequency, whose exp the reference
    takes) and maybe one ignored trailing coordinate."""
    dim = draw(st.integers(1, 3))
    coeff = st.one_of(st.sampled_from(SPECIAL_COEFFS), coeffs)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-9, 9)] * dim),
                                 coeff, min_size=1, max_size=4))
    huge = size <= 100 and draw(st.booleans())
    if huge:
        big = _FLOAT_FREQ_LIMIT + draw(st.integers(1, 9))
        terms[(big,) + (-1,) * (dim - 1)] = draw(coeff)
    f = Observable.from_dict(dim, terms)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, -1e3, 1e-12]))
    pts = rng.random((size, dim + draw(st.integers(0, 1)))) * scale
    finite = huge or (0,) * dim in terms
    specials = [x for x in SPECIAL_POINTS if math.isfinite(x) or not finite]
    planted = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                      st.integers(-1, dim - 1),
                                      st.sampled_from(specials)),
                            max_size=12))
    for i, j, x in planted:         # j = -1: the whole point
        pts[i, j if j >= 0 else slice(None)] = x
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=4)))
    return f, pts, cuts, sorted({i for i, _, _ in planted} | {0, size - 1})


@pytest.mark.parametrize("size", [1, 2, 3, 100, CHUNK - 1, CHUNK, CHUNK + 1])
@given(data=st.data())
def test_evaluate_bits_depend_only_on_the_point(size, data):
    # against the plain reference, under any split, in strided, reversed,
    # Fortran and stacked layouts, and a point against its batch of one
    f, pts, cuts, probes = data.draw(evaluate_cases(size))
    with np.errstate(invalid="ignore", over="ignore"):
        want = ref_evaluate(f, pts).tobytes()
        assert evaluate(f, pts).tobytes() == want
        parts = [evaluate(f, pts[a:b])
                 for a, b in zip([0] + cuts, cuts + [len(pts)])]
        assert np.concatenate(parts).tobytes() == want
        wide = np.full((2 * len(pts), pts.shape[1] + 1), np.nan)
        wide[::2, :-1] = pts
        for layout, back in ((wide[::2, :-1], slice(None)),
                             (pts[::-1], slice(None, None, -1)),
                             (np.asfortranarray(pts), slice(None))):
            assert evaluate(f, layout)[back].tobytes() == want
        if len(pts) % 2 == 0:
            stacked = evaluate(f, pts.reshape(2, len(pts) // 2, -1))
            assert stacked.tobytes() == want
        for i in probes:
            one = evaluate(f, pts[i])
            assert type(one) is complex
            assert np.complex128(one).tobytes() == want[16 * i:16 * i + 16]
            assert evaluate(f, pts[i:i + 1]).tobytes() == \
                want[16 * i:16 * i + 16]
