import math
import re
import warnings

import numpy as np
import pytest

from conftest import one_correlations
from ergolab.errors import (FrequencyOverflowError, ResourceCapError,
                            ValidationError)
from ergolab import observables
from ergolab.observables import (CompositionRow, Observable,
                                 compose_with_power, conjugate, evaluate,
                                 integral_haar, multiply, phase_products)
from ergolab.phases import CHUNK, e
from ergolab.rng import SplitMix64
from ergolab.seminorms import (_mc_orbit_length, _raised_exact, _raised_mc,
                               hk_seminorm,
                               multilinear_norm_bound_check,
                               seminorm_ladder, van_der_corput_check,
                               vdc_family)
from ergolab.systems import (GOLDEN, SQRT2_M1, Rotation, ToralAutomorphism,
                             cat_map, default_heisenberg, golden_rotation,
                             standard_skew)
from reference import ref_bound_lhs, ref_raised_exact, ref_raised_mc

G = golden_rotation()
CM = cat_map()


# ---------------------------------------------------------------------------
# Base case and exact identities


@pytest.mark.parametrize("system", [G, CM, standard_skew(),
                                    default_heisenberg()],
                         ids=lambda s: type(s).__name__)
def test_order_one_is_integral_modulus(system):
    dim = system.obs_dim
    f = Observable.from_dict(dim, {(0,) * dim: 0.5 - 0.25j,
                                   (1,) + (0,) * (dim - 1): 1.0})
    est = hk_seminorm(system, f, 1)
    assert est.value == abs(integral_haar(f))
    assert est.exact


def test_rotation_character_order_one_vanishes():
    assert hk_seminorm(G, Observable.character(3), 1).value == 0.0


def test_rotation_character_order_two_is_one():
    # f T^h conj(f) is the constant e(-k h a): every inner seminorm is 1
    for k in (1, -2, 7):
        est = hk_seminorm(G, Observable.character(k), 2, outer_h=30)
        assert abs(est.value - 1.0) <= 1e-12
        assert est.exact


def test_eigenfunction_rigidity_orders_two_to_four():
    f = Observable.character(1, coeff=e(0.3))   # modulus-one coefficient
    for order in (2, 3, 4):
        est = hk_seminorm(G, f, order, outer_h=10)
        assert abs(est.value - 1.0) <= 1e-12


def test_cat_map_zero_mean_order_two_vanishes_exactly():
    for k in ((1, 0), (0, 1), (3, -2)):
        est = hk_seminorm(CM, Observable.character(k), 2, outer_h=30)
        assert est.value == 0.0
        assert est.exact


def test_heisenberg_base_character_order_two():
    est = hk_seminorm(default_heisenberg(), Observable.character((1, 0)), 2,
                      outer_h=20)
    assert abs(est.value - 1.0) <= 1e-12


def test_exact_path_independent_of_h():
    for h1, h2 in ((100, 1000), (10, 400)):
        v1 = hk_seminorm(G, Observable.character(1), 2, outer_h=h1).value
        v2 = hk_seminorm(G, Observable.character(1), 2, outer_h=h2).value
        assert v1 == v2
    v1 = hk_seminorm(CM, Observable.character((1, 0)), 2, outer_h=10).value
    v2 = hk_seminorm(CM, Observable.character((1, 0)), 2, outer_h=30).value
    assert v1 == v2 == 0.0


def test_overflow_propagates_from_composition():
    with pytest.raises(FrequencyOverflowError):
        hk_seminorm(CM, Observable.character((1, 0)), 2, outer_h=500,
                    method="exact")


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except ResourceCapError as exc:
        return type(exc).__name__, str(exc)


# e(k h / 2) is -1 + 1.2e-16i at odd k h: the rotation on which TINY_PAIR's
# last level cancels
HALF = Rotation((0.5,))
TINY = 2.0 ** -512        # TINY**2 is subnormal and 1.2e-16 TINY**2 is 0


def _seminorm_observables(dim):
    rng = np.random.default_rng(17)
    zero = (0,) * dim
    one, two = (1,) + zero[1:], (2,) + zero[1:]
    out = [Observable.character(one),
           Observable.from_dict(dim, {zero: 0.5, one: 0.5}),
           # a real-valued f, whose conjugate has the same frequencies
           Observable.from_dict(dim, {one: 0.5 - 0.25j, (-1,) + zero[1:]:
                                      0.5 + 0.25j}),
           # 5e-324 times 0.25 underflows: those terms of f (conj(f) o T^h)
           # are dropped from the product
           Observable.from_dict(dim, {one: 0.25, two: 5e-324}),
           # on HALF, the last-level sum at odd h is TINY**2 - TINY**2 = 0
           Observable.from_dict(dim, {zero: TINY, one: TINY})]
    for n in (3, 4):
        coeffs = {}
        while len(coeffs) < n:
            k = tuple(int(v) for v in rng.integers(-2, 3, dim))
            coeffs[k] = complex(*rng.normal(size=2))
        out.append(Observable.from_dict(dim, coeffs))
    return out


@pytest.mark.parametrize("system", [
    G, standard_skew(), default_heisenberg(), CM,
    pytest.param(Rotation((GOLDEN, SQRT2_M1)), id="Rotation2d"),
    pytest.param(HALF, id="RotationHalf")], ids=lambda s: type(s).__name__)
def test_raised_exact_bits_match_full_product_recursion(system):
    # the last level reads only the Haar coefficient of each product (on a
    # phase basis, for every h at once); its values, overflows and caps are
    # those of the full product
    for order, H in ((2, 30), (3, 6), (4, 2)):
        for f in _seminorm_observables(system.obs_dim):
            assert _outcome(_raised_exact, system, f, order, H) == \
                _outcome(ref_raised_exact, system, f, order, H)
    tiny = _seminorm_observables(system.obs_dim)[3]
    product = multiply(tiny, compose_with_power(conjugate(tiny), system, 1))
    assert product.term_count < 3
    if system is HALF:
        pair = _seminorm_observables(1)[4]
        sums = one_correlations(pair, HALF, [CompositionRow(HALF, h)
                                             for h in (1, 2)])
        assert sums[0] == 0 and sums[1] != 0
    # a product past TERM_CAP (1,001 x 1,001 term pairs)
    wide = Observable.from_dict(system.obs_dim, {
        (k,) + (0,) * (system.obs_dim - 1): 1.0 for k in range(-500, 501)})
    got = _outcome(_raised_exact, system, wide, 2, 3)
    assert got[0] == "ResourceCapError"
    assert got == _outcome(ref_raised_exact, system, wide, 2, 3)


def test_cat_map_h60_still_falls_back_to_monte_carlo():
    f = Observable.character((1, 0), coeff=0.75)
    assert _outcome(_raised_exact, CM, f, 2, 60) == \
        _outcome(ref_raised_exact, CM, f, 2, 60)
    with pytest.raises(FrequencyOverflowError):
        hk_seminorm(CM, f, 2, outer_h=60, method="exact")
    est = hk_seminorm(CM, f, 2, outer_h=60, inner_n=2000, rng=SplitMix64(9))
    assert not est.exact and est.inner_n == 2000 and est.outer_h == 60


def _level_cases(system, rng, count):
    """(f, rows, planted) triples: `count` observables of 1-6 terms with coefficients
    of 1 and -1, underflowing ones and Gaussian ones, at a random H <= 25,
    the last of them again at H = 200, then three at H = 25: terms of 1, 1,
    -1 at 0, 1, 2 (on HALF the product's coefficient at 1 is exactly 0 at
    even h), and two whose rows have zero multipliers planted at h = 1, 2,
    which drop composed terms there.  Terms of 0.25, 5e-324, 5e-324 at 0,
    1, 2 with 1 and 2 dropped, whose products with the dropped terms
    underflow, so that under some caps a product's pair check (at h = 3)
    fails first; terms of inf, 0.5 - 0.25i, 1 at 0, 1, 3 with 3 dropped,
    whose inf must not meet the dropped term, and whose first row fails a
    late lag's check under caps where a later row fails an early lag's.
    planted[h - 1] holds the entries planted in rows[h - 1]."""
    dim = system.obs_dim
    zero = (0,) * dim
    pool = [1.0, -1.0, 1j, 5e-324, TINY, None, None, None]
    out = []
    for _ in range(count):
        coeffs = {}
        for _ in range(rng.integers(1, 7)):
            c = pool[rng.integers(len(pool))]
            coeffs[tuple(rng.integers(-3, 4, dim).tolist())] = \
                complex(*rng.normal(size=2)) if c is None else c
        out.append((Observable.from_dict(dim, coeffs), [
            CompositionRow(system, h)
            for h in range(1, rng.integers(1, 26) + 1)], None))
    # at H = 200 phase_correlations takes a few coefficient rows per slab
    out.append((out[-1][0], [CompositionRow(system, h)
                             for h in range(1, 201)], None))
    for ks, cs, dropped in (((0, 1, 2), (1.0, 1.0, -1.0), ()),
                            ((0, 1, 2), (0.25, 5e-324, 5e-324), (1, 2)),
                            ((0, 1, 3), (math.inf, 0.5 - 0.25j, 1.0), (3,))):
        planted = [{(-k,) + zero[1:]: ((-k,) + zero[1:], 0j)
                    for k in dropped} if h <= 2 else {} for h in range(1, 26)]
        rows = [CompositionRow(system, h) for h in range(1, 26)]
        for row, p in zip(rows, planted):
            row.update(p)
        out.append((Observable.from_dict(
            dim, {(k,) + zero[1:]: c for k, c in zip(ks, cs)}), rows, planted))
    return out


def _terms_bits(terms):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in terms]


@pytest.mark.parametrize("system", [
    G, pytest.param(Rotation((GOLDEN, SQRT2_M1)), id="Rotation2d"),
    pytest.param(HALF, id="RotationHalf"), default_heisenberg()],
    ids=lambda s: type(s).__name__)
def test_stacked_levels_match_per_h_products(monkeypatch, system):
    """The last two exact levels, run for every h at once, give the per-h
    products' bits, pair counts and errors: phase_products' rows are
    multiply's products, orders 3 and 4 are ref_raised_exact's values, and
    under a low TERM_CAP `exact` raises the reference's error at the same
    h while `auto` falls back to Monte Carlo."""
    rng = np.random.default_rng(34)
    cases = _level_cases(system, rng, 30)
    cancelled = 0
    for f, rows, planted in cases:
        keys, coeffs, pairs = phase_products(f, system, rows)
        for h, (row, got) in enumerate(zip(rows, coeffs.tolist()), 1):
            g = compose_with_power(conjugate(f), system, h, row)
            assert pairs[h - 1] == f.term_count * g.term_count
            want = multiply(f, g)
            assert _terms_bits(want.terms) == _terms_bits(
                (k, c) for k, c in zip(keys, got) if c != 0)
            cancelled += want.term_count < len(
                {tuple(np.subtract(a, b)) for a, _ in f.terms
                 for b, _ in g.terms})
        order = int(rng.integers(3, 5))
        if order == 4:
            rows = rows[:8]
        assert _outcome(_raised_exact, system, f, order, len(rows), rows) \
            == _outcome(ref_raised_exact, system, f, order, len(rows), planted)
    assert cancelled
    tiny_f, tiny_rows, _ = cases[-2]
    pairs = phase_products(tiny_f, system, tiny_rows)[2]
    assert pairs[0] < pairs.max()
    raised = set()
    for cap in (1, 2, 3, 4, 6, 8, 15, 24, 80, 400):
        monkeypatch.setattr(observables, "TERM_CAP", cap)
        for f, rows, planted in cases[:6] + cases[-3:]:
            want = _outcome(ref_raised_exact, system, f, 3, len(rows), planted)
            assert _outcome(_raised_exact, system, f, 3, len(rows), rows) \
                == want
            if isinstance(want, tuple):
                raised.add(want[1])
        # hk_seminorm composes its own rows: the cases without planted ones
        for f, rows, _ in cases[:6] + cases[-3:-2]:
            got = _outcome(lambda: hk_seminorm(system, f, 3, len(rows),
                                               method="exact").value)
            assert got == _outcome(lambda: ref_raised_exact(
                system, f, 3, len(rows)) ** (1.0 / 8))
            if isinstance(got, tuple):
                est = hk_seminorm(system, f, 3, len(rows), inner_n=50,
                                  rng=SplitMix64(1))
                assert not est.exact and est.inner_n == 50
    assert len(raised) > 3


@pytest.mark.parametrize("system", [G, default_heisenberg()],
                         ids=lambda s: type(s).__name__)
def test_inf_coefficient_warns_nothing(system):
    """The stacked levels' products and sums overflow and make NaN silently,
    as the per-h Python path does: with warnings as errors, orders 3 and 4
    of an observable with an inf coefficient give the reference's bits."""
    zero = (0,) * system.obs_dim
    f = Observable.from_dict(system.obs_dim, {
        zero: math.inf, (1,) + zero[1:]: 0.5 - 0.25j, (3,) + zero[1:]: 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order, H in ((3, 25), (4, 4)):
            got = hk_seminorm(system, f, order, H, method="exact").value
            assert got.hex() == (ref_raised_exact(system, f, order, H)
                                 ** (1.0 / (1 << order))).hex()


def test_validation():
    with pytest.raises(ValidationError):
        hk_seminorm(G, Observable.character(1), 0)
    with pytest.raises(ValidationError):
        hk_seminorm(G, Observable.character(1), 2, method="monte_carlo")


# ---------------------------------------------------------------------------
# Monte Carlo path


def test_mc_matches_exact_on_rotation():
    f = Observable.from_dict(1, {(0,): 0.5, (1,): 0.5})
    exact_est = hk_seminorm(G, f, 2, outer_h=64, method="exact")
    mc_est = hk_seminorm(G, f, 2, outer_h=64, inner_n=4000,
                         method="monte_carlo", rng=SplitMix64(2))
    assert not mc_est.exact and mc_est.inner_n == 4000
    assert abs(exact_est.value - mc_est.value) <= 3 / math.sqrt(64)


def test_mc_h_consistency_noise_scale():
    f = Observable.from_dict(1, {(0,): 0.5, (1,): 0.5})
    v100 = hk_seminorm(G, f, 2, outer_h=100, inner_n=2000,
                       method="monte_carlo", rng=SplitMix64(8)).value
    v1000 = hk_seminorm(G, f, 2, outer_h=1000, inner_n=2000,
                        method="monte_carlo", rng=SplitMix64(8)).value
    assert abs(v100 - v1000) <= 3 / math.sqrt(100)


def _literal_product(vals, factor):
    return vals * factor


@pytest.mark.parametrize("system", [CM, G, standard_skew()],
                         ids=lambda s: type(s).__name__)
def test_mc_lags_match_per_h_means(system):
    """The order-2 Monte Carlo level, run for every h at once in slabs of
    (CHUNK - 1) // N lags, gives the per-h means' bits at orders 2 and 3,
    and below CHUNK those of `vals * factor` as well (from CHUNK values
    numpy may reuse the conjugate's temporary and swap the operands)."""
    dim = system.obs_dim
    f = Observable.from_dict(dim, {(1,) + (0,) * (dim - 1): 0.75 - 0.5j,
                                   (-2,) + (1,) * (dim - 1): 0.25,
                                   (0,) * dim: 0.125j})
    rng = np.random.default_rng(7)
    for N in (1, 2, 7, 2000, CHUNK - 1, CHUNK, 20000):
        for order in (2, 3):
            top = 70 if order == 2 or N <= 7 else 12 if N <= 2000 else 4
            for H in (1, int(rng.integers(2, top)), top):
                x0 = system.haar_block(SplitMix64(N + H), 1)
                orbit = evaluate(f, system.orbit_block(
                    x0, 1, 0, _mc_orbit_length(order, H, N), "obs")[0])
                got = _raised_mc([(0, False)], orbit, order, H, N)
                assert got.hex() == ref_raised_mc(
                    [(0, False)], orbit, order, H, N).hex(), (N, order, H)
                if N < CHUNK:
                    assert got.hex() == ref_raised_mc(
                        [(0, False)], orbit, order, H, N,
                        _literal_product).hex(), (N, order, H)


def test_ladder_reports_monotonicity_slack():
    f = Observable.from_dict(1, {(0,): 0.3, (1,): 0.7})
    ladder = seminorm_ladder(G, f, 3, outer_h=40)
    values = [est.value for est, _ in ladder]
    for (est, slack), nxt in zip(ladder[:-1], values[1:]):
        assert est.value <= nxt + slack + 1e-12


# ---------------------------------------------------------------------------
# Van der Corput


def test_vdc_constant_is_equality_case():
    rep = van_der_corput_check(np.ones(5000, dtype=complex), 50)
    assert abs(rep.lhs - 1.0) <= 1e-12
    assert abs(rep.rhs - 1.0) <= 1e-12
    assert abs(rep.margin) <= 1e-12


def test_vdc_vector_valued_constant():
    v = np.tile(np.array([0.6, 0.8j]), (3000, 1))
    rep = van_der_corput_check(v, 30)
    assert abs(rep.lhs - 1.0) <= 1e-12 and abs(rep.margin) <= 1e-12


def test_vdc_linear_phase():
    rep = van_der_corput_check(vdc_family("linear", 100_000, 100), 100)
    assert rep.lhs <= 1e-8
    assert abs(rep.rhs - 1.0) <= 1e-12
    assert rep.margin >= 0.999


def test_vdc_quadratic_phase():
    rep = van_der_corput_check(vdc_family("quadratic", 100_000, 100), 100)
    assert rep.lhs <= 1e-2 and rep.rhs <= 1e-2
    assert rep.margin >= -1e-3


def test_vdc_rejects_h_out_of_range():
    with pytest.raises(ValidationError):
        van_der_corput_check(np.ones(100), 100)
    with pytest.raises(ValidationError):
        van_der_corput_check(np.ones(100), 0)


def test_vdc_families_match_exact_residues():
    # e(n alpha) and e(n^2 alpha) at sampled n < 2**22 against e of the
    # exact residue: the linear family rounds near t < CHUNK (frac(base + t
    # step), 1.8e-12 in phase), the quadratic one once near [0, 1)
    from fractions import Fraction
    length = 1 << 22
    n = np.random.default_rng(3).integers(0, length, 500).tolist() + [
        0, 1, CHUNK - 1, CHUNK, length - 1]
    for name, power, budget in (("linear", 1, 2e-11), ("quadratic", 2, 1e-14)):
        got = vdc_family(name, length, 0)[n]
        expect = e(np.array([float(Fraction(k ** power) * Fraction(GOLDEN)
                                   % 1) for k in n]))
        assert np.abs(got - expect).max() <= budget, name


# ---------------------------------------------------------------------------
# The multilinear L2 bound


def test_bound_check_constants_saturate():
    fs = [Observable.constant(1.0, 1)] * 2
    bc = multilinear_norm_bound_check(G, fs, 50, 100, SplitMix64(5),
                                      outer_h=10)
    assert abs(bc.lhs - 1.0) <= 1e-12
    assert bc.rhs == 1.0
    assert bc.seminorms == (1.0, 1.0)


def test_bound_check_d1_is_ergodic_theorem_base():
    f = Observable.character(1)
    bc = multilinear_norm_bound_check(G, [f], 200, 5000, SplitMix64(6))
    # rhs = |integral| = 0; lhs is the L2 mean of small geometric sums
    assert bc.rhs == 0.0
    assert bc.lhs <= 2 / (5000 * abs(1 - e(GOLDEN))) + 1e-12


def test_bound_check_cat_map_decay():
    fs = [Observable.character((1, 0)), Observable.character((0, 1))]
    bc = multilinear_norm_bound_check(CM, fs, 300, 3000, SplitMix64(7))
    assert bc.rhs == 0.0
    # E|A_N|^2 = 1/N for unit characters; allow generous sampling slack
    assert bc.lhs <= 3 / math.sqrt(3000)


def test_bound_check_rotation_characters_trivial_bound():
    fs = [Observable.character(1), Observable.character(1)]
    bc = multilinear_norm_bound_check(G, fs, 50, 500, SplitMix64(9),
                                      outer_h=20)
    assert bc.rhs == 1.0      # order-2 seminorm of a character is 1
    assert bc.lhs <= bc.rhs + 0.05


def test_bound_check_streams_exact_orbits(monkeypatch):
    fs = [Observable.character((1, 0)), Observable.from_dict(
        2, {(0, 1): 1.0, (2, -1): 0.5j})]
    ref = ref_bound_lhs(CM, fs, 20, 300, SplitMix64(11))

    def no_step(self, p, n=1):
        raise AssertionError("the bound check stepped a float pseudo-orbit")
    monkeypatch.setattr(ToralAutomorphism, "step", no_step)
    bc = multilinear_norm_bound_check(CM, fs, 20, 300, SplitMix64(11))
    assert abs(bc.lhs - ref) <= 1e-14 * ref
