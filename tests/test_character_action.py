"""The character action and the pattern phase behind every closed form.

Each polynomial kind states once how T moves a character
(`character_action`); `compose_term`, the closed forms in `exact` and the
factorized grid path read it.  `compose_with_power` is pinned against the
exact composition of reference.py, and the closed forms and factorized
grids on a phase basis against `ref_pattern_average`, the sum over term
tuples with closed or streamed (`ref_geometric_mean`) geometric means.  On
skew products, where the closed forms are new, they are checked against
the orbit streams and the direct grid walk, which share no arithmetic with
the pattern phase.
"""

import functools

import numpy as np
import pytest

from ergolab import exact
from ergolab.averaging import (GRID_CAP, cube_average, cube_eps_index,
                               multilinear_average_linear,
                               multilinear_average_square,
                               square_trajectory)
from ergolab.errors import ResourceCapError, ValidationError
from ergolab.observables import Observable, compose_with_power
from ergolab.phases import PhaseForm, e
from ergolab.rng import SplitMix64
from ergolab.systems import (GOLDEN, SQRT2_M1, SQRT3_M1, Rotation,
                             SkewProduct, cat_map, default_heisenberg,
                             golden_rotation, standard_skew)
from reference import (ref_compose_with_power, ref_geometric_mean,
                       ref_pattern_average)

ROT3 = Rotation((GOLDEN, SQRT2_M1, SQRT3_M1))
# fiber 1 is the golden skew; fiber 2 rides on the base rotation by 1/2 with
# slope 2, so its C(t,2) drift is an integer and every fiber-2 tuple is linear
SKEW22 = SkewProduct((GOLDEN, 0.5), ((1, 0), (0, 2)), (SQRT2_M1, SQRT3_M1 / 2))
POWERS = (0, 1, -1, 7, -13, 10 ** 9 + 7, -10 ** 15)


def _hex(v: complex) -> tuple[str, str]:
    return complex(v).real.hex(), complex(v).imag.hex()


def _observables(dim, count, seed, box=2, nterms=2):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(nterms):
            k = tuple(int(rng.next_u64() % (2 * box + 1)) - box
                      for _ in range(dim))
            terms[k] = complex(rng.unit_block(1)[0] - 0.5,
                               rng.unit_block(1)[0] - 0.5)
        out.append(Observable.from_dict(dim, terms))
    return out


# ---------------------------------------------------------------------------
# compose_with_power against the exact composition


@pytest.mark.parametrize("system", [golden_rotation(), ROT3, default_heisenberg(),
                                    standard_skew(), SKEW22],
                         ids=["rot1", "rot3", "heisenberg", "skew", "skew22"])
def test_compose_with_power_bits_match_frozen_bodies(system):
    for f in _observables(system.obs_dim, 4, 41, box=3, nterms=3):
        for n in POWERS:
            got = compose_with_power(f, system, n)
            want = ref_compose_with_power(f, system, n)
            assert [(k, _hex(c)) for k, c in got.terms] == \
                [(k, _hex(c)) for k, c in want.terms]


# ---------------------------------------------------------------------------
# Closed forms and factorized grids against the per-tuple sum


def _closed(system, N):
    """rate -> geometric_mean_closed at N, on the system's phase basis."""
    return lambda r: exact.geometric_mean_closed(
        PhaseForm(r, system.phase_basis()), N)


def _square(d):
    return [(1, j) for j in range(d)]


PINNED = [golden_rotation(), ROT3, Rotation((0.5,)),
          Rotation((0.5, 0.49999999999999994)), default_heisenberg()]
PINNED_IDS = ["rot1", "rot3", "rot_half", "rot_near_half", "heisenberg"]


@pytest.mark.parametrize("system", PINNED, ids=PINNED_IDS)
def test_closed_forms_bits_match_frozen_loops(system):
    dim = system.obs_dim
    x = system.haar_block(SplitMix64(29), 1)[0]
    ones = (1,) * dim
    singles = [Observable.character(ones, 0.5 - 0.25j),
               Observable.constant(-0.75j, dim)] + _observables(dim, 2, 51)
    for N in (1, 7, 1000, 10 ** 6, 10 ** 12 + 3):
        mean = _closed(system, N)
        for f in singles:
            assert _hex(exact.birkhoff_closed(system, f, x, N)) == \
                _hex(ref_pattern_average(system, [f], [(1,)], x, mean))
        for d in (1, 2, 3, 4):
            fs = _observables(dim, d, 60 + d)
            if d == 2:
                fs = [Observable.character(ones), Observable.character(ones)]
            linear = [(j,) for j in range(1, d + 1)]
            assert _hex(exact.linear_closed(system, fs, x, N)) == \
                _hex(ref_pattern_average(system, fs, linear, x, mean))
            assert _hex(exact.square_closed(system, fs, x, N)) == \
                _hex(ref_pattern_average(system, fs, _square(d), x, mean))
        for k in (1, 2, 3):
            eps = cube_eps_index(k)
            fs = _observables(dim, len(eps), 70 + k)
            assert _hex(exact.cube_closed(system, dict(zip(eps, fs)), x, N)) \
                == _hex(ref_pattern_average(system, fs, eps, x, mean))


@pytest.mark.parametrize("system", PINNED, ids=PINNED_IDS)
def test_factorized_grids_bits_match_frozen_loop(system):
    dim = system.obs_dim
    x = system.haar_block(SplitMix64(31), 1)[0]
    checkpoints = (1, 7, 300)
    streamed = functools.cache(lambda r, cps: ref_geometric_mean(
        r, system.phase_basis(), cps))

    def want(fs, coeffs, cps, cp):
        return _hex(ref_pattern_average(system, fs, coeffs, x,
                                        lambda r: streamed(r, cps)[cp]))
    for d in (1, 2, 3):
        fs = _observables(dim, d, 80 + d, nterms=3)
        got = square_trajectory(system, fs, x, checkpoints, mode="factorized")
        assert [(n, _hex(v)) for n, v in got.checkpoints] == \
            [(cp, want(fs, _square(d), checkpoints, cp)) for cp in checkpoints]
    for k in (1, 2, 3):
        eps = cube_eps_index(k)
        fs = _observables(dim, len(eps), 90 + k)
        for N in checkpoints:
            got = cube_average(system, dict(zip(eps, fs)), x, N, mode="factorized")
            assert _hex(got) == want(fs, eps, (N,), N)


# ---------------------------------------------------------------------------
# The skew-product oracle: closed forms against streams and the grid walk
#
# On the pattern c_j = j, write P_i = sum_j j^i p_j and Q_i = sum_j j^i q_j
# for characters k_j = (p_j, q_j).  Class (i): Q_1 = Q_2 = P_1 = 0, so the
# average is the constant e(P_0.y + Q_0.g).  Class (ii): Q_2 = 0, a linear
# phase whose rate carries the fiber through B^T Q_1 y + Q_1 c.  Class
# (iii), B^T Q_2 . alpha not an integer, is quadratic and has no closed form.

def _chars(*ks):
    return [Observable.character(k) for k in ks]


LINEAR_CASES = [
    # class (i): e(g), and e(g_1) on SKEW22
    (standard_skew(), _chars((1, 3), (-2, -3), (1, 1))),
    (SKEW22, _chars((1, 0, 3, 0), (-2, 0, -3, 0), (1, 0, 1, 0))),
    # class (ii)
    (standard_skew(), _chars((1, 4), (1, -1))),
    (standard_skew(), _chars((1, 4), (1, -1), (-2, 0))),
    (standard_skew(), _chars((1, 8), (-2, -2), (1, 0))),
    (SKEW22, _chars((1, 0, 4, 0), (0, 1, -1, 0), (0, 0, 0, 0))),
    # fiber 2: linear for every q
    (SKEW22, _chars((0, 1, 0, 1), (1, 0, 0, -1), (0, 0, 0, 3))),
    (SKEW22, [Observable.from_dict(4, {(0, 0, 0, 1): 0.5, (1, 0, 0, -1): 0.25j}),
              Observable.from_dict(4, {(0, 1, 0, 2): 1.0, (0, 0, 0, 0): -0.5})]),
]


@pytest.mark.parametrize("system,fs", LINEAR_CASES)
def test_skew_linear_closed_forms_follow_the_streams(system, fs):
    N = 10 ** 5
    for seed in (1, 2):
        x = system.haar_block(SplitMix64(seed), 1)[0]
        closed = exact.linear_closed(system, fs, x, N)
        assert abs(closed - multilinear_average_linear(system, fs, x, N)) <= 1e-9


BIRKHOFF_CASES = [
    (standard_skew(), Observable.from_dict(2, {(1, 0): 1.0, (-2, 0): 0.5j})),
    # rate 2 . 1/2: class (i), e(2 y_2)
    (SKEW22, Observable.character((0, 2, 0, 0))),
    # the fiber-2 rate 2 q y_2 + q c_2 + p . alpha
    (SKEW22, Observable.from_dict(4, {(0, 0, 0, 1): 0.5, (1, 1, 0, -3): 0.25j})),
]


@pytest.mark.parametrize("system,f", BIRKHOFF_CASES)
def test_skew_birkhoff_closed_form_follows_the_stream(system, f):
    N = 10 ** 5
    for seed in (1, 2):
        x = system.haar_block(SplitMix64(seed), 1)[0]
        assert abs(exact.birkhoff_closed(system, f, x, N)
                   - multilinear_average_linear(system, [f], x, N)) <= 1e-9




GRID_CASES = [
    # square: fiber-2 characters with the second difference of q; rates
    # 2 . 1/2 on both axes are integers (class (i)), value e(2 y_2)
    (SKEW22, _chars((0, 2, 0, 1), (0, 0, 0, -2), (0, 0, 0, 1))),
    # square, class (ii): the fiber enters both rates through 2 q y_2 + q c_2
    (SKEW22, _chars((1, 0, 0, 1), (0, 0, 0, 3))),
    (SKEW22, [Observable.from_dict(4, {(0, 0, 0, 1): 0.5, (1, 0, 0, -1): 0.25j}),
              Observable.from_dict(4, {(0, 1, 0, 2): 1.0, (0, 0, 0, 0): -0.5}),
              Observable.character((0, 0, 0, -1))]),
    # square, class (ii) on the golden skew: q the third difference
    (standard_skew(), _chars((1, 1), (0, -3), (0, 3), (-1, -1))),
]


@pytest.mark.parametrize("system,fs", GRID_CASES)
def test_skew_grid_closed_forms_follow_the_direct_walk(system, fs):
    x = system.haar_block(SplitMix64(4), 1)[0]
    for N in (1, 7, 40):
        assert len(fs) * N * N <= GRID_CAP
        direct = multilinear_average_square(system, fs, x, N, mode="direct")
        assert abs(exact.square_closed(system, fs, x, N) - direct) <= 1e-9
        factorized = multilinear_average_square(system, fs, x, N,
                                                mode="factorized")
        assert abs(factorized - direct) <= 1e-9


def test_skew_class_i_tuples_are_constant():
    s, fs = LINEAR_CASES[0]
    x = s.haar_block(SplitMix64(3), 1)[0]
    for N in (1, 7, 10 ** 6):
        assert abs(exact.linear_closed(s, fs, x, N) - e(x[1])) <= 1e-12
    s, fs = GRID_CASES[0]
    x = s.haar_block(SplitMix64(4), 1)[0]
    for N in (1, 7, 10 ** 6):
        assert abs(exact.square_closed(s, fs, x, N) - e(2 * x[1])) <= 1e-12


def test_skew_cube_closed_form_follows_the_direct_walk():
    # fiber-2 characters only: every tuple of the cube is linear on SKEW22
    for k, N in ((1, 50), (2, 20), (3, 6)):
        eps = cube_eps_index(k)
        rng = SplitMix64(7 + k)
        fs_by_eps = {}
        for ep in eps:
            terms = {(int(rng.next_u64() % 3) - 1, 0, 0,
                      int(rng.next_u64() % 5) - 2): 1.0 - 0.5j,
                     (0, 1, 0, int(rng.next_u64() % 5) - 2): 0.25}
            fs_by_eps[ep] = Observable.from_dict(4, terms)
        x = SKEW22.haar_block(rng, 1)[0]
        direct = cube_average(SKEW22, fs_by_eps, x, N, mode="direct")
        assert abs(exact.cube_closed(SKEW22, fs_by_eps, x, N) - direct) <= 1e-9
        assert abs(cube_average(SKEW22, fs_by_eps, x, N, mode="factorized")
                   - direct) <= 1e-9


def test_quadratic_tuples_and_the_cat_map_have_no_closed_form():
    s, x = standard_skew(), np.array([0.1, 0.2])
    fiber = Observable.character((0, 1))
    with pytest.raises(ValidationError, match="quadratic"):
        exact.birkhoff_closed(s, fiber, x, 100)
    # class (iii): Q_2 = 5 and 4
    for fs in (_chars((0, 1), (0, 1)), _chars((1, 0), (0, 1))):
        with pytest.raises(ValidationError, match="quadratic"):
            exact.linear_closed(s, fs, x, 100)
        with pytest.raises(ValidationError, match="quadratic"):
            exact.square_closed(s, fs, x, 100)
        with pytest.raises(ValidationError, match="quadratic"):
            multilinear_average_square(s, fs, x, 10, mode="factorized")
    eps = cube_eps_index(2)
    with pytest.raises(ValidationError, match="quadratic"):
        exact.cube_closed(s, {ep: fiber for ep in eps}, x, 10)
    # a linear tuple next to a quadratic one still raises
    mixed = Observable.from_dict(2, {(1, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(ValidationError, match="quadratic"):
        exact.birkhoff_closed(s, mixed, x, 100)
    cm, f = cat_map(), Observable.character((1, 0))
    with pytest.raises(ValidationError, match="automorphism"):
        exact.birkhoff_closed(cm, f, x, 100)
    with pytest.raises(ValidationError, match="automorphism"):
        multilinear_average_square(cm, [f, f], x, 10, mode="factorized")


def test_pattern_phase_is_the_composed_phase():
    # e(K.x + sum_i n_i theta_i) = prod_j chi_{k_j}(T^{c_j . n} x), the
    # right side from compose_with_power, on linear skew tuples
    x = SKEW22.haar_block(SplitMix64(9), 1)[0]
    ks = [(0, 2, 0, 1), (1, 0, 0, -2), (0, 0, 0, 1)]
    coeffs = [(1, 0), (1, 1), (1, 2)]
    [(coeff, K, forms)] = exact.phase_table(
        SKEW22, [Observable.character(k) for k in ks], coeffs, x)
    assert coeff == 1 and K == (1, 2, 0, 0)
    for n in ((0, 0), (3, 5), (1001, 7)):
        lhs = exact.character_at(K, x) * np.prod(
            [e(form.frac_times(ni)) for form, ni in zip(forms, n)])
        rhs = 1.0 + 0.0j
        for k, c in zip(ks, coeffs):
            g = compose_with_power(Observable.character(k), SKEW22,
                                   c[0] * n[0] + c[1] * n[1])
            rhs *= sum(cf * exact.character_at(kk, x) for kk, cf in g.terms)
        assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# The phase table where term tuples meet on one key
#
# exact.phase_table adds the coefficients of tuples with equal (K, rates)
# before it multiplies by the geometric means, so on such inputs its sums
# are in another order than the per-tuple loops': the closed forms are held
# to TABLE_BUDGET relative to prod_j sum_k |c_jk|, which bounds every partial
# sum, and the factorized grids to GRID_BUDGET against the direct walk.

TABLE_BUDGET = 4e-15
GRID_BUDGET = 1e-12


def _dense(dim, count, nterms, box, seed):
    """count observables of nterms terms each, frequencies in [-box, box]."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        terms = {}
        while len(terms) < nterms:
            k = tuple(int(rng.next_u64() % (2 * box + 1)) - box
                      for _ in range(dim))
            terms[k] = complex(rng.unit_block(1)[0] - 0.5,
                               rng.unit_block(1)[0] - 0.5)
        out.append(Observable.from_dict(dim, terms))
    return out


def _scale(fs):
    return float(np.prod([sum(abs(c) for _, c in f.terms) for f in fs]))


def _tuples_and_keys(system, fs, coeffs, x):
    return (int(np.prod([f.term_count for f in fs])),
            len(exact.phase_table(system, fs, coeffs,
                                  exact.obs_coords(system, x))))


def test_colliding_square_matches_the_per_tuple_loop():
    system = golden_rotation()
    fs = _dense(1, 3, 5, 2, 101)
    x = system.haar_block(SplitMix64(5), 1)[0]
    tuples, keys = _tuples_and_keys(system, fs, [(1, j) for j in range(3)], x)
    assert tuples == 125 and keys < tuples
    for N in (7, 1000, 10 ** 6):
        err = abs(exact.square_closed(system, fs, x, N)
                  - ref_pattern_average(system, fs, _square(3), x,
                                        _closed(system, N)))
        assert err <= TABLE_BUDGET * _scale(fs)
    for N in (7, 60):
        direct = multilinear_average_square(system, fs, x, N, mode="direct")
        got = multilinear_average_square(system, fs, x, N, mode="factorized")
        assert abs(got - direct) <= GRID_BUDGET


def test_colliding_heisenberg_cube_matches_the_per_tuple_loop():
    # order 3: at order 2 the key (K and two axis sums) fixes all three k_eps
    system = default_heisenberg()
    eps = cube_eps_index(3)
    fs_by_eps = dict(zip(eps, _dense(2, 7, 3, 1, 103)))
    x = system.haar_block(SplitMix64(6), 1)[0]
    fs = [fs_by_eps[ep] for ep in eps]
    tuples, keys = _tuples_and_keys(system, fs, eps, x)
    assert tuples == 2187 and keys < tuples
    for N in (7, 1000, 10 ** 6):
        err = abs(exact.cube_closed(system, fs_by_eps, x, N)
                  - ref_pattern_average(system, fs, eps, x,
                                        _closed(system, N)))
        assert err <= TABLE_BUDGET * _scale(fs)
    for N in (7, 60):
        direct = cube_average(system, fs_by_eps, x, N, mode="direct")
        got = cube_average(system, fs_by_eps, x, N, mode="factorized")
        assert abs(got - direct) <= GRID_BUDGET


def test_a_million_tuples_collapse_onto_the_table():
    # 32**4 = 1,048,576 tuples, past the per-tuple expansion's TUPLE_CAP;
    # the table never holds more than 32 x (its entries) pairs in a step
    system = golden_rotation()
    fs = [Observable.from_dict(1, {(k,): 1.0 for k in range(32)})] * 4
    x = np.array([0.3])
    for N in (1, 7):
        direct = multilinear_average_square(system, fs, x, N, mode="direct")
        assert abs(exact.square_closed(system, fs, x, N) - direct) \
            <= TABLE_BUDGET * _scale(fs)


def test_phase_table_pair_cap():
    # 1,001 entries after the first factor, times 1,001 terms: past TUPLE_CAP
    # = 10**6 pairs, refused before the step
    f = Observable.from_dict(1, {(k,): 1.0 for k in range(1001)})
    with pytest.raises(ResourceCapError, match="1001 x 1001 pairs"):
        exact.linear_closed(golden_rotation(), [f, f], np.array([0.3]), 10)
