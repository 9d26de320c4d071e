import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolab import exact
from ergolab.averaging import (AverageTrajectory, FolnerBox, IteratedMap,
                               _grid_direct, birkhoff_average,
                               convergence_diagnostic, cube_average,
                               cube_eps_index, folner_average,
                               geometric_checkpoints, is_tempered,
                               linear_trajectory, multilinear_average_linear,
                               multilinear_average_square, square_trajectory,
                               temperedness_margins, union_of_difference_sets)
from ergolab.errors import (CommutationError, ResourceCapError,
                            ValidationError)
from ergolab.observables import Observable, compose_with_power, evaluate
from ergolab.phases import CHUNK, e
from ergolab.rng import SplitMix64
from ergolab.systems import (GOLDEN, SQRT2_M1, Rotation, SkewProduct, cat_map,
                             default_heisenberg, golden_rotation,
                             standard_skew, step)
from reference import ref_folner, ref_grid_mean

G = golden_rotation()
X = np.array([0.3])


# ---------------------------------------------------------------------------
# Birkhoff


def test_birkhoff_constant():
    c = Observable.constant(2.5 - 1.0j, 1)
    for n in (1, 7, 1000):
        assert birkhoff_average(G, c, X, n) == 2.5 - 1.0j


def test_birkhoff_geometric_closed_form():
    f = Observable.character(1)
    for n in (10, 1000, 100_000):
        streamed = birkhoff_average(G, f, X, n)
        closed = e(0.3) * (1 - e((n * GOLDEN) % 1)) / (n * (1 - e(GOLDEN)))
        assert abs(streamed - closed) <= 1e-10


def test_birkhoff_equals_d1_linear_bitwise():
    f = Observable.from_dict(1, {(1,): 0.5, (-2,): 0.25j})
    for n in (17, 4096, 100_000):
        assert birkhoff_average(G, f, X, n) == \
            multilinear_average_linear(G, [f], X, n)


def test_cesaro_shift_invariance_bound():
    f = Observable.from_dict(1, {(1,): 1.0, (2,): 0.5})
    sup = f.sup_bound()
    for n in (10, 100, 999):
        a = birkhoff_average(G, f, X, n)
        b = birkhoff_average(G, f, step(G, X), n)
        assert abs(a - b) <= 2 * sup / n + 1e-12


# ---------------------------------------------------------------------------
# Linear patterns


def test_linear_phase_cancellation():
    # f1 = e(2x), f2 = e(-x): each term is e(x) exactly
    fs = [Observable.character(2), Observable.character(-1)]
    for n in (1, 10, 1234):
        v = multilinear_average_linear(G, fs, X, n)
        assert abs(v - e(0.3)) <= 1e-11


def test_linear_geometric_decay():
    fs = [Observable.character(1), Observable.character(-1)]
    v = multilinear_average_linear(G, fs, X, 100_000)
    closed = exact.linear_closed(G, fs, X, 100_000)
    assert abs(v - closed) <= 1e-10
    assert abs(v) <= 2 / (100_000 * abs(1 - e(GOLDEN)))


@pytest.mark.parametrize("system", [G, standard_skew(), default_heisenberg()],
                         ids=lambda s: type(s).__name__)
def test_linear_streamed_vs_symbolic_composition(system):
    # independent cross-check: evaluate each composed term symbolically
    dim = system.obs_dim
    fs = [Observable.character((2,) + (0,) * (dim - 1)),
          Observable.character((-1,) * dim)]
    x = system.haar_block(SplitMix64(3), 1)[0]
    n = 400
    total = 0.0 + 0.0j
    for i in range(n):
        term = 1.0 + 0.0j
        for j, f in enumerate(fs):
            term *= evaluate(compose_with_power(f, system, (j + 1) * i), x)
        total += term
    assert abs(multilinear_average_linear(system, fs, x, n) - total / n) <= 1e-9


def test_linear_streamed_vs_symbolic_cat_map():
    # hyperbolic case; composed frequencies stay under the overflow cap
    # only for small n, so the cross-check runs at N = 20
    cm = cat_map()
    fs = [Observable.character((1, 0)), Observable.character((0, -1))]
    x = cm.haar_block(SplitMix64(14), 1)[0]
    n = 20
    total = 0.0 + 0.0j
    for i in range(n):
        term = 1.0 + 0.0j
        for j, f in enumerate(fs):
            term *= evaluate(compose_with_power(f, cm, (j + 1) * i), x)
        total += term
    assert abs(multilinear_average_linear(cm, fs, x, n) - total / n) <= 1e-10


def test_unique_ergodicity_start_independence_rotation():
    # pointwise averages of continuous observables converge to the space
    # mean from every start on a uniquely ergodic system
    from ergolab.observables import integral_haar
    n = 100_000
    f = Observable.from_dict(1, {(1,): 1.0, (-2,): 0.5})
    rng = SplitMix64(23)
    vals = [birkhoff_average(G, f, G.haar_block(rng, 1)[0], n)
            for _ in range(5)]
    envelope = sum(
        2 * abs(c) / (n * abs(1 - e((k[0] * GOLDEN) % 1)))
        for k, c in f.terms)
    for v in vals:
        assert abs(v - integral_haar(f)) <= envelope + 1e-12
    assert max(abs(a - b) for a in vals for b in vals) <= 2 * envelope


def test_linear_validation():
    with pytest.raises(ValidationError):
        multilinear_average_linear(G, [], X, 10)
    with pytest.raises(ValidationError):
        multilinear_average_linear(G, [Observable.character(1)], X, 0)


# ---------------------------------------------------------------------------
# Square averages


def test_square_total_cancellation_exact():
    fs = [Observable.character(1), Observable.character(-2),
          Observable.character(1)]
    for n in (1, 10, 4097, 65537):
        assert multilinear_average_square(G, fs, X, n) == 1.0 + 0.0j


def test_square_reduces_to_single_geometric():
    fs = [Observable.character(1), Observable.character(-1)]
    for n in (100, 10_000):
        v = multilinear_average_square(G, fs, X, n)
        # K = 0, M = -1: value is (1/N) sum_m e(-m alpha)
        geo = sum(e((-m * GOLDEN) % 1) for m in range(n)) / n
        assert abs(v - geo) <= 1e-9


def test_square_all_ones():
    fs = [Observable.constant(1.0, 1)] * 3
    assert multilinear_average_square(G, fs, X, 57) == 1.0 + 0.0j


def test_square_three_paths_agree():
    rng = SplitMix64(41)
    for _ in range(5):
        d = 1 + int(rng.next_u64() % 4)
        fs = [Observable.character(int(rng.next_u64() % 9) - 4)
              for _ in range(d)]
        n = 128 + int(rng.next_u64() % 128)
        x = G.haar_block(rng, 1)[0]
        vf = multilinear_average_square(G, fs, x, n, mode="factorized")
        vd = multilinear_average_square(G, fs, x, n, mode="direct")
        vc = exact.square_closed(G, fs, x, n)
        assert abs(vf - vd) <= 1e-10
        assert abs(vf - vc) <= 1e-10


@st.composite
def small_observables(draw, kmax=3, max_terms=3):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        k = (draw(st.integers(-kmax, kmax)),)
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = draw(st.floats(-1, 1, allow_nan=False))
        terms[k] = complex(re, im)
    return Observable.from_dict(1, terms)


@given(st.lists(small_observables(), min_size=1, max_size=3),
       st.integers(16, 80))
def test_square_paths_agree_on_multiterm_observables(fs, n):
    scale = math.prod(max(f.sup_bound(), 1.0) for f in fs)
    vf = multilinear_average_square(G, fs, X, n, mode="factorized")
    vd = multilinear_average_square(G, fs, X, n, mode="direct")
    vc = exact.square_closed(G, fs, X, n)
    assert abs(vf - vd) <= 1e-10 * (1 + scale)
    assert abs(vf - vc) <= 1e-10 * (1 + scale)


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                min_size=1, max_size=7),
       st.floats(0.5, 6.0))
def test_temperedness_counting_is_exact(sides, c):
    boxes = [FolnerBox(a, b) for a, b in sides]
    margins = temperedness_margins(boxes, c)
    for n, union, bound in margins:
        pts = set()
        for k in range(n):
            for a in range(-(boxes[k].n1 - 1), boxes[n].n1):
                for b in range(-(boxes[k].n2 - 1), boxes[n].n2):
                    pts.add((a, b))
        assert union == len(pts)
    assert is_tempered(boxes, c) == all(u < b for _, u, b in margins)


def test_square_direct_on_nonabelian_systems():
    # cross-check the grid walk against per-term symbolic composition
    for system in (cat_map(), standard_skew()):
        dim = system.obs_dim
        fs = [Observable.character((1,) + (0,) * (dim - 1)),
              Observable.character((0,) * (dim - 1) + (1,))]
        x = system.haar_block(SplitMix64(6), 1)[0]
        n = 20
        total = 0.0 + 0.0j
        for i in range(n):
            for m in range(n):
                term = 1.0 + 0.0j
                for j, f in enumerate(fs):
                    term *= evaluate(compose_with_power(f, system, i + j * m), x)
                total += term
        got = multilinear_average_square(system, fs, x, n, mode="direct")
        assert abs(got - total / n ** 2) <= 1e-10


def test_square_direct_cost_guard():
    with pytest.raises(ResourceCapError):
        multilinear_average_square(cat_map(),
                                   [Observable.character((1, 0))],
                                   np.array([0.1, 0.2]), 10 ** 5,
                                   mode="direct")


def test_square_trajectory_rejects_unknown_mode():
    with pytest.raises(ValidationError, match="bogus"):
        square_trajectory(standard_skew(), [Observable.character((1, 0))],
                          np.array([0.1, 0.2]), [4, 8], mode="bogus")


# _grid_direct's shared walk against the plain grid mean of reference.py.


def _bits(v: complex) -> bytes:
    return np.complex128(v).tobytes()


def _pinning_observables(count, seed):
    # |k| <= 4, so that products x * k round: with |k| <= 2 every product
    # is exact and a walk's bits cannot show the phase's summation order
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(2):
            k = tuple(int(rng.next_u64() % 9) - 4 for _ in range(2))
            terms[k] = complex(rng.unit_block(1)[0] - 0.5,
                               rng.unit_block(1)[0] - 0.5)
        out.append(Observable.from_dict(2, terms))
    return out


GRID_SYSTEMS = {"cat_map": cat_map(),
                "skew": SkewProduct((0.3,), ((2,),), (0.125,)),
                "rotation": Rotation((GOLDEN, SQRT2_M1)),
                "heisenberg": default_heisenberg()}


@pytest.mark.parametrize("name", list(GRID_SYSTEMS))
def test_grid_direct_bits_match_frozen_walks(name):
    system = GRID_SYSTEMS[name]
    x = system.haar_block(SplitMix64(17), 1)[0]
    for d in (1, 2, 3):
        fs = _pinning_observables(d, 100 + d)
        coeffs = [(1, j) for j in range(d)]
        for n in (1, 2, 5, 17, 33, 64, 150):
            assert _bits(_grid_direct(system, fs, coeffs, x, [n])[0]) == \
                _bits(ref_grid_mean(system, fs, coeffs, x, n))
    for k, ns in ((1, (1, 3, CHUNK - 1, CHUNK, CHUNK + 1)), (2, (1, 3, 8, 13)),
                  (3, (1, 3, 8, 13))):
        eps_list = cube_eps_index(k)
        fs = _pinning_observables(len(eps_list), 200 + k)
        for n in ns:
            assert _bits(_grid_direct(system, fs, eps_list, x, [n])[0]) == \
                _bits(ref_grid_mean(system, fs, eps_list, x, n))


def test_grid_direct_bits_match_frozen_walk_past_chunk():
    # 110 factors at N = 151 read an orbit of 16,501 points; it is
    # evaluated in spans of fewer than CHUNK values, as each row of 151 was
    system = GRID_SYSTEMS["rotation"]
    x = system.haar_block(SplitMix64(17), 1)[0]
    fs = _pinning_observables(110, 500)
    coeffs = [(1, j) for j in range(110)]
    assert _bits(_grid_direct(system, fs, coeffs, x, [151])[0]) == \
        _bits(ref_grid_mean(system, fs, coeffs, x, 151))


def test_direct_square_trajectory_checkpoints_match_single_averages():
    # a trajectory reads one orbit up to its last checkpoint; each
    # checkpoint must carry the bits of the single average at that N
    for system in GRID_SYSTEMS.values():
        x = system.haar_block(SplitMix64(23), 1)[0]
        for d in (1, 3):
            fs = _pinning_observables(d, 300 + d)
            traj = square_trajectory(system, fs, x, [1, 4, 17, 64, 150],
                                     mode="direct")
            for n, v in traj.checkpoints:
                assert _bits(v) == _bits(multilinear_average_square(
                    system, fs, x, n, mode="direct"))


# ---------------------------------------------------------------------------
# Cube averages


def test_cube_order_one_is_birkhoff_bitwise():
    f = Observable.character(2)
    for n in (100, 5000):
        assert cube_average(G, {(1,): f}, X, n, mode="direct") == \
            birkhoff_average(G, f, X, n)


def test_cube_all_ones():
    fs = {eps: Observable.constant(1.0, 1) for eps in cube_eps_index(2)}
    assert cube_average(G, fs, X, 123) == 1.0 + 0.0j


def test_cube_direction_cancellation():
    fs = {(1, 0): Observable.character(1), (0, 1): Observable.character(1),
          (1, 1): Observable.character(-1)}
    v = cube_average(G, fs, X, 10_000)
    assert v == e(0.3)


def test_cube_paths_agree():
    fs = {(1, 0): Observable.character(2), (0, 1): Observable.character(-1),
          (1, 1): Observable.character(1)}
    vd = cube_average(G, fs, X, 64, mode="direct")
    vf = cube_average(G, fs, X, 64, mode="factorized")
    vc = exact.cube_closed(G, fs, X, 64)
    assert abs(vd - vf) <= 1e-10 and abs(vf - vc) <= 1e-12


def test_cube_order_guard():
    fs = {eps: Observable.constant(1.0, 1) for eps in cube_eps_index(5)}
    with pytest.raises(ResourceCapError):
        cube_average(G, fs, X, 4)


def test_cube_requires_full_index():
    with pytest.raises(ValidationError):
        cube_average(G, {(1, 0): Observable.character(1)}, X, 4)


# ---------------------------------------------------------------------------
# Folner boxes


def test_folner_trivial_cases():
    f = Observable.character(1)
    c = Observable.constant(0.5j, 1)
    maps = (IteratedMap(G, 1), IteratedMap(G, 2))
    assert folner_average(maps, c, X, FolnerBox(7, 9)) == 0.5j
    assert folner_average(maps, f, X, FolnerBox(1, 1)) == evaluate(f, X)


def test_folner_double_geometric():
    f = Observable.character(1)
    box = FolnerBox(200, 300)
    v = folner_average((IteratedMap(G, 1), IteratedMap(G, 1)), f, X, box)
    closed = exact.box_closed(((1, G.alpha), (1, G.alpha)), f, X, 200, 300)
    assert abs(v - closed) <= 1e-11


R2 = GRID_SYSTEMS["rotation"]
FOLNER_CASES = (
    # criterion 9's boxes
    [(G, 1, 2, Observable.character(k), np.array([0.37]), FolnerBox(1024, 512))
     for k in (1, -2, 3)]
    + [(R2, 1, 3, Observable.character(k), np.array([0.2, 0.6]),
        FolnerBox(700, 300)) for k in ((1, 0), (2, -1))]
    # rows on both sides of CHUNK, a skew pair and a cat-map pair
    + [(G, 3, 2, Observable.from_dict(1, {(1,): 0.3 - 0.7j, (-3,): 0.6j}),
        np.array([0.11]), FolnerBox(n1, 3)) for n1 in (CHUNK - 1, CHUNK,
                                                        CHUNK + 1)]
    + [(standard_skew(), 1, 2, Observable.from_dict(
        2, {(1, 1): 0.8 + 0.1j, (0, -1): 0.3 - 0.45j}),
        np.array([0.3, 0.7]), FolnerBox(300, 40))]
    + [(cat_map(), 2, 1, Observable.from_dict(
        2, {(1, 0): 0.7 - 0.2j, (1, -2): 0.35j}),
        np.array([0.3, 0.7]), FolnerBox(400, 60))])


@pytest.mark.parametrize("case", range(len(FOLNER_CASES)))
def test_folner_bits_match_frozen_row_walk(case):
    system, p1, p2, f, x, box = FOLNER_CASES[case]
    got = folner_average((IteratedMap(system, p1), IteratedMap(system, p2)),
                         f, x, box)
    assert _bits(got) == _bits(ref_folner(((system, p1), (system, p2)),
                                          f, x, box))


def test_folner_commutation_guard():
    maps = (IteratedMap(cat_map(), 1),
            IteratedMap(Rotation((0.3, 0.4)), 1))
    with pytest.raises(CommutationError):
        folner_average(maps, Observable.character((1, 0)),
                       np.array([0.1, 0.2]), FolnerBox(4, 4))


# ---------------------------------------------------------------------------
# Temperedness


def test_single_box_trivially_tempered():
    assert is_tempered([FolnerBox(5, 9)], 0.5)


def test_growing_squares_tempered_with_four():
    boxes = [FolnerBox(n, n) for n in range(1, 200)]
    assert is_tempered(boxes, 4.0)
    # the closed-form envelope: union is [-(n-2), n-1]^2, below 4 n^2
    for n, union, bound in temperedness_margins(boxes, 4.0)[1:]:
        side = boxes[n].n1
        assert union == (2 * side - 2) ** 2 if side > 1 else True
        assert union < bound


def test_alternating_thin_boxes_fail_small_c():
    boxes = [FolnerBox(1, 12) if i % 2 else FolnerBox(12, 1)
             for i in range(6)]
    assert not is_tempered(boxes, 4.0)


def test_union_matches_brute_enumeration():
    boxes = [FolnerBox(3, 7), FolnerBox(5, 2), FolnerBox(4, 4),
             FolnerBox(6, 6), FolnerBox(2, 9)]
    for n in range(len(boxes)):
        pts = set()
        for k in range(n):
            for a in range(-(boxes[k].n1 - 1), boxes[n].n1):
                for b in range(-(boxes[k].n2 - 1), boxes[n].n2):
                    pts.add((a, b))
        assert union_of_difference_sets(boxes, n) == len(pts)


def test_box_validation():
    with pytest.raises(ValidationError):
        FolnerBox(0, 3)


# ---------------------------------------------------------------------------
# Trajectories and diagnostics


def test_trajectory_checkpoints_increasing():
    with pytest.raises(ValidationError):
        AverageTrajectory("birkhoff", ((10, 0j), (10, 0j)))


def test_trajectory_modulus_bound():
    fs = [Observable.from_dict(1, {(1,): 0.5, (2,): 0.25}),
          Observable.character(-1, 0.9)]
    bound = math.prod(f.sup_bound() for f in fs)
    traj = linear_trajectory(G, fs, X, geometric_checkpoints(10_000, 100))
    for _, v in traj.checkpoints:
        assert abs(v) <= bound + 1e-12


def test_diagnostic_constant_trajectory():
    traj = AverageTrajectory("birkhoff", ((1, 1j), (2, 1j), (4, 1j), (8, 1j)))
    diag = convergence_diagnostic(traj, 1.0)
    assert diag.oscillation == 0.0 and diag.constant_tail


def test_diagnostic_geometric_bound():
    f = Observable.character(1)
    n = 100_000
    cps = (n // 2, 5 * n // 8, 3 * n // 4, n)
    traj = linear_trajectory(G, [f], X, cps)
    diag = convergence_diagnostic(traj, 0.5)
    assert diag.oscillation <= 2 * (4 / (n * abs(1 - e(GOLDEN))))


def test_diagnostic_flags_slow_oscillation():
    # adversarial synthetic: partial averages that keep swinging
    vals = tuple((n, ((-1) ** i) * (1.0 / n + 0.02) + 0j)
                 for i, n in enumerate((100, 200, 400, 800)))
    traj = AverageTrajectory("birkhoff", vals)
    diag = convergence_diagnostic(traj, 1.0)
    assert diag.oscillation > 0.04


def test_diagnostic_needs_three_points():
    traj = AverageTrajectory("birkhoff", ((1, 0j), (2, 0j), (100, 0j)))
    with pytest.raises(ValidationError):
        convergence_diagnostic(traj, 0.1)


def test_periodic_rational_rotation_is_averaged_normally():
    r = Rotation((0.25,))
    f = Observable.character(1)
    traj = linear_trajectory(r, [f], np.array([0.0]), (4, 8, 16, 64))
    # exactly periodic: every full-period average is identical
    diag = convergence_diagnostic(traj, 1.0)
    assert diag.constant_tail or diag.oscillation <= 1e-15


def test_closed_forms_follow_streams_when_a_rate_rounds_to_an_integer():
    # k . alpha = 1 - 2**-54 is not an integer, but its residue rounds to
    # 1.0, so PhaseForm.frac() is 0.0; the closed forms then use the signed
    # residue instead of dividing by 1 - e(0)
    rot = Rotation((0.5, 0.49999999999999994))
    f = Observable.character((1, 1))
    x = np.array([0.1, 0.2])
    for N in (1, 2, 1000, 50_000):
        closed = exact.birkhoff_closed(rot, f, x, N)
        assert abs(closed - birkhoff_average(rot, f, x, N)) <= 1e-9
        assert abs(closed - e(0.3)) <= 1e-9
        assert abs(exact.linear_closed(rot, [f], x, N)
                   - multilinear_average_linear(rot, [f], x, N)) <= 1e-9
    # the square pattern's rates here are (2, 1) . alpha = 1.5 - 2**-54 and
    # (1, 1) . alpha
    fs = [Observable.character((1, 0)), f]
    for N in (1, 7, 300):
        streamed = multilinear_average_square(rot, fs, x, N, mode="factorized")
        assert abs(exact.square_closed(rot, fs, x, N) - streamed) <= 1e-9
