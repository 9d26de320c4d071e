"""The anchored orbit walker, systems._slabs, against the plain orbit
references in reference.py, bit for bit, and the exact mod-1 reductions
against Fraction sums.

The orbit references take each window's exact chunk bases one anchor at a
time and write out the float expression of every kind (Rotation, the
skew-product base and fiber columns, the Heisenberg x/y and z columns, the
van der Corput phase families).  Each compares raw float64 bytes, so a
change of operation order that moves one rounding fails here.  The orbit
rows are also held to accuracy budgets against the exact `step`, stated
before the run.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab.phases import (CHUNK, PhaseForm, dyadic_combo, e, frac_combo,
                            frac_fraction)
from ergolab.seminorms import vdc_family
from ergolab.systems import (GOLDEN, SQRT2_M1, SQRT3_M1,
                             HeisenbergTranslation, Rotation, SkewProduct,
                             default_heisenberg, golden_rotation,
                             standard_skew)
from reference import ref_combo, ref_orbit, ref_quadratic, ref_residue

# ---------------------------------------------------------------------------
# Cases

SYSTEMS = {
    "rotation-1d": golden_rotation(),
    "rotation-3d": Rotation((GOLDEN, SQRT2_M1, 0.1)),
    "skew-standard": standard_skew(),
    "skew-2x2": SkewProduct((GOLDEN, SQRT3_M1), ((1, 2), (0, -3)),
                            (0.125, SQRT2_M1)),
    "heisenberg": default_heisenberg(),
}
STRIDES = (1, 2, 3, 7, -1, -3, 1025)
# (n0, count): inside one chunk, across a CHUNK anchor, below zero, and
# near 10**12.
WINDOWS = ((0, 0), (0, 1), (0, 300), (1000, 100), (CHUNK - 50, 100),
           (-37, 80), (10 ** 12 - 40, 100), (10 ** 12 + 3, 7))
LONG = (5, 2 * CHUNK + 11)       # many anchors, small strides only


def _starts(system):
    rng = np.random.default_rng(7)
    return [np.zeros(system.dim), np.full(system.dim, 5e-324),
            rng.random(system.dim)]


def _same_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name,coords", [(name, "state") for name in SYSTEMS]
                         + [("heisenberg", "obs")])
def test_orbit_points_bits_match_frozen_loops(name, coords):
    system = SYSTEMS[name]
    for x in _starts(system):
        for stride in STRIDES:
            windows = WINDOWS + ((LONG,) if abs(stride) <= 3 else ())
            for n0, count in windows:
                if abs(stride) > 1000:
                    count = min(count, 120)    # one Fraction base per point
                got = system.orbit_points(x, stride, n0, count, coords=coords)
                _same_bits(got, ref_orbit(system, x, stride, n0, count,
                                           coords))


def test_vdc_families_bits_match_frozen_loop():
    # the linear family is a rotation from 0, the quadratic one the fiber
    # of SkewProduct((a,), ((2,),), (a,)) from (0, 0)
    for a in (GOLDEN, SQRT3_M1, 0.0, 5e-324):
        for length in (0, 1, 2, 255, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
            _same_bits(vdc_family("linear", length, 0, a),
                       e(ref_orbit(Rotation((a,)), [0.0], 1, 0, length)[:, 0]))
            _same_bits(vdc_family("quadratic", length, 0, a),
                       e(ref_quadratic(a, length)))


# ---------------------------------------------------------------------------
# Orbit rows against the exact step, at budgets stated before the run

ACCURACY_SYSTEMS = {
    "skew-standard": standard_skew(),
    "skew-2x2": SYSTEMS["skew-2x2"],
    "heisenberg": default_heisenberg(),
    "heisenberg-near-half": HeisenbergTranslation(SQRT2_M1, 0.5 + 2.0 ** -40),
}
# a linear column is frac(base + t * step), t < CHUNK: t * step and the sum
# round near t, up to CHUNK * 2**-53 = 1.8e-12; a fiber or z column rounds
# once near [0, 1), and step once or twice more
LINEAR_BUDGET, QUADRATIC_BUDGET = 2e-12, 1e-15


def _accuracy_starts(system):
    starts = np.random.default_rng(11).random((3, system.dim))
    if isinstance(system, HeisenbergTranslation):
        # y + m beta within 2**-54 of an integer at m = 10**8 - 6
        starts[2, 1] = ref_residue(-(10 ** 8 - 6) * Fraction(system.beta))
    return starts


@pytest.mark.parametrize("name", ACCURACY_SYSTEMS)
def test_orbit_rows_match_exact_step_within_budgets(name):
    system = ACCURACY_SYSTEMS[name]
    starts = _accuracy_starts(system)
    quad = np.arange(system.dim) >= (system.dim - 1 if isinstance(
        system, HeisenbergTranslation) else system.base_dim)
    worst = np.zeros(system.dim)
    for stride in (-3, -1, 0, 1, 2, 3, 7):
        far = 10 ** 8 // max(1, abs(stride))
        for n0, count in ((0, 20), (CHUNK - 10, 20), (far - 10, 20),
                          (-2 * CHUNK - 5, 10)):
            got = system.orbit_block(starts, stride, n0, count)
            for i in range(0, count, 2):
                d = np.abs(got[:, i] - system.step(starts, stride * (n0 + i)))
                worst = np.maximum(worst, np.minimum(d, 1.0 - d).max(axis=0))
    assert worst[~quad].max() <= LINEAR_BUDGET, worst
    assert worst[quad].max() <= QUADRATIC_BUDGET, worst


# ---------------------------------------------------------------------------
# The batched orbit blocks against the per-start reference


BLOCK_SYSTEMS = {"1-D": golden_rotation(), "2-D": Rotation((GOLDEN, SQRT2_M1)),
                 "skew-standard": SYSTEMS["skew-standard"],
                 "skew-2x2": SYSTEMS["skew-2x2"],
                 "heisenberg": SYSTEMS["heisenberg"]}
BLOCK_KINDS = ([(name, coords) for coords in ("obs", "state")
                for name in ("1-D", "2-D")]
               + [("skew-standard", "state"), ("skew-2x2", "state"),
                  ("heisenberg", "state"), ("heisenberg", "obs")])
# (n0, count, starts, strides): from zero, past CHUNK, across a CHUNK
# anchor, inside one chunk, near 10**12, a large stride (1025) and one
# long request; 400 starts of 100 or 120 points span three slabs
BLOCK_WINDOWS = ((0, 1, 400, (1, 2, 3)), (0, 100, 400, (1, 2, 3, -3)),
                 (CHUNK + 5, 60, 400, (1, 2, 3)),
                 (CHUNK - 50, 120, 400, (1, 2, 3)),
                 (1000, 100, 40, (1, -3)),
                 (10 ** 12 - 40, 100, 40, (1, 3, -3)),
                 (-37, 30, 40, (1025,)), (3, CHUNK + 10, 3, (1, 2, 3)))


def _block_starts(dim, count):
    starts = np.random.default_rng(5).random((count, dim))
    starts[0] = 0.0
    starts[1] = 5e-324
    return starts


@pytest.mark.parametrize("name,coords", BLOCK_KINDS,
                         ids=[f"{c}-{n}" for n, c in BLOCK_KINDS])
def test_orbit_block_bits_match_frozen_per_start_loop(name, coords):
    from ergolab.joinings import _orbit_tuples
    system = BLOCK_SYSTEMS[name]
    for n0, count, rows, strides in BLOCK_WINDOWS:
        starts = _block_starts(system.dim, rows)
        refs = {stride: np.stack([ref_orbit(system, x, stride, n0, count,
                                            coords) for x in starts])
                for stride in {*strides, 1, 2, 3}}
        for stride in strides:
            ref = refs[stride]
            _same_bits(system.orbit_block(starts, stride, n0, count, coords),
                       ref)
            _same_bits(system.orbit_points(starts[2], stride, n0, count,
                                           coords), ref[2])
        # three strides written into strided views of one block
        _same_bits(_orbit_tuples(system, starts[:, None], 3, n0, count,
                                 coords),
                   np.stack([refs[j] for j in (1, 2, 3)], axis=2))


# (n0, count) windows as a stream or a cloud slab asks for them: CHUNK values
# starting off an anchor, exactly one CHUNK, 1024 values inside one chunk,
# 341 values (which do not divide CHUNK) from zero and across the CHUNK
# anchor, and CHUNK values from 10**12 - 40
ORBIT_WINDOWS = ((CHUNK + 100, CHUNK), (CHUNK, CHUNK), (1024, 1024),
                 (0, 341), (CHUNK - 30, 341), (10 ** 12 - 40, CHUNK))
# every coordinate 2**-65, and 5e-324 beside 2**-65 and a Haar value: the
# dyadic exponents exceed 64, so the anchors need more than 64-bit integers
FINE_STARTS = (2.0 ** -65, (5e-324, 2.0 ** -65, 0.8374))


@pytest.mark.parametrize("name,coords", [(name, "state") for name in SYSTEMS]
                         + [("heisenberg", "obs")])
def test_orbit_windows_match_frozen_loops(name, coords):
    system = SYSTEMS[name]
    starts = np.array([np.resize(v, system.dim) for v in FINE_STARTS]
                      + [_block_starts(system.dim, 3)[2]])
    for stride in (1, 2, 3, -3):
        for n0, count in ORBIT_WINDOWS:
            got = system.orbit_block(starts, stride, n0, count, coords)
            for x, row in zip(starts, got):
                _same_bits(row, ref_orbit(system, x, stride, n0, count,
                                           coords))


@pytest.mark.parametrize("system", [Rotation((GOLDEN, SQRT2_M1)),
                                    standard_skew()],
                         ids=["rotation", "skew"])
def test_cloud_build_peak_memory_is_bounded(system):
    # a 5,000 x 100 cloud at d = 3 holds 22.9 MB of points; each slab of
    # 163 starts may add temporaries of a few CHUNK-sized arrays and the
    # slab's exact anchors, not a grid padded to whole chunks
    # (163 x 16,384 doubles would be 21 MB)
    import tracemalloc
    from ergolab.joinings import empirical_self_joining
    from ergolab.rng import SplitMix64
    tracemalloc.start()
    try:
        cloud = empirical_self_joining(system, 3, 5000, 100, SplitMix64(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - cloud.points.nbytes < 2 ** 20


combo_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1 - 2.0 ** -53, GOLDEN,
                     2.2250738585072014e-308, 1.7976931348623157e308]))
combo_ints = st.one_of(st.integers(-10, 10), st.integers(-2 ** 80, 2 ** 80),
                       st.integers(-2 ** 62, 2 ** 62).map(np.int64))


@settings(max_examples=500)
@given(st.lists(st.tuples(combo_ints, combo_reals), max_size=4))
def test_frac_combo_bits_match_fraction_reference(terms):
    got = frac_combo(terms)
    assert type(got) is float
    assert got.hex() == ref_residue(ref_combo(terms)).hex()


combo_terms = st.one_of(st.tuples(combo_ints, combo_reals),
                        st.tuples(combo_ints, combo_reals, combo_reals))


@settings(max_examples=500)
@given(st.lists(combo_terms, max_size=4))
def test_dyadic_combo_product_terms_match_fraction_reference(terms):
    ref = ref_combo(terms)
    num, shift = dyadic_combo(terms)
    assert Fraction(num, 1 << shift) == ref
    assert num >> shift == math.floor(ref)
    got = frac_combo(terms)
    assert type(got) is float
    assert got.hex() == ref_residue(ref).hex() == frac_fraction(ref).hex()


def test_phase_form_integrality_reads_the_exact_residue():
    # theta = 1 - 2**-54 rounds to 1.0, so its double residue is 0.0, yet
    # theta is not an integer; its signed residue keeps the sign
    form = PhaseForm((1, 1), (0.5, 0.5 - 2.0 ** -54))
    assert form.frac() == 0.0
    assert not form.is_integral()
    assert form.nearest_residue_times(1) == -2.0 ** -54
    assert form.nearest_residue_times(3) == -3 * 2.0 ** -54
    assert PhaseForm((1, 1), (0.5, 0.5)).is_integral()
    assert PhaseForm((2, 0), (0.5, 5e-324)).is_integral()
    assert not PhaseForm((1,), (5e-324,)).is_integral()
    assert PhaseForm((1,), (0.25,)).nearest_residue_times(2) == 0.5
    assert PhaseForm((1,), (0.75,)).nearest_residue_times(1) == -0.25
