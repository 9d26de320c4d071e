"""The anchored progression kernel against frozen copies of the hand-written
chunk loops it replaced, bit for bit.

The references below are the loops as they stood before `phases.progression`
and `phases.anchored_chunks` took over: Rotation, the skew-product base and
fiber columns, the Heisenberg x/y and z columns, the streamed geometric sum
and the quadratic phase block.  Each compares raw float64 bytes, so a change
of operation order that moves one rounding fails here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab.averaging import geometric_mean_streamed
from ergolab.phases import (CHUNK, MeanAccumulator, PhaseForm,
                            anchored_chunks, chunk_ranges, dyadic_combo, frac,
                            frac_combo, frac_fraction, progression)
from ergolab.seminorms import quadratic_phase_block
from ergolab.systems import (GOLDEN, SQRT2_M1, SQRT3_M1, Rotation,
                             SkewProduct, _quad_chunk, binom2,
                             default_heisenberg, golden_rotation, standard_skew)

# ---------------------------------------------------------------------------
# Frozen reference loops


def ref_rotation(system, x, stride, n0, count):
    out = np.empty((count, system.dim))
    for c, (xc, ac) in enumerate(zip(x, system.alpha)):
        stepf = frac_combo([(stride, ac)])
        pos = 0
        for start, cnt in chunk_ranges(n0, count, CHUNK):
            anchor = (start // CHUNK) * CHUNK
            base = frac_combo([(1, xc), (stride * anchor, ac)])
            offs = np.arange(start - anchor, start - anchor + cnt,
                             dtype=np.float64)
            out[pos:pos + cnt, c] = frac(base + offs * stepf)
            pos += cnt
    return out


def ref_skew(system, x, stride, n0, count):
    y, g = x[:system.base_dim], x[system.base_dim:]
    out = np.empty((count, system.dim))
    chunk = _quad_chunk(stride)
    for c, (yc, ac) in enumerate(zip(y, system.base_alpha)):
        stepf = frac_combo([(stride, ac)])
        pos = 0
        for start, cnt in chunk_ranges(n0, count, chunk):
            anchor = (start // chunk) * chunk
            base = frac_combo([(1, yc), (stride * anchor, ac)])
            offs = np.arange(start - anchor, start - anchor + cnt,
                             dtype=np.float64)
            out[pos:pos + cnt, c] = frac(base + offs * stepf)
            pos += cnt
    for f in range(system.fiber_dim):
        col = system.base_dim + f
        pos = 0
        for start, cnt in chunk_ranges(n0, count, chunk):
            anchor = (start // chunk) * chunk
            s0 = stride * anchor
            fr0 = Fraction(float(g[f]))
            fr1 = Fraction(system.const[f])
            frab = Fraction(0)
            for b in range(system.base_dim):
                B = system.linear[f][b]
                if B:
                    fa = Fraction(system.base_alpha[b])
                    fy = Fraction(float(y[b]))
                    fr0 += B * (s0 * fy + binom2(s0) * fa)
                    fr1 += B * (fy + s0 * fa)
                    frab += B * fa
            fr0 += s0 * Fraction(system.const[f])
            bg0 = frac_fraction(fr0)
            bg1 = frac_fraction(fr1)
            abf = frac_fraction(frab)
            t = np.arange(start - anchor, start - anchor + cnt,
                          dtype=np.float64)
            u = stride * t
            out[pos:pos + cnt, col] = frac(bg0 + u * bg1
                                           + (u * (u - 1.0) / 2.0) * abf)
            pos += cnt
    return out


def ref_heisenberg(system, x, stride, n0, count, coords):
    ncols = 2 if coords == "obs" else 3
    out = np.empty((count, ncols))
    fa, fb = Fraction(system.alpha), Fraction(system.beta)
    fx, fy, fz = (Fraction(float(x[0])), Fraction(float(x[1])),
                  Fraction(float(x[2])))
    stepa = frac_combo([(stride, system.alpha)])
    stepb = frac_combo([(stride, system.beta)])
    pos = 0
    for start, cnt in chunk_ranges(n0, count, CHUNK):
        anchor = (start // CHUNK) * CHUNK
        s0 = stride * anchor
        basea = frac_fraction(fx + s0 * fa)
        baseb = frac_fraction(fy + s0 * fb)
        t = np.arange(start - anchor, start - anchor + cnt, dtype=np.float64)
        out[pos:pos + cnt, 0] = frac(basea + t * stepa)
        out[pos:pos + cnt, 1] = frac(baseb + t * stepb)
        pos += cnt
    if ncols == 3:
        chunk = _quad_chunk(stride)
        pos = 0
        for start, cnt in chunk_ranges(n0, count, chunk):
            anchor = (start // chunk) * chunk
            s0 = stride * anchor
            t = np.arange(start - anchor, start - anchor + cnt,
                          dtype=np.float64)
            u = stride * t
            xs = frac(frac_fraction(fx + s0 * fa) + t * stepa)
            f0 = fy + s0 * fb
            bigF0 = f0.numerator // f0.denominator
            yf0 = frac_fraction(f0)
            gt = np.floor(yf0 + u * system.beta)
            bz0 = frac_fraction(fz + binom2(s0) * fa * fb + s0 * fa * fy)
            bz1 = frac_fraction(s0 * fa * fb + fa * fy)
            abf = frac_fraction(fa * fb)
            bx0 = frac_fraction((fx + s0 * fa) * bigF0)
            bx1 = frac_fraction(fa * bigF0)
            zraw = (bz0 + u * bz1 + (u * (u - 1.0) / 2.0) * abf
                    - bx0 - u * bx1 - xs * gt)
            out[pos:pos + cnt, 2] = frac(zraw)
            pos += cnt
    return out


def ref_geometric(form, checkpoints):
    acc = MeanAccumulator()
    out = {}
    stepf = form.frac()
    prev = 0
    for cp in checkpoints:
        for n0, cnt in chunk_ranges(prev, cp - prev, CHUNK):
            anchor = (n0 // CHUNK) * CHUNK
            base = form.frac_times(anchor)
            offs = np.arange(n0 - anchor, n0 - anchor + cnt, dtype=np.float64)
            acc.add(np.exp((2j * np.pi) * frac(base + offs * stepf)))
        out[cp] = acc.mean()
        prev = cp
    return out


def ref_quadratic(a, length, chunk):
    out = np.empty(length)
    fa = Fraction(a)
    pos = 0
    for n0, cnt in chunk_ranges(0, length, chunk):
        anchor = (n0 // chunk) * chunk
        b0 = frac_fraction(anchor * anchor * fa)
        b1 = frac_fraction(2 * anchor * fa)
        t = np.arange(n0 - anchor, n0 - anchor + cnt, dtype=np.float64)
        out[pos:pos + cnt] = frac(b0 + t * b1 + (t * t) * a)
        pos += cnt
    return out


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
# (n0, count): inside one chunk, across Heisenberg/skew anchors (1024 at
# stride 1), across a CHUNK anchor, below zero, and near 10**12.
WINDOWS = ((0, 0), (0, 1), (0, 300), (1000, 100), (CHUNK - 50, 100),
           (-37, 80), (10 ** 12 - 40, 100), (10 ** 12 + 3, 7))
LONG = (5, 2 * CHUNK + 11)       # many anchors, small strides only


def _starts(system):
    rng = np.random.default_rng(7)
    return [np.zeros(system.dim), np.full(system.dim, 5e-324),
            rng.random(system.dim)]


def _reference(system, x, stride, n0, count, coords):
    if isinstance(system, Rotation):
        return ref_rotation(system, x, stride, n0, count)
    if isinstance(system, SkewProduct):
        return ref_skew(system, x, stride, n0, count)
    return ref_heisenberg(system, x, stride, n0, count, coords)


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
                _same_bits(got, _reference(system, x, stride, n0, count,
                                           coords))


@pytest.mark.parametrize("form", [PhaseForm((1,), (GOLDEN,)),
                                  PhaseForm((3, -2), (GOLDEN, SQRT2_M1)),
                                  PhaseForm((7,), (5e-324,))],
                         ids=["golden", "combo", "subnormal"])
def test_geometric_mean_streamed_bits_match_frozen_loop(form):
    for cps in ((1,), (100, 5000), (CHUNK, CHUNK + 1, 3 * CHUNK + 17)):
        got = geometric_mean_streamed(form, cps)
        ref = ref_geometric(form, cps)
        assert list(got) == list(ref)
        for cp in cps:
            assert (got[cp].real.hex(), got[cp].imag.hex()) == \
                (ref[cp].real.hex(), ref[cp].imag.hex())


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_quadratic_phase_block_bits_match_frozen_loop(chunk):
    for a in (GOLDEN, SQRT3_M1, 0.0, 5e-324):
        for length in (0, 1, 2, 255, 257, 3000):
            _same_bits(quadratic_phase_block(a, length, chunk),
                       ref_quadratic(a, length, chunk))


# ---------------------------------------------------------------------------
# The kernel itself


@pytest.mark.parametrize("chunk", [1, 3, 1024, CHUNK])
def test_anchored_chunks_cover_request_at_absolute_anchors(chunk):
    for n0, count in ((0, 0), (0, 5), (-7, 40), (chunk - 1, 2 * chunk + 3),
                      (10 ** 12 + 1, 9)):
        idx = []
        for pos, anchor, t in anchored_chunks(n0, count, chunk):
            assert anchor % chunk == 0
            assert pos == len(idx)
            assert t.dtype == np.float64
            assert 0 <= t[0] and t[-1] < chunk
            idx += [anchor + int(v) for v in t]
        assert idx == list(range(n0, n0 + count))


def test_progression_one_chunk_and_many_chunks_agree():
    # the one-chunk branch and the chunk loop give the same floats for any
    # slicing of a request, and `out` receives them in place
    alpha = GOLDEN

    def base_at(a):
        return frac_combo([(1, 0.3), (3 * a, alpha)])
    step = frac_combo([(3, alpha)])
    whole = progression(base_at, step, 10, 300, chunk=64)
    for n0 in range(10, 300, 37):
        part = progression(base_at, step, n0, 20, chunk=64)
        _same_bits(part, whole[n0 - 10:n0 + 10])
    out = np.full((300, 2), math.nan)
    progression(base_at, step, 10, 300, chunk=64, out=out[:, 1])
    _same_bits(np.ascontiguousarray(out[:, 1]), whole)
    assert np.isnan(out[:, 0]).all()


# ---------------------------------------------------------------------------
# The batched orbit blocks against the per-start loops they replaced


def ref_orbit_tuples(system, starts, d, n0, count, coords):
    """joinings._orbit_tuples before orbit_block: one orbit per start and
    stride."""
    cols = system.dim if coords == "state" else system.obs_dim
    pts = np.empty((starts.shape[0], count, d, cols))
    for s in range(starts.shape[0]):
        for j in range(1, d + 1):
            pts[s, :, j - 1, :] = _reference(system, starts[s], j, n0, count,
                                             coords)
    return pts


BLOCK_SYSTEMS = {"1-D": golden_rotation(), "2-D": Rotation((GOLDEN, SQRT2_M1)),
                 "skew-standard": SYSTEMS["skew-standard"],
                 "skew-2x2": SYSTEMS["skew-2x2"],
                 "heisenberg": SYSTEMS["heisenberg"]}
BLOCK_KINDS = ([(name, coords) for coords in ("obs", "state")
                for name in ("1-D", "2-D")]
               + [("skew-standard", "state"), ("skew-2x2", "state"),
                  ("heisenberg", "state"), ("heisenberg", "obs")])
# (n0, count, starts, strides): from zero, past CHUNK, across a CHUNK
# anchor, across a quadratic-phase anchor (1024 at stride 1, 1023 at stride
# -3), near 10**12, one point per quadratic chunk (stride 1025) and one long
# request; 400 starts of 100 or 120 points span three slabs
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
        for stride in strides:
            ref = np.stack([_reference(system, x, stride, n0, count, coords)
                            for x in starts])
            _same_bits(system.orbit_block(starts, stride, n0, count, coords),
                       ref)
            _same_bits(system.orbit_points(starts[2], stride, n0, count,
                                           coords), ref[2])
        # three strides written into strided views of one block
        _same_bits(_orbit_tuples(system, starts, 3, n0, count, coords),
                   ref_orbit_tuples(system, starts, 3, n0, count, coords))


def ref_frac_combo(terms):
    """frac_combo before it summed in integers: one Fraction per term."""
    acc = Fraction(0)
    for n, x in terms:
        if n:
            acc += n * Fraction(x)
    return frac_fraction(acc)


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
    assert got.hex() == ref_frac_combo(terms).hex()


def ref_dyadic(terms):
    """The exact sum of n * x and n * x * y terms, one Fraction per term."""
    acc = Fraction(0)
    for n, *xs in terms:
        q = Fraction(int(n))
        for x in xs:
            q *= Fraction(x)
        acc += q
    return acc


combo_terms = st.one_of(st.tuples(combo_ints, combo_reals),
                        st.tuples(combo_ints, combo_reals, combo_reals))


@settings(max_examples=500)
@given(st.lists(combo_terms, max_size=4))
def test_dyadic_combo_product_terms_match_fraction_reference(terms):
    ref = ref_dyadic(terms)
    num, shift = dyadic_combo(terms)
    assert Fraction(num, 1 << shift) == ref
    assert num >> shift == math.floor(ref)
    got = frac_combo(terms)
    assert type(got) is float
    assert got.hex() == frac_fraction(ref).hex()


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
