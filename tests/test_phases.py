"""exact_sum and exact_row_sums against math.fsum, bit for bit, and the call
sites that use them."""

import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import phases
from ergolab.phases import (CHUNK, MeanAccumulator, _SUM_CUTOFF, exact_row_sums,
                            exact_sum)
from ergolab.joinings import empirical_self_joining, integrate_tensor
from ergolab.observables import Observable
from ergolab.rng import SplitMix64
from ergolab.seminorms import van_der_corput_check
from ergolab.systems import golden_rotation
from reference import ref_van_der_corput

TINY = 2.2250738585072014e-308          # smallest normal double
# 1023-1025 straddle the earlier 1 << 10 crossover; they stay as lengths the
# fsum side must still get right.
LENGTHS = [0, 1, 2, 1023, 1024, 1025, _SUM_CUTOFF - 1, _SUM_CUTOFF,
           _SUM_CUTOFF + 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


def _outcome(fn, x):
    """fn(x) as ("value", hex) or ("raises", exception type)."""
    try:
        return "value", float(fn(x)).hex()
    except (ValueError, OverflowError) as exc:
        return "raises", type(exc)


def _same_as_fsum(x):
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x)


magnitudes = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-TINY, TINY),                             # subnormals and +-0
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** 960, -2.0 ** 960,
                     2.0 ** 959 * 1.5, 1.7976931348623157e308]),
)


@st.composite
def arrays(draw):
    """A float64 array of a drawn length, filled from a small drawn pool,
    optionally with every value's negation appended (exact cancellation)."""
    n = draw(st.sampled_from(LENGTHS))
    pool = np.array(draw(st.lists(magnitudes, min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = pool[rng.integers(0, pool.size, size=n)]
    if draw(st.booleans()):
        x = rng.permutation(np.concatenate([x, -x]))
    return x


@settings(max_examples=300)
@given(arrays())
def test_exact_sum_matches_fsum(x):
    _same_as_fsum(x)


@settings(max_examples=150)
@given(arrays(), st.floats(-1.0, 1.0))
def test_exact_sum_matches_fsum_on_strided_views(x, c):
    z = np.empty(x.size, dtype=np.complex128)
    z.real = x
    z.imag = x[::-1] * c
    _same_as_fsum(z.real)
    _same_as_fsum(z.imag)


@settings(max_examples=150)
@given(arrays(), st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                          min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_exact_sum_nonfinite_follows_fsum(x, bad, seed):
    x = np.concatenate([x, np.ones(_SUM_CUTOFF)])
    pos = np.random.default_rng(seed).integers(0, x.size, size=len(bad))
    x[pos] = bad
    _same_as_fsum(x)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_exact_sum_all_zero_sign(n, zero):
    x = np.full(n, zero)
    _same_as_fsum(x)
    x[::2] = -zero
    _same_as_fsum(x)


def test_exact_sum_cancellation_is_positive_zero():
    x = np.random.default_rng(3).standard_normal(CHUNK)
    got = exact_sum(np.concatenate([x, -x]))
    assert got.hex() == math.fsum(np.concatenate([x, -x])).hex() == "0x0.0p+0"


def test_exact_sum_overflow_is_fsums_own():
    x = np.full(2 * _SUM_CUTOFF, 2.0 ** 1023)
    with pytest.raises(OverflowError):
        math.fsum(x)
    with pytest.raises(OverflowError):
        exact_sum(x)
    x[1::2] = -x[1::2]
    _same_as_fsum(x)


def test_exact_sum_bucket_whose_high_parts_cancel():
    # 0.5 + 2**-27 and -0.5 share an exponent and cancel in their top 26
    # bits; only the low bits carry the sum
    x = np.tile([0.5 + 2.0 ** -27, -0.5], _SUM_CUTOFF)
    _same_as_fsum(x)
    assert exact_sum(x) == _SUM_CUTOFF * 2.0 ** -27


def test_exact_sum_wide_and_subnormal_blocks():
    rng = np.random.default_rng(11)
    wide = rng.standard_normal(3 * CHUNK) * 10.0 ** rng.integers(-300, 300,
                                                                 3 * CHUNK)
    _same_as_fsum(wide)
    _same_as_fsum(rng.standard_normal(CHUNK) * 5e-324 * 1000)
    _same_as_fsum(np.concatenate([wide, -wide[:-1]]))


# ---------------------------------------------------------------------------
# exact_row_sums: every row against math.fsum

ROW_LENGTHS = [1, 2, 100, CHUNK - 1, CHUNK + 1]

row_values = st.one_of(
    magnitudes,
    # TwoSum ties (2**53 + 1, 1 + 2**-53) and the 2**900 fallback edge
    st.sampled_from([2.0 ** 53, 1.0, -1.0, 0.5, 2.0 ** -53, 1.5 * 2.0 ** -53,
                     2.0 ** -54, 2.0 ** 900, -2.0 ** 900, 2.0 ** 899 * 1.5,
                     2.0 ** -900, 1e300, -1e-300]),
)


def _same_rows_as_fsum(x):
    """exact_row_sums(x) row by row against math.fsum: the same hex, or, when
    some row raises, the first such row's exception type."""
    want = [_outcome(math.fsum, row) for row in x]
    raised = [kind for outcome, kind in want if outcome == "raises"]
    if raised:
        with pytest.raises(raised[0]):
            exact_row_sums(x)
        got = [_outcome(lambda r: exact_row_sums(r[None])[0], row) for row in x]
    else:
        got = [("value", v.hex()) for v in exact_row_sums(x).tolist()]
    assert got == want


def _unit_products(rng, rows, n, factors=2):
    """A (rows, n) block of products of unit characters e(k_j t_j) at random
    points, k_j in [-3, 3]: a cloud slab's tensor values (all k_j = 0 gives
    the constant tuple's block, whose imaginary rows are all zero)."""
    z = np.ones((rows, n), dtype=np.complex128)
    for k in rng.integers(-3, 4, factors):
        z = z * np.exp(2j * np.pi * k * rng.random((rows, n)))
    return z


@st.composite
def row_blocks(draw):
    """A 2-D array of drawn row length, filled from a small drawn pool; each
    row optionally cancels exactly (its second half negates its first) and
    one row is optionally all -0.0.  A "mixed" block then scales each row
    by 1 or 2**-40, so that row maxima differ by 2**+-40 and one sigma for
    the block leaves the small rows; a "units" block is instead one part of
    a 163 x 100 block of unit-character products."""
    kind = draw(st.sampled_from(["pool", "pool", "mixed", "units"]))
    n = draw(st.sampled_from(ROW_LENGTHS))
    rows = draw(st.integers(1, 2 if n >= CHUNK - 1 else 8))
    pool = np.array(draw(st.lists(row_values, min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "units":
        z = _unit_products(rng, 163, 100, draw(st.integers(1, 3)))
        return z.imag if draw(st.booleans()) else z.real
    x = pool[rng.integers(0, pool.size, size=(rows, n))]
    if draw(st.booleans()):
        half = n // 2
        x[:, half:2 * half] = -x[:, :half]
    if draw(st.booleans()):
        x[rng.integers(0, rows)] = -0.0
    if kind == "mixed":
        x *= 2.0 ** (-40 * rng.integers(0, 2, (rows, 1)))
    return rng.permuted(x, axis=1)


def _tie_row(rng, n):
    """n >= 2 values whose exact sum is a rounding tie: a 1/8 grid in
    [1/2, 1) (sums exact) and a last value 3/4 + half a spacing of the sum."""
    x = rng.integers(4, 8, n) / 8
    base = math.fsum(x[:-1]) + 0.75
    x[-1] = 0.75 + np.spacing(base) / 2
    return x


@st.composite
def chunk_block_rows(draw):
    """1 to 4 rows of 1 to 3 CHUNK column blocks.  Each row is a rounding
    tie, optionally beside a cancelling pair of tiny values or nudged off
    the tie by a tiny one (either way its least nonzero |v| fails level
    one's exactness bound, and the nudge is lost in a float sum of the
    level-one remainders), or random values over
    2**+-30; it is scaled to near 1, 2**900 or 2**-900 (either side of the
    extraction range) and holds a drawn share of zeros and -0.0."""
    blocks = draw(st.integers(1, 3))
    n = draw(st.integers(max(4, (blocks - 1) * CHUNK + 1), blocks * CHUNK))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            row = _tie_row(rng, n)
            row[:2] = draw(st.sampled_from([row[:2].tolist(),
                                            [2.0 ** -70, -2.0 ** -70],
                                            [row[0], 2.0 ** -100]]))
        else:
            row = rng.standard_normal(n) * 2.0 ** rng.integers(-30, 30, n)
        row *= draw(st.sampled_from([1.0, 2.0 ** 899, 2.0 ** 900,
                                     2.0 ** -900, 2.0 ** -901]))
        zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.25, 1.0]))
        row[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        rows.append(rng.permutation(row))
    return np.array(rows)


@settings(max_examples=40, deadline=None)
@given(chunk_block_rows(), st.booleans())
def test_exact_row_sums_match_fsum_over_chunk_blocks(x, as_complex):
    # guards the long-row path that takes each row's least nonzero |v| in
    # the same pass as its max
    if not as_complex or len(x) < 2:
        _same_rows_as_fsum(x)
        return
    z = np.empty((len(x) // 2, x.shape[1]), dtype=np.complex128)
    z.real, z.imag = x[0:2 * len(z):2], x[1::2][:len(z)]
    assert [_hex(v) for v in exact_row_sums(z).tolist()] == \
        [_fsum_hex(r) for r in z]


def _near_midpoint_rows(rng, rows, n, span):
    """Rows (n >= 3) whose exact sum lies at, or 2**-k of a spacing either
    side of, the midpoint above a short-mantissa s, under cancelling pairs of
    magnitudes up to 2**span |s|.  Summing the leftovers of one extraction
    level in floats misrounds some of them, and with span 40 so does
    dropping the bound on the second level's rounding error."""
    s = (1 + rng.integers(0, 1024, rows) / 1024) \
        * 2.0 ** rng.integers(-40, 40, rows)
    h = np.spacing(s) / 2
    delta = h * 2.0 ** -rng.integers(1, 60, rows) \
        * rng.choice([-1.0, 0.0, 1.0, 1.0], rows)
    k = (n - 3) // 2
    mags = 2.0 ** rng.integers(-60, span, (rows, k)) * rng.random((rows, k)) \
        * s[:, None]
    x = np.zeros((rows, n))
    x[:, :3 + 2 * k] = np.column_stack([s, h, delta, mags, -mags])
    return rng.permuted(x, axis=1)


@settings(max_examples=300)
@given(row_blocks())
def test_exact_row_sums_match_fsum(x):
    _same_rows_as_fsum(x)


@settings(max_examples=100)
@given(row_blocks(), st.floats(-1.0, 1.0))
def test_exact_row_sums_match_fsum_on_strided_views(x, c):
    z = np.empty(x.shape, dtype=np.complex128)
    z.real = x
    z.imag = x[::-1] * c
    _same_rows_as_fsum(z.real)
    _same_rows_as_fsum(z.imag)
    _same_rows_as_fsum(z.real[:, ::-1])


@settings(max_examples=150)
@given(row_blocks(), st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                              min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_exact_row_sums_nonfinite_follows_fsum(x, bad, seed):
    rng = np.random.default_rng(seed)
    for v in bad:
        x[rng.integers(0, x.shape[0]), rng.integers(0, x.shape[1])] = v
    _same_rows_as_fsum(x)


@settings(max_examples=60)
@given(st.sampled_from([3, 7, 100, 1000]), st.sampled_from([4, 40]),
       st.integers(0, 2 ** 32 - 1))
def test_exact_row_sums_near_midpoints(n, span, seed):
    _same_rows_as_fsum(_near_midpoint_rows(np.random.default_rng(seed), 64, n,
                                           span))


@pytest.mark.parametrize("span", [4, 40])
def test_exact_row_sums_near_midpoints_fixed(span):
    # fixed draws of the rows above, on which one level of extraction, or
    # the second level without its error bound, misrounds some rows
    _same_rows_as_fsum(_near_midpoint_rows(np.random.default_rng(0), 3000,
                                           100, span))


def test_exact_row_sums_shapes_and_edges():
    assert exact_row_sums(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert exact_row_sums(np.empty((0, 5))).shape == (0,)
    edges = np.array([[2.0 ** 53, 1.0], [1.0, 2.0 ** -53], [-0.0, -0.0],
                      [0.0, -0.0], [5e-324, 5e-324], [1e300, -1e300],
                      [2.0 ** 1023, 2.0 ** 1023 * -0.5],
                      [2.0 ** -900, -2.0 ** -953]])
    _same_rows_as_fsum(edges)


def test_exact_row_sums_certify_exact_remainders_without_fsum(monkeypatch):
    # Rows whose second-level remainders are all zero are certified without
    # fsum: exact rounding ties (round half to even) and exact cancellation
    # beside -0.0 (fsum's +0.0).  The last row's one nonzero remainder,
    # 2**-80 (above half the spacing at its s = 2**-30), lies in its first
    # column block, so that row must still go to fsum.
    mid = _near_midpoint_rows(np.random.default_rng(1), 256, 3, 4)
    late = np.zeros((1, CHUNK + 1))
    late[0, :4] = [1.0, -1.0, 2.0 ** -30, 2.0 ** -80]
    blocks = [mid[(mid == 0.0).any(axis=1)], np.array([[1.0, 2.0 ** -53]]),
              np.array([[1.0, -1.0, -0.0], [-0.0, 2.0 ** -53, -2.0 ** -53]]),
              late]
    want = [[math.fsum(row).hex() for row in b] for b in blocks]
    sent = []

    def spy(values):
        sent.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(phases, "math", types.SimpleNamespace(fsum=spy))
    assert len(blocks[0]) > 40
    assert [[v.hex() for v in exact_row_sums(b).tolist()] for b in blocks] \
        == want
    assert sent == [CHUNK + 1]


@pytest.mark.parametrize("n", [0, 1, 7, CHUNK + 1])
def test_exact_row_sums_all_zero_rows_are_plus_zero_without_fsum(
        monkeypatch, n):
    # fsum's partials skip zeros, -0.0 included, so it sums every all-zero
    # row, and every empty one, to +0.0; such rows are certified in numpy,
    # beside a row that is not all zero.
    mixed = np.zeros(n)
    mixed[::2] = -0.0
    x = np.stack([np.zeros(n), np.full(n, -0.0), mixed,
                  np.full(n, 0.5), mixed[::-1]])
    z = np.empty((4, n), dtype=np.complex128)
    z.real = x[[0, 1, 2, 3]]
    z.imag = x[[1, 2, 0, 4]]
    want_x = [math.fsum(r).hex() for r in x]
    want_z = [_fsum_hex(r) for r in z]
    assert want_x[:3] == ["0x0.0p+0"] * 3
    seen = _count_levels(monkeypatch)
    assert [v.hex() for v in exact_row_sums(x).tolist()] == want_x
    assert [_hex(v) for v in exact_row_sums(z).tolist()] == want_z
    assert [_hex(v) for v in exact_row_sums(z[:3]).tolist()] == want_z[:3]
    assert seen == {"level2": 0, "fsum": 0}


def test_exact_row_sums_zero_rows_beside_a_fine_value(monkeypatch):
    # 2**-60 lies below level one's exactness bound, so the block is not
    # certified whole; its first row passes the rounding test, and its
    # all-zero rows (-0.0 too) must still be +0.0 without fsum
    x = np.zeros((4, 3))
    x[0] = [1.0, 2.0 ** -60, 0.25]
    x[2, 1] = -0.0
    z = x + 1j * x[::-1]
    want_x = [math.fsum(r).hex() for r in x]
    want_z = [_fsum_hex(r) for r in z]
    seen = _count_levels(monkeypatch)
    assert [v.hex() for v in exact_row_sums(x).tolist()] == want_x
    assert [_hex(v) for v in exact_row_sums(z).tolist()] == want_z
    assert seen == {"level2": 0, "fsum": 0}


def _hex(v):
    """float.hex of a float, or of both parts of a complex."""
    v = complex(v) if isinstance(v, (complex, np.complexfloating)) else v
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


def _fsum_hex(x):
    """math.fsum's bits for a real array, or for each part of a complex one."""
    if np.iscomplexobj(x):
        return math.fsum(x.real).hex(), math.fsum(x.imag).hex()
    return math.fsum(x).hex()


def test_exact_sum_temporaries_stay_within_column_blocks():
    z = np.exp(2j * np.pi * np.random.default_rng(5).random(10 ** 6))
    for x in (np.ascontiguousarray(z.imag), z.imag, z):
        want = _fsum_hex(x)
        tracemalloc.start()
        try:
            got = exact_sum(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _hex(got) == want
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Complex input: one call, each part math.fsum's bits


@pytest.mark.parametrize("n", LENGTHS + [_SUM_CUTOFF // 2 - 1,
                                         _SUM_CUTOFF // 2])
def test_exact_sum_complex_parts_match_fsum(n):
    rng = np.random.default_rng(n)
    z = np.exp(2j * np.pi * rng.random(n)) * 10.0 ** rng.integers(-5, 5, n)
    z[::7] = -0.0 + 0.0j
    got = exact_sum(z)
    assert isinstance(got, complex)
    assert _hex(got) == _fsum_hex(z)
    assert _hex(exact_sum(z[::-2])) == _fsum_hex(z[::-2])


LAYOUTS = {
    "contiguous": lambda z: z,
    "reversed": lambda z: z[:, ::-1],
    "every other column": lambda z: np.repeat(z, 2, axis=1)[:, ::2],
    "column-major": np.asfortranarray,
    "every other row": lambda z: np.repeat(z, 2, axis=0)[::2],
}


@settings(max_examples=150)
@given(row_blocks(), row_blocks(), st.sampled_from(sorted(LAYOUTS)),
       st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
def test_exact_row_sums_complex_parts_match_fsum(x, y, layout, units):
    # units: a seed for a 163 x 100 block of unit-character products
    rows = min(x.shape[0], y.shape[0])
    n = min(x.shape[1], y.shape[1])
    z = np.empty((rows, n), dtype=np.complex128)
    z.real, z.imag = x[:rows, :n], y[:rows, :n]
    if units is not None:
        z = _unit_products(np.random.default_rng(units), 163, 100)
        rows = len(z)
    z = LAYOUTS[layout](z)
    # real rows first, then imaginary rows: the first to raise decides
    raised = [kind for outcome, kind in (_outcome(math.fsum, r)
                                         for r in [*z.real, *z.imag])
              if outcome == "raises"]
    if raised:
        with pytest.raises(raised[0]):
            exact_row_sums(z)
        return
    got = exact_row_sums(z)
    assert got.dtype == np.complex128 and got.shape == (rows,)
    assert [_hex(v) for v in got.tolist()] == [_fsum_hex(r) for r in z]


# ---------------------------------------------------------------------------
# Level one: which rows it certifies, and which it must leave


def _count_levels(monkeypatch):
    """Counts, from here on, the rows that reach the second extraction level
    and the rows that reach math.fsum."""
    seen = {"level2": 0, "fsum": 0}
    extract = phases._extract

    def spy_extract(blocks, sigs):
        out = extract(blocks, sigs)
        if len(sigs) > 1:
            seen["level2"] += len(out[1])
        return out

    def spy_fsum(values):
        seen["fsum"] += 1
        return math.fsum(values)

    monkeypatch.setattr(phases, "_extract", spy_extract)
    monkeypatch.setattr(phases, "math", types.SimpleNamespace(fsum=spy_fsum))
    return seen


def _coarse_tie_rows(rng, rows, n):
    """Rows (n >= 4) whose exact sum is a rounding tie, from a coarse grid:
    values in {5/8, 6/8, 7/8}, one exact zero, one value exactly
    2**(2L - 54) (L = ceil(log2(n + 2)); every row's max lies in [1/2, 1),
    so E = 0), and one value in [1/2, 1) that puts the sum on a midpoint.
    Level one certifies them only through its exactness case, whose bound
    the least nonzero value meets with no margin."""
    L = (n + 1).bit_length()
    x = np.zeros((rows, n))
    x[:, :n - 3] = rng.integers(5, 8, (rows, n - 3)) / 8
    x[:, n - 3] = 2.0 ** (2 * L - 54)
    for row in x:
        base = math.fsum(row)                  # exact: a coarse grid
        half = np.spacing(base + 0.75) / 2
        row[n - 1] = (np.floor((base + 0.75) / (2 * half)) * 2 * half
                      - base) + half
        assert 0.5 <= row[n - 1] < 1.0
        assert abs(sum(map(Fraction, row)) - Fraction(math.fsum(row))) \
            == Fraction(half)
    return rng.permuted(x, axis=1)


@pytest.mark.parametrize("n", [4, 100, CHUNK + 1])
def test_exact_row_sums_certify_coarse_ties_at_level_one(monkeypatch, n):
    rng = np.random.default_rng(n)
    x = _coarse_tie_rows(rng, 2 if n > CHUNK else 40, n)
    z = np.empty(x.shape, dtype=np.complex128)
    z.real, z.imag = x, _coarse_tie_rows(rng, x.shape[0], n)
    want_x = [math.fsum(r).hex() for r in x]
    want_z = [_fsum_hex(r) for r in z]
    seen = _count_levels(monkeypatch)
    assert [v.hex() for v in exact_row_sums(x).tolist()] == want_x
    assert [_hex(v) for v in exact_row_sums(z).tolist()] == want_z
    assert seen == {"level2": 0, "fsum": 0}


def test_exact_row_sums_long_rows_judge_each_row_by_its_own_least(
        monkeypatch):
    # Long rows take each row's least nonzero |v| in the pass that finds the
    # block's max.  Coarse ties (least exactly at the bound) are certified at
    # level one; ties nudged by 2**-100 (least far below it) share their
    # sigma but must go on to level two.
    rng = np.random.default_rng(17)
    n = CHUNK + 1
    nudged = []
    while len(nudged) < 3:
        row = _tie_row(rng, n)
        row[1] = 2.0 ** -100
        # keep rows whose tie, without the nudge, rounds down to even
        if float(sum(map(Fraction, row)) - Fraction(2.0 ** -100)) \
                != math.fsum(row):
            nudged.append(row)
    x = np.concatenate([_coarse_tie_rows(rng, 2, n), nudged])
    want = [math.fsum(r).hex() for r in x]
    seen = _count_levels(monkeypatch)
    assert [v.hex() for v in exact_row_sums(x).tolist()] == want
    assert seen["level2"] == 3


def test_exact_row_sums_fine_remainders_go_past_level_one(monkeypatch):
    # n = 6, so L = 3; the max lies in [1/2, 1), so E = 0 and the exactness
    # bound is 2**-48.  The last value, 2**-49 + 2**-101, sits below it: its
    # remainder 2**-101 is lost when the remainders are summed in floats
    # (their partial sums reach [2**-48, 2**-47), spaced 2**-100), which puts
    # fl(tau1 + rho) on a midpoint that rounds to even, below math.fsum's
    # result.  The row must go past level one (level two leaves it to
    # math.fsum in turn: tau1 + tau2 is that midpoint, and 2**-101 an r2).
    row = [0.5 + m * 2.0 ** -49 + r * 2.0 ** -53
           for m, r in zip([3, 5, 9, 2, 7], [7, 7, 7, 7, 6])]
    row.append(2.0 ** -49 + 2.0 ** -101)
    x = np.array([row, row[::-1], row[1:] + row[:1]])
    want = [math.fsum(r).hex() for r in x]
    seen = _count_levels(monkeypatch)
    assert [v.hex() for v in exact_row_sums(x).tolist()] == want
    assert seen == {"level2": 3, "fsum": 3}


def test_cloud_slab_rows_certify_at_level_one(monkeypatch):
    # Every slab row of a 5,000 x 100 golden-rotation cloud, and every
    # start's fold across chunks, is certified at level one; for a constant
    # tuple, whose imaginary rows are all zero, in numpy too.
    cloud = empirical_self_joining(golden_rotation(), 2, 5000, 100,
                                   SplitMix64(2024))
    tuples = [[Observable.from_dict(1, {(2,): 0.75 - 0.5j, (-1,): 1.0}),
               Observable.character(-3)],
              [Observable.constant(1.0, 1)] * 2]
    want = [integrate_tensor(cloud, fs) for fs in tuples]
    seen = _count_levels(monkeypatch)
    calls = []
    extract = phases._extract
    monkeypatch.setattr(phases, "_extract",
                        lambda b, sigs: calls.append(1) or extract(b, sigs))
    assert [_hex(integrate_tensor(cloud, fs)) for fs in tuples] == \
        [_hex(v) for v in want]
    assert want[1] == 1.0
    assert len(calls) > 60 and seen == {"level2": 0, "fsum": 0}


def test_unit_product_slabs_certify_at_the_block_level(monkeypatch):
    # 163 x 100 slabs of unit-character products, as a cloud's 100-point
    # spans give, are certified by the block's one sigma: no row reaches
    # level two or math.fsum, whatever the layout
    slabs = [_unit_products(np.random.default_rng(seed), 163, 100, factors)
             for seed, factors in [(1, 1), (2, 2), (3, 3), (4, 2)]]
    slabs += [np.ones((163, 100), dtype=np.complex128),
              slabs[1][:, ::-1], np.asfortranarray(slabs[2])]
    want = [[_fsum_hex(r) for r in z] for z in slabs]
    seen = _count_levels(monkeypatch)
    assert [[_hex(v) for v in exact_row_sums(z).tolist()] for z in slabs] \
        == want
    assert seen == {"level2": 0, "fsum": 0}


@pytest.mark.parametrize("row", [
    [1.0, 5e-324, 0.0, 2.0 ** -53],            # subnormal minimum, a tie
    [1.0, -5e-324, 2.0 ** -53, 2.0 ** -53],
    [0.75, 5e-324, -5e-324, 0.0, 2.0 ** -54],
    [2.0 ** -1022, 5e-324, 2.0 ** -1022, 0.0],  # below the 2**-900 floor
])
def test_exact_row_sums_subnormal_minima(row):
    x = np.array([row, row[::-1]])
    _same_rows_as_fsum(x)
    z = x[:, ::-1] + 1j * x
    assert [_hex(v) for v in exact_row_sums(z).tolist()] == \
        [_fsum_hex(r) for r in z]


# ---------------------------------------------------------------------------
# Call sites against references written with plain math.fsum

BLOCKS = [("full chunk", CHUNK), ("chunk tail", 5000),
          ("below crossover", 341)]
assert 341 * 2 < _SUM_CUTOFF            # a complex block of 341 takes fsum


def _unit_values(n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random(n)) * (1 + 1e-9 * rng.random(n))


@pytest.mark.parametrize("name,n", BLOCKS)
def test_mean_accumulator_bits_match_fsum_reference(name, n):
    blocks = [_unit_values(n, 1), _unit_values(CHUNK, 2), _unit_values(n, 3)]
    acc = MeanAccumulator()
    for b in blocks:
        acc.add(b)
    re = [math.fsum(b.real) for b in blocks]
    im = [math.fsum(b.imag) for b in blocks]
    total = sum(b.size for b in blocks)
    expect = complex(math.fsum(re) / total, math.fsum(im) / total)
    assert (acc.mean().real.hex(), acc.mean().imag.hex()) == \
        (expect.real.hex(), expect.imag.hex())


@pytest.mark.parametrize("name,n", BLOCKS)
@pytest.mark.parametrize("cols", [1, 2])
def test_vdc_report_bits_match_fsum_reference(name, n, cols):
    H = 7
    seq = _unit_values((n + H) * cols, 4).reshape(n + H, cols)
    seq = seq[:, 0] if cols == 1 else seq
    got, ref = van_der_corput_check(seq, H), ref_van_der_corput(seq, H)
    assert got == ref
    assert (got.lhs.hex(), got.rhs.hex()) == (ref.lhs.hex(), ref.rhs.hex())
