"""The uint64 automorphism orbit kernel against the exact integer powers.

`ToralAutomorphism._orbits` holds a start x = X / 2**K as the integer vector
X and reads A^n X mod 2**K from one table of powers per call: in uint64
(exact mod 2**64) when K <= 64, in Python ints mod 2**K otherwise.  These
tests compare its rows, by raw float64 bytes, with the per-point reference
(`ref_orbit`: the exact residue of each row of A^n mod 2**K times x);
test_systems.py compares them with the unreduced powers of `step`.  The
last test is a Birkhoff average at N = 10**6, which a per-point loop makes
too slow to run.
"""

import time

import numpy as np
import pytest

from ergolab.averaging import birkhoff_average
from ergolab.observables import Observable
from ergolab.phases import CHUNK, frac_combo
from ergolab.rng import SplitMix64
from ergolab.systems import ToralAutomorphism, _int_mat_pow, cat_map
from reference import ref_orbit

MATRICES = {"cat": cat_map(),
            "3x3": ToralAutomorphism(((2, 1, 1), (1, 1, 0), (1, 0, 0))),
            "det-1": ToralAutomorphism(((1, 1), (1, 0)))}

# one value per coordinate: K = 0, 12, 53, 2 (negative), 1 (above 1), 64,
# 65, 1074 (the smallest subnormal)
START_VALUES = (0.0, 2.0 ** -12, 1 - 2.0 ** -53, -0.25, 1.5,
                (2.0 ** 53 - 1) * 2.0 ** -64, 2.0 ** -65, 5e-324)
N0S = (0, CHUNK - 7, 10 ** 6, 10 ** 12 + 5, (10 ** 12 // CHUNK) * CHUNK - 3)


def _starts(system):
    """Each START_VALUES entry in every coordinate, two Haar starts, and a
    Haar start with one coordinate at 2**-65 (mixed exponents)."""
    haar = system.haar_block(SplitMix64(15), 3)
    haar[2, 0] = 2.0 ** -65
    return np.concatenate([[np.full(system.dim, v) for v in START_VALUES],
                           haar])


@pytest.mark.parametrize("name", MATRICES)
def test_kernel_rows_match_frozen_loop_bitwise(name):
    system = MATRICES[name]
    starts = _starts(system)
    for stride in (1, -1, 3, -3):
        for n0 in N0S:
            block = system.orbit_block(starts, stride, n0, 12)
            for x, row in zip(starts, block):
                assert row.tobytes() == \
                    ref_orbit(system, x, stride, n0, 12).tobytes()


@pytest.mark.parametrize("name", MATRICES)
def test_long_windows_span_chunks_and_slabs(name):
    # windows past CHUNK points take one start per slab and reuse the table
    # in every chunk; sampled rows against one-point reference windows
    system = MATRICES[name]
    starts = _starts(system)[[1, 6, -1]]
    count = 2 * CHUNK + 50
    for stride, n0 in ((1, 0), (-3, 10 ** 12 + 5)):
        block = system.orbit_block(starts, stride, n0, count)
        for i in (0, 1, CHUNK - 1, CHUNK, 2 * CHUNK - 7, count - 1):
            for x, row in zip(starts, block):
                assert row[i].tobytes() == \
                    ref_orbit(system, x, stride, n0 + i, 1)[0].tobytes()
        tail = system.orbit_block(starts, stride, n0 + count - 60, 60)
        assert tail.tobytes() == block[:, -60:].tobytes()


def _residue(system, x, n, i):
    """The exact residue r and K with coordinate i of T^n x = r / 2**K."""
    ratios = [float(v).as_integer_ratio() for v in x]
    K = max(d.bit_length() for _, d in ratios) - 1
    mat = _int_mat_pow(system.matrix, n)
    r = sum(c * m << K - d.bit_length() + 1
            for c, (m, d) in zip(mat[i], ratios))
    return r % (1 << K), K


@pytest.mark.parametrize("x, n, r, K, want", [
    # 2**64 - 1: the uint64 cast gives 2**64, and 1.0 becomes 0.0
    ((-2.0 ** -64, 0.0), 0, 2 ** 64 - 1, 64, 0.0),
    # 1 - 2**-54 ties between 1 - 2**-53 and 1.0 and rounds to even: 0.0
    ((-2.0 ** -54, 0.0), 0, 2 ** 54 - 1, 54, 0.0),
    # exact ties at K = 64, to the even neighbour below and above
    ((2.0 ** -64, -3074 * 2.0 ** -64), 1, 2 ** 64 - 3 * 2 ** 10, 64,
     1 - 2.0 ** -52),
    ((2.0 ** -64, -5122 * 2.0 ** -64), 1, 2 ** 64 - 5 * 2 ** 10, 64,
     1 - 2.0 ** -52),
])
def test_uint64_rounding_pinned_to_frac_combo(x, n, r, K, want):
    system = cat_map()
    x = np.array(x)
    assert _residue(system, x, n, 0) == (r, K)
    mat = _int_mat_pow(system.matrix, n)
    exact = frac_combo(zip(mat[0], x.tolist()))
    assert exact == want
    got = system.orbit_points(x, 1, n, 1)[0, 0]
    assert got.hex() == exact.hex()
    other = system.haar_block(SplitMix64(3), 1)[0]
    block = system.orbit_block(np.stack([other, x]), 1, n, 1)
    assert block[1, 0, 0].hex() == exact.hex()


def test_cat_map_birkhoff_average_at_a_million_points():
    # Stated before the run: for Haar x and a nonzero k, the frequencies
    # k A^n are distinct, so E|avg_N|^2 = 1/N exactly (orthogonality of
    # characters), and by Markov the mean of |avg_N|^2 over 4 starts exceeds
    # 100/N with probability at most 1%.  Runtime budget: 5 s.
    system, N = cat_map(), 10 ** 6
    f = Observable.character((1, 0))
    t0 = time.perf_counter()
    starts = system.haar_block(SplitMix64(2026), 4)
    sq = [abs(birkhoff_average(system, f, x, N)) ** 2 for x in starts]
    elapsed = time.perf_counter() - t0
    assert sum(sq) / len(sq) <= 100.0 / N
    assert elapsed <= 5.0
