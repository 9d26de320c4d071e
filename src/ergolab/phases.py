"""Exact mod-1 phase arithmetic and compensated accumulation.

Every coordinate in this library lives on the half-open unit interval, and
long orbits need phases like frac(n * alpha) for n up to 1e8.  Accumulating
those incrementally in doubles drifts, and reducing n * alpha directly loses
all precision once the product outgrows the mantissa.  The strategy here:

* Inputs (alpha, beta, starting coordinates) are doubles, hence exact binary
  rationals.  Integer combinations of them and of their pairwise products
  are reduced mod 1 *exactly*, then rounded once to a double: `dyadic_combo`
  sums them as one integer over a power of two, the library's one exact
  reducer, and `frac_combo` rounds that sum's residue.
* Orbits are generated in chunks anchored at absolute multiples of a fixed
  chunk size.  The chunk base is reduced exactly; within a chunk only small
  products (offset * step, offset <= chunk) occur, so the worst-case phase
  error stays ~1e-12 over arbitrarily long orbits.  Because bases are
  recomputed from absolute indices, the emitted floats are a pure function of
  the index, independent of how callers slice their requests.  One kernel
  does the anchoring: `anchored_chunks` yields each chunk's anchor and float
  offsets, and `progression` builds frac(base(anchor) + offset * step) on it.
  Every orbit and phase stream in the library goes through these two.
* Sums of orbit values are exact per chunk and math.fsum across chunk
  sums, which is deterministic and exceeds the accuracy of running Kahan
  compensation.  One kernel sums exactly: `exact_row_sums`, Rump-Ogita-Oishi
  error-free extraction over column blocks of CHUNK, certifies math.fsum's
  bits for every row of a 2-D array in numpy and hands the rows it cannot
  certify to math.fsum.  `exact_sum` is its one-row case (math.fsum itself
  on short inputs); the slabs of a joining cloud call it with many rows.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute anchor spacing for chunked orbit generation.  Systems whose phase
# expressions are quadratic in the index shrink this by the stride so that
# in-chunk products stay below ~2**20 (see systems.py).
CHUNK = 1 << 14


def format_real(x: float) -> str:
    """Decimal string with 17 significant digits (lossless for doubles)."""
    return f"{float(x):.16e}"


def frac(x):
    """x - floor(x), elementwise, post-corrected so the result is always in
    [0, 1).  (For tiny negative x the raw difference rounds to exactly 1.0.)"""
    out = np.floor(x)
    if isinstance(out, np.ndarray):
        np.subtract(x, out, out=out)      # x - floor(x) with one allocation
        out[out >= 1.0] -= 1.0
        return out
    out = x - out
    return out - 1.0 if out >= 1.0 else out


def e(x):
    """exp(2*pi*i*x), elementwise."""
    return np.exp((TWO_PI * 1j) * np.asarray(x)) if isinstance(x, np.ndarray) \
        else complex(math.cos(TWO_PI * x), math.sin(TWO_PI * x))


def frac_fraction(q) -> float:
    """Exact q mod 1 for a fractions.Fraction q, rounded once to double,
    guaranteed in [0, 1)."""
    r = q - (q.numerator // q.denominator)
    out = float(r)
    if out >= 1.0:  # rounding of a fraction just below 1
        out = 0.0
    return out


def dyadic_combo(terms: Iterable[tuple]) -> tuple[int, int]:
    """The exact sum of terms n * x and n * x * y, given as (n, x) and
    (n, x, y) for integer n and doubles x, y, as (num, shift) with sum =
    num / 2**shift (so num >> shift is its floor): doubles are dyadic."""
    num = shift = 0
    for t in terms:
        n = t[0]
        if n:
            m, d = t[1].as_integer_ratio()
            if len(t) == 3:
                m2, d2 = t[2].as_integer_ratio()
                m *= m2
                d *= d2
            k = d.bit_length() - 1
            if k > shift:
                num <<= k - shift
                shift = k
            num += int(n) * m << (shift - k)
    return num, shift


def frac_combo(terms: Iterable[tuple]) -> float:
    """Exact frac of the dyadic_combo sum, rounded once to double in [0, 1):
    frac_fraction of the same rational, bit for bit (its residue mod 1 is
    one mask, and int true division rounds it correctly)."""
    num, shift = dyadic_combo(terms)
    out = (num & ((1 << shift) - 1)) / (1 << shift)
    return 0.0 if out >= 1.0 else out


class PhaseForm:
    """An integer combination of fixed real numbers, reduced exactly.

    Represents theta = sum_i coeffs[i] * basis[i]; used for rotation rates
    where e(n * theta) must be evaluated without drift for large n.
    """

    __slots__ = ("coeffs", "basis")

    def __init__(self, coeffs: Sequence[int], basis: Sequence[float]):
        if len(coeffs) != len(basis):
            raise ValueError("coefficient/basis length mismatch")
        self.coeffs = tuple(int(c) for c in coeffs)
        self.basis = tuple(float(b) for b in basis)

    def frac(self) -> float:
        """theta mod 1 as a double."""
        return frac_combo(zip(self.coeffs, self.basis))

    def frac_times(self, n: int) -> float:
        """(n * theta) mod 1, exactly reduced."""
        return frac_combo((n * c, b) for c, b in zip(self.coeffs, self.basis))

    def is_integral(self) -> bool:
        """True iff theta is exactly an integer: its exact residue is zero
        (frac() can round a residue just below 1 to 0.0)."""
        num, shift = dyadic_combo(zip(self.coeffs, self.basis))
        return (num & ((1 << shift) - 1)) == 0

    def nearest_residue_times(self, n: int) -> float:
        """n * theta minus its nearest integer, in [-1/2, 1/2], rounded once."""
        num, shift = dyadic_combo((n * c, b) for c, b in zip(self.coeffs, self.basis))
        r = num & ((1 << shift) - 1)
        return (r - (1 << shift) if 2 * r > 1 << shift else r) / (1 << shift)

    def __repr__(self):
        return f"PhaseForm({self.coeffs}, {self.basis})"


def chunk_ranges(n0: int, count: int, chunk: int = CHUNK) -> Iterator[tuple[int, int]]:
    """Split [n0, n0+count) at absolute multiples of `chunk`."""
    n = n0
    end = n0 + count
    while n < end:
        stop = min(end, (n // chunk + 1) * chunk)
        yield n, stop - n
        n = stop


def anchored_chunks(n0: int, count: int, chunk: int = CHUNK
                    ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Split [n0, n0+count) at absolute multiples of `chunk` and yield
    (pos, anchor, t): request position pos + i holds index anchor + t[i],
    with t the float64 in-chunk offsets.  The only place anchors are set."""
    for start, cnt in chunk_ranges(n0, count, chunk):
        anchor = (start // chunk) * chunk
        yield start - n0, anchor, np.arange(start - anchor, start - anchor + cnt,
                                            dtype=np.float64)


def progression(base_at, step: float, n0: int, count: int, chunk: int = CHUNK,
                out: np.ndarray | None = None) -> np.ndarray:
    """frac(base_at(anchor) + t * step) over [n0, n0+count), chunk by chunk
    (see anchored_chunks); base_at(anchor) is the exactly reduced phase at
    the anchor.  Writes into `out` when given and returns it.  When
    base_at returns a column of S bases, out is an (S, count) block with
    one progression per row."""
    off = n0 % chunk
    if 0 < count <= chunk - off:      # one chunk: no generator per call
        vals = frac(base_at(n0 - off)
                    + np.arange(off, off + count, dtype=np.float64) * step)
        if out is None:
            return vals
        out[...] = vals
        return out
    if out is None:
        out = np.empty(count)
    for pos, anchor, t in anchored_chunks(n0, count, chunk):
        out[..., pos:pos + t.size] = frac(base_at(anchor) + t * step)
    return out


# exact_sum: math.fsum over a list below this length (the same bits).  The
# crossover against the one-row exact_row_sums is 1,500-2,000 unit-modulus
# values on a 2-vCPU x86-64 host, Python 3.11, numpy 2.4 (fsum 45 us against
# 60-75 us at 1,024 values, 120-160 us against 95-105 us at 3,072); from
# 1,024 to the crossover the two differ by under 30 us per call.
_SUM_CUTOFF = 1 << 10


def exact_sum(x) -> float:
    """The correctly rounded sum of a float64 array: math.fsum's bits.

    Short inputs go to math.fsum itself; longer ones are the one-row case of
    exact_row_sums, which hands back to math.fsum whatever it cannot
    certify."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    if x.size < _SUM_CUTOFF:
        return math.fsum(x.tolist())
    return float(exact_row_sums(x.reshape(1, -1))[0])


_ROW_LIMIT = 2.0 ** 900      # rows with max |v| outside [2**-900, 2**900)
_ROW_FLOOR = 2.0 ** -900     # go to math.fsum


def exact_row_sums(x) -> np.ndarray:
    """math.fsum of every row of a 2-D float64 array, bit for bit.

    Two levels of error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation I/II", SIAM J. Sci. Comput. 31, 2008).  For a
    row v of length n with max|v| < 2**E (np.frexp), take L = ceil(log2(n+2)),
    sigma1 = 2**(L + E) and sigma2 = sigma1 * 2**(L - 52), and split

        q1 = (sigma1 + v) - sigma1,  r1 = v - q1,
        q2 = (sigma2 + r1) - sigma2, r2 = r1 - q2.

    With |p| <= 2**-L sigma, fl(sigma + p) lies in [sigma/2, 2 sigma), so
    it is a multiple of u sigma (u = 2**-53), the subtraction of sigma is
    exact (Sterbenz) and so is p - q; |p - q| <= u sigma.  Hence
    |r1| <= u sigma1 < 2**-L sigma2, which licenses the second level, and
    |r2| <= u sigma2.  The q of one level are multiples of u sigma with
    sum |q| <= n 2**-L sigma < sigma = 2**53 u sigma, so every partial sum
    is representable and tau1 = sum q1, tau2 = sum q2 are exact in any
    summation order.  The split runs over column blocks of CHUNK, so no
    temporary exceeds rows * CHUNK elements, and each block's sums are
    added to tau1, tau2 and rho.  The exact row sum is

        T = tau1 + tau2 + sum r2 = s + e + rho + delta,

    with s = fl(tau1 + tau2) and e its TwoSum error (exact), rho = fl(sum r2)
    and, for any summation order (the block split is one), |delta| <=
    gamma_(n-1) sum |r2| <= (n-1) u/(1 - (n-1) u) * n u sigma2
    < 1.001 * 2**(3L - 158) sigma1.

    A row whose r2 are all zero is accepted outright: T = tau1 + tau2, and
    s is its round-half-even rounding, ties included, which is what fsum
    returns.  Such a row has a nonzero element, so s = 0 means T = 0, where
    fsum returns +0.0; so does s, since no q is -0.0 (an exact zero
    difference or sum of nonzero terms is +0.0).

    Otherwise take B = 2**(3L - 157) sigma1, twice the bound on delta, and
    let w = fl(e + rho), so |e + rho| <= |w| (1 + 2u).  T rounds to s
    (round to nearest) whenever |T - s| < h, half the smaller spacing
    between s and its two neighbours.  The row is accepted when, summed in
    any order,

        fl(|w| + fl(2**-50 |w|) + B + 2**-1022) < h.

    Each addition loses at most a factor (1 - u); the product 2**-50 |w|
    can underflow by at most 2**-1075, which the 2**-1022 term absorbs.  So
    the computed left side is at least
    |w| (1 + 2**-50)(1 - u)**3 + B (1 - u)**3 >= |w| (1 + 2u) + |delta|:
    acceptance implies |T - s| < h, and s is math.fsum's result.  Ties
    (|T - s| = h) and s = 0 (spacing 0) never pass this test.

    Every other row goes to math.fsum itself: rows whose max is zero,
    non-finite (fsum's inf, nan or ValueError), at least 2**900 (fsum's
    intermediate overflow) or below 2**-900 (where u sigma2 would leave the
    normal range), and rows neither test certifies."""
    x = np.asarray(x, dtype=np.float64)
    rows, n = x.shape
    if n == 0:
        return np.zeros(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        top = np.maximum(x.max(axis=1), -x.min(axis=1))
        ok = (top >= _ROW_FLOOR) & (top < _ROW_LIMIT)
        L = (n + 1).bit_length()               # ceil(log2(n + 2))
        sig1 = np.ldexp(1.0, np.frexp(np.where(ok, top, 1.0))[1] + L)[:, None]
        sig2 = sig1 * 2.0 ** (L - 52)
        tau1, tau2, rho = np.zeros(rows), np.zeros(rows), np.zeros(rows)
        exact = np.ones(rows, dtype=bool)      # every r2 so far is zero
        for i in range(0, n, CHUNK):
            v = x[:, i:i + CHUNK]
            q = v + sig1
            q -= sig1
            r = v - q
            tau1 += q.sum(axis=1)
            np.add(r, sig2, out=q)
            q -= sig2
            r -= q
            tau2 += q.sum(axis=1)
            rho += r.sum(axis=1)
            exact &= ~r.any(axis=1)
        s = tau1 + tau2
        bb = s - tau1
        w = np.abs((tau1 - (s - bb)) + (tau2 - bb) + rho)
        w += w * 2.0 ** -50 + (sig1[:, 0] * 2.0 ** (3 * L - 157) + 2.0 ** -1022)
        a = np.abs(s)
        gap = np.minimum(a - np.nextafter(a, 0.0), np.nextafter(a, np.inf) - a)
        ok &= exact | (2.0 * w < gap)
    for i in np.flatnonzero(~ok).tolist():
        s[i] = math.fsum(x[i].tolist())
    return s


class MeanAccumulator:
    """Streaming mean of complex values with exact per-chunk summation."""

    __slots__ = ("_re", "_im", "_n")

    def __init__(self):
        self._re: list[float] = []
        self._im: list[float] = []
        self._n = 0

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values)
        self._re.append(exact_sum(v.real))
        self._im.append(exact_sum(v.imag))
        self._n += v.size

    def add_scalar(self, value: complex) -> None:
        self._re.append(value.real)
        self._im.append(value.imag)
        self._n += 1

    def mean(self) -> complex:
        if self._n == 0:
            raise ZeroDivisionError("mean of empty accumulator")
        return complex(math.fsum(self._re) / self._n,
                       math.fsum(self._im) / self._n)
