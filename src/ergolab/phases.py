"""Exact mod-1 phase arithmetic, anchored chunks and exact chunked means.

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
  offsets, and every orbit and phase stream in the library is built on it
  (`progression` is frac(base(anchor) + offset * step) for one stream).
* One kernel sums exactly: `exact_row_sums`, Rump-Ogita-Oishi error-free
  extraction over column blocks of CHUNK, certifies math.fsum's bits for
  every row of a 2-D array (each part of each complex row) in numpy, at one
  extraction level where it can and two where it must, and hands the rows
  it cannot certify to math.fsum.  `exact_sum` is its one-row case
  (math.fsum itself on short inputs).
* One kernel turns streamed values into means: `chunk_means` sums each
  CHUNK-anchored span of many rows (cloud starts; one row for a stream) with
  `exact_row_sums`, folds the chunk sums with one more call per checkpoint
  and divides by N.  Every streamed average, geometric stream and cloud
  integral goes through it, so a stream is bit for bit the one-start cloud.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

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
    the anchor.  Writes into `out` when given and returns it."""
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
        out[pos:pos + t.size] = frac(base_at(anchor) + t * step)
    return out


# exact_sum: math.fsum below this many float64 values, a complex one counting
# two.  Crossover with the kernel's flat 52-54 us: about 1,400 real or 770
# complex values (fsum 47 and 59 us at 1,280 and 1,536 reals, two fsums 53 us
# at 768 complex; 2-vCPU x86-64 host, Python 3.11, numpy 2.4).
_SUM_CUTOFF = 1536


def exact_sum(x):
    """math.fsum's bits for the sum of a float64 array; for a complex array,
    the complex whose parts have them.  Short inputs go to math.fsum itself,
    longer ones are the one-row case of exact_row_sums."""
    x = np.asarray(x)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64,
                 copy=False)
    if x.ndim != 1:
        x = x.ravel()
    if x.nbytes >= 8 * _SUM_CUTOFF:
        return exact_row_sums(x[None])[0].item()
    if x.dtype == np.float64:
        return math.fsum(x.tolist())
    return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))


_ROW_LIMIT = 2.0 ** 900      # rows with max |v| outside [2**-900, 2**900)
_ROW_FLOOR = 2.0 ** -900     # go to math.fsum


def _extract(blocks, sigs):
    """Extraction at one level per per-row sigma column in sigs: each level's
    exact q sums, the float remainder sums, and (two levels) if r2 is zero."""
    taus, rho, zero = [0.0] * len(sigs), 0.0, True
    for v in blocks:
        r = v
        for k, sig in enumerate(sigs):
            q = r + sig
            q -= sig
            taus[k] = taus[k] + q.sum(axis=1)
            r = np.subtract(r, q, out=q if k == 0 else r)   # v stays intact
        rho = rho + r.sum(axis=1)
        if len(sigs) > 1:
            zero = zero & ~r.any(axis=1)
        del q, r          # before the next block is built
    return taus, rho, zero


def _round_test(hi, lo, rest, bound):
    """s = fl(hi + lo) and the acceptance test of exact_row_sums."""
    s = hi + lo
    bb = s - hi
    w = np.abs((hi - (s - bb)) + (lo - bb) + rest)
    w += w * 2.0 ** -50 + (bound + 2.0 ** -1022)
    a = np.abs(s)
    return s, 2.0 * w < a - np.nextafter(a, 0.0)    # the smaller spacing


def exact_row_sums(x) -> np.ndarray:
    """math.fsum of every row of a 2-D float64 array, bit for bit; for a
    complex array, complex sums whose parts carry math.fsum's bits (its real
    and imaginary rows are summed as one (2 * rows, CHUNK) block).

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation I/II", SIAM J. Sci. Comput. 31, 2008), one level first and a
    second only for the rows the first leaves.  For a row v of length n with
    max|v| < 2**E (np.frexp), take L = ceil(log2(n+2)), sigma1 = 2**(L + E),
    sigma2 = sigma1 * 2**(L - 52), and split

        q1 = (sigma1 + v) - sigma1,  r1 = v - q1,
        q2 = (sigma2 + r1) - sigma2, r2 = r1 - q2.

    With |p| <= 2**-L sigma, fl(sigma + p) lies in [sigma/2, 2 sigma), so
    it is a multiple of u sigma (u = 2**-53), the subtraction of sigma is
    exact (Sterbenz) and so is p - q; |p - q| <= u sigma.  Hence
    |r1| <= u sigma1 < 2**-L sigma2, which licenses the second level, and
    |r2| <= u sigma2.  The q of one level are multiples of u sigma with
    sum |q| <= n 2**-L sigma < sigma = 2**53 u sigma, so tau1 = sum q1 and
    tau2 = sum q2 are exact in any summation order, column blocks of CHUNK
    included (they cap every temporary at rows * CHUNK elements).

    Level one: T = tau1 + sum r1 = s + e + delta, with rho = fl(sum r1),
    s = fl(tau1 + rho), e its TwoSum error (exact) and, in any order,
    |delta| <= gamma_(n-1) n u sigma1 < 1.001 * 2**(2L - 106) sigma1 = B/2.
    If every nonzero |v| (zeros are left out explicitly) is at least
    2**(2L + E - 54), delta = 0: those v and the q1 are multiples of
    g = 2**(2L + E - 106), so are the r1, and their partial sums stay below
    n u sigma1 < 2**53 g.  s is then T rounded half-even, ties included, as
    fsum rounds it (T = 0 gives +0.0 from both: tau1 starts at +0.0).
    Level two: T = tau1 + tau2 + sum r2 = s + e + rho + delta, with
    s = fl(tau1 + tau2), rho = fl(sum r2), |delta| < 1.001 * 2**(3L - 158)
    sigma1 = B/2; if every r2 is zero, T = tau1 + tau2 and s rounds it.

    Otherwise let w = e (level one) or fl(e + rho) (level two), so that
    |T - s| <= |w| (1 + 2u) + |delta|.  The row is accepted when, summed in
    any order, fl(|w| + fl(2**-50 |w|) + B + 2**-1022) < h, half the smaller
    spacing around s.  Each addition loses at most a factor (1 - u), and the
    product's underflow, at most 2**-1075, is absorbed by 2**-1022; so the
    left side is at least |w| (1 + 2**-50)(1 - u)**3 + B (1 - u)**3 >=
    |w| (1 + 2u) + |delta|, and acceptance means |T - s| < h: s is fsum's
    rounding.  Ties (|T - s| = h) and s = 0 (spacing 0) never pass.

    Rows whose max |v| is zero, empty rows included, are +0.0: fsum's
    partials skip zeros (-0.0 too), so that is its value for all of them,
    and their level-one s is +0.0 (every q1 is +0.0, and tau1 and rho start
    at +0.0).
    Every other row goes to math.fsum itself: rows that are non-finite
    (fsum's inf, nan or ValueError), whose max is at least 2**900 (fsum's
    intermediate overflow) or below 2**-900 (where u sigma2 would leave the
    normal range), and rows neither level certifies."""
    x = np.asarray(x)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64,
                 copy=False)
    parts = (x.real, x.imag) if x.dtype == np.complex128 else (x,)
    rows, n = x.shape
    R = len(parts) * rows

    def block(i):
        """Columns i to i + CHUNK of the stacked rows: real, then imaginary."""
        return parts[0][:, i:i + CHUNK] if len(parts) == 1 else \
            np.concatenate([p[:, i:i + CHUNK] for p in parts])

    one = block(0) if 0 < n <= CHUNK else None     # built once for all passes

    def blocks(sel=slice(None)):
        for i in range(0, n, CHUNK):
            yield (block(i) if one is None else one)[sel]

    s, top = np.zeros(R), np.zeros(R)
    L = (n + 1).bit_length()               # ceil(log2(n + 2))
    with np.errstate(invalid="ignore", over="ignore"):
        for v in blocks():
            np.maximum(top, np.abs(v).max(axis=1), out=top)
        fine = top == 0                    # all-zero rows: fsum's +0.0
        ok = (top >= _ROW_FLOOR) & (top < _ROW_LIMIT)
        if ok.any():
            sig1 = np.ldexp(1.0, np.frexp(np.where(ok, top, 1.0))[1] + L)
            (tau1,), rho, _ = _extract(blocks(), [sig1[:, None]])
            s, cert = _round_test(tau1, rho, 0.0, sig1 * 2.0 ** (2 * L - 105))
            fine |= ok & cert
            sel = (ok & ~fine).nonzero()[0]
            if sel.size:       # is every nonzero |v| at least 2**(2L+E-54)?
                low = np.min([np.where(v != 0, abs(v), np.inf).min(axis=1)
                              for v in blocks(sel)], axis=0)
                fine[sel] = low >= sig1[sel] * 2.0 ** (L - 54)
                sel = sel[~fine[sel]]
            if sel.size:
                sig = sig1[sel, None]
                (tau1, tau2), rho, zero = _extract(
                    blocks(sel), [sig, sig * 2.0 ** (L - 52)])
                s[sel], cert = _round_test(tau1, tau2, rho,
                                           sig[:, 0] * 2.0 ** (3 * L - 157))
                fine[sel] = zero | cert
    for i in (~fine).nonzero()[0].tolist():
        s[i] = math.fsum(parts[i // rows][i % rows].tolist())
    if len(parts) == 1:
        return s
    out = np.empty(rows, dtype=np.complex128)
    out.real, out.imag = s[:rows], s[rows:]
    return out


def chunk_means(values_at: Callable[[int, int, int, int], np.ndarray],
                rows: int, checkpoints: Sequence[int]) -> np.ndarray:
    """The means (1/N) sum_{n<N} v[r, n] of `rows` value streams at each
    checkpoint N, as a (checkpoints, rows) complex array; values_at(r0, r1,
    n0, cnt) returns v[r0:r1, n0:n0 + cnt].

    Spans are anchored at multiples of CHUNK and split at every checkpoint.
    A span of cnt values is requested in slabs of max(1, (CHUNK - 1) // cnt)
    rows, so each block holds fewer than CHUNK values or is one row of a full
    chunk: `evaluate`'s bits depend on which side of CHUNK a block lies (see
    its docstring), and this keeps a slab on the side one row takes.  Each
    slab's rows are summed by one `exact_row_sums` call into a (rows, spans)
    array; at each checkpoint one more call folds the spans so far, and each
    part is divided by N.  A mean is thus math.fsum over math.fsum'd spans,
    per part, divided by N.  Non-increasing checkpoints raise."""
    spans, ends, prev = [], [], 0
    for cp in checkpoints:
        if cp <= prev:
            raise ValidationError("checkpoints must be strictly increasing")
        spans += chunk_ranges(prev, cp - prev)
        ends.append(len(spans))
        prev = cp
    sums = np.empty((rows, len(spans)), dtype=np.complex128)
    for c, (n0, cnt) in enumerate(spans):
        slab = max(1, (CHUNK - 1) // cnt)
        for r0 in range(0, rows, slab):
            r1 = min(rows, r0 + slab)
            sums[r0:r1, c] = exact_row_sums(values_at(r0, r1, n0, cnt))
    means = np.empty((len(ends), rows), dtype=np.complex128)
    for m, cp, end in zip(means, checkpoints, ends):
        folded = exact_row_sums(sums[:, :end])
        m.real, m.imag = folded.real / cp, folded.imag / cp
    return means


class MeanAccumulator:
    """Streaming mean of complex values with exact per-chunk summation."""

    __slots__ = ("_re", "_im", "_n")

    def __init__(self):
        self._re: list[float] = []
        self._im: list[float] = []
        self._n = 0

    def add(self, values: np.ndarray) -> None:
        total = complex(exact_sum(values))      # one call for both parts
        self._re.append(total.real)
        self._im.append(total.imag)
        self._n += np.size(values)

    def mean(self) -> complex:
        if self._n == 0:
            raise ZeroDivisionError("mean of empty accumulator")
        return complex(math.fsum(self._re) / self._n,
                       math.fsum(self._im) / self._n)
