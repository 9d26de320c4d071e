"""Exact mod-1 phase arithmetic, chunk anchors and exact chunked means.

Every coordinate in this library lives on the half-open unit interval, and
long orbits need phases like frac(n * alpha) for n up to 1e8.  Accumulating
those incrementally in doubles drifts, and reducing n * alpha directly loses
all precision once the product outgrows the mantissa.  The strategy here:

* Inputs (alpha, beta, starting coordinates) are doubles, hence exact binary
  rationals.  Integer combinations of them and of their pairwise products
  are reduced mod 1 *exactly*, then rounded once to a double: `dyadic_combo`
  sums them as one integer over a power of two, the library's one exact
  reducer, and `frac_combo` rounds that sum's residue.
* Orbits are generated in chunks anchored at absolute multiples of CHUNK.
  The coefficients at the anchor are reduced exactly; within a chunk only
  products with the offset t < CHUNK and C(t,2) occur, so a linear column
  stays within 1.8e-12 over arbitrarily long orbits, and a quadratic one,
  whose products are exact (systems._pieces), within about 1e-16.  Since
  they come from absolute indices, the emitted floats are a pure function
  of the index, independent of how callers slice their requests.
  `chunk_ranges` splits a request at those anchors.  One walker,
  systems._slabs, lays them over every orbit and every streamed geometric
  sum (the one-start rotation at a PhaseForm's exact rate) a window at a
  time, each anchor's base an exact integer rounded by `frac_dyadic`.
* One kernel sums exactly: `exact_row_sums`, Rump-Ogita-Oishi error-free
  extraction over column blocks of CHUNK, certifies math.fsum's bits for
  every row of a 2-D array (each part of each complex row) in numpy: first
  at one extraction level whose one sigma serves the whole block (the
  proof only asks sigma >= 2**L max|v| of each row), then at two levels at
  each leftover row's own scale, and hands the rows it cannot certify to
  math.fsum.  `exact_sum` is its one-row case
  (math.fsum itself on short inputs).
* One kernel turns streamed values into means: `chunk_means` sums each
  CHUNK-anchored span of many rows (cloud starts; one row for a stream),
  and its prefix up to each checkpoint in it, with `exact_row_sums`; the
  mean at N folds the spans before N's and that prefix, so it depends on N
  alone.  Every streamed average, geometric stream and cloud integral goes
  through it, so a stream is bit for bit the one-start cloud.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi

# The one anchor spacing of every orbit column: offsets t < 2**14 keep the
# products of t and C(t,2) with the grid pieces of systems._pieces exact.
CHUNK = 1 << 14


def format_real(x: float) -> str:
    """Decimal string with 17 significant digits (lossless for doubles)."""
    return f"{float(x):.16e}"


def frac(x):
    """x - floor(x), elementwise, post-corrected so the result is always in
    [0, 1).  (For tiny negative x the raw difference rounds to exactly 1.0.)
    A float (float64 scalars included) takes x % 1.0, which is x - floor(x)
    rounded once as well, and +0.0 at every integer, -0.0 included."""
    if isinstance(x, float):
        out = x % 1.0
        return out - 1.0 if out >= 1.0 else out
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


def frac_dyadic(num: int, shift: int) -> float:
    """Exact frac of num / 2**shift, rounded once to double in [0, 1):
    frac_fraction of the same rational, bit for bit (its residue mod 1 is
    one mask, and int true division rounds it correctly)."""
    out = (num & ((1 << shift) - 1)) / (1 << shift)
    return 0.0 if out >= 1.0 else out


def frac_combo(terms: Iterable[tuple]) -> float:
    """Exact frac of the dyadic_combo sum, rounded once to double in [0, 1)."""
    return frac_dyadic(*dyadic_combo(terms))


def dyadic_align(*sums: tuple[int, int]) -> tuple[list[int], int]:
    """(num, shift) pairs, as from dyadic_combo, as numerators
    over their largest shift, so that integer combinations of them stay
    exact."""
    top = max([shift for _, shift in sums], default=0)
    return [num << top - shift for num, shift in sums], top


class PhaseForm:
    """An integer combination of fixed real numbers, reduced exactly.

    Represents theta = sum_i coeffs[i] * basis[i] as dyadic_combo's num /
    2**shift; used for rotation rates where e(n * theta) must be evaluated
    without drift for large n.
    """

    __slots__ = ("num", "shift")

    def __init__(self, coeffs: Sequence[int], basis: Sequence[float]):
        if len(coeffs) != len(basis):
            raise ValueError("coefficient/basis length mismatch")
        self.num, self.shift = dyadic_combo(zip(coeffs, map(float, basis)))

    def frac(self) -> float:
        """theta mod 1 as a double."""
        return frac_dyadic(self.num, self.shift)

    def frac_times(self, n: int) -> float:
        """(n * theta) mod 1, exactly reduced."""
        return frac_dyadic(n * self.num, self.shift)

    def is_integral(self) -> bool:
        """True iff theta is exactly an integer: its exact residue is zero
        (frac() can round a residue just below 1 to 0.0)."""
        return (self.num & ((1 << self.shift) - 1)) == 0

    def nearest_residue_times(self, n: int) -> float:
        """n * theta minus its nearest integer, in [-1/2, 1/2], rounded once."""
        r = n * self.num & ((1 << self.shift) - 1)
        return (r - (1 << self.shift) if 2 * r > 1 << self.shift
                else r) / (1 << self.shift)

    def __repr__(self):
        return f"PhaseForm(({self.num},), ({math.ldexp(1.0, -self.shift)!r},))"


def chunk_ranges(n0: int, count: int) -> Iterator[tuple[int, int]]:
    """Split [n0, n0+count) at absolute multiples of CHUNK."""
    n = n0
    end = n0 + count
    while n < end:
        stop = min(end, (n // CHUNK + 1) * CHUNK)
        yield n, stop - n
        n = stop


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
_ABS = np.uint64(0x7FFF_FFFF_FFFF_FFFF)     # a float64's bits but its sign
_INF = np.float64(np.inf).view(np.uint64)  # inf's bits


def _magnitudes(blocks, axis=None):
    """The largest |v| and the least nonzero |v| (inf where there is none)
    of float64 blocks, over each row (axis=1) or over all of them, read from
    the bit patterns with the sign cleared: those order as the magnitudes do
    (NaN above inf), and subtracting one wraps a zero above them all."""
    top = low = None
    for v in blocks:
        m = v.view(np.uint64) & _ABS
        t = m.max(axis=axis)
        m -= 1
        top = t if top is None else np.maximum(top, t)
        low = m.min(axis=axis) if low is None else \
            np.minimum(low, m.min(axis=axis))
        del m
    return top.view(np.float64), (np.minimum(low, _INF - 1) + 1).view(
        np.float64)


def _extract(blocks, sigs):
    """Extraction at one level per sigma in sigs (a per-row column, or one
    scalar for the whole block; sigma + i sigma extracts each part of a
    complex block on its own): each level's exact q sums, the float
    remainder sums, and (two levels) whether r2 is zero."""
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
    rows, then its imaginary rows, are the stacked rows below).

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation I/II", SIAM J. Sci. Comput. 31, 2008).  For a row v of length
    n, take L = ceil(log2(n+2)), a power of two sigma1 >= 2**L max|v|,
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

    Nothing here needs sigma1 to be the least such power of two, so level
    one runs at one sigma1 = 2**(L + E) for the whole block, with the
    block's max|v| < 2**E (np.frexp): every row's max is at most the
    block's.  It runs on x itself, both parts of a complex x at once
    (complex adds act on each part alone), and needs no copy and no
    per-row max: the block's max and least nonzero |v| come from one pass
    over the bit patterns (_magnitudes).  Rows longer than one CHUNK block,
    which are few, take their own max and least in that pass instead.
    Each row then has, with rho = fl(sum r1),
    T = tau1 + sum r1 = s + e + delta, s = fl(tau1 + rho), e its TwoSum
    error (exact) and, in any order, |delta| <= gamma_(n-1) n u sigma1 <
    1.001 * 2**(2L - 106) sigma1 = B/2.  If every nonzero |v| (zeros are
    left out explicitly) is at least 2**(2L + E - 54), delta = 0: those v
    and the q1 are multiples of g = 2**(2L + E - 106), so are the r1, and
    their partial sums stay below n u sigma1 < 2**53 g.  s is then T
    rounded half-even, ties included, as fsum rounds it (T = 0 gives +0.0
    from both: every q1 is a difference, so never -0.0, and tau1 starts at
    +0.0; an all-zero row is such a row).  When the block's least nonzero
    |v| meets that bound, every row is certified so; otherwise each row
    takes the rounding test below, and the rows it leaves take their own
    least nonzero |v| (one pass over those rows only) for this one.
    The rows level one leaves, and every row of a block whose max is
    non-finite or outside [2**-900, 2**900), take their own max (sigma1
    now at the row's E) and go to level two:
    T = tau1 + tau2 + sum r2 = s + e + rho + delta, with s = fl(tau1 +
    tau2), rho = fl(sum r2), |delta| < 1.001 * 2**(3L - 158) sigma1 = B/2;
    if every r2 is zero, T = tau1 + tau2 and s rounds it.

    Otherwise let w = e (level one) or fl(e + rho) (level two), so that
    |T - s| <= |w| (1 + 2u) + |delta|.  The row is accepted when, summed in
    any order, fl(|w| + fl(2**-50 |w|) + B + 2**-1022) < h, half the smaller
    spacing around s.  Each addition loses at most a factor (1 - u), and the
    product's underflow, at most 2**-1075, is absorbed by 2**-1022; so the
    left side is at least |w| (1 + 2**-50)(1 - u)**3 + B (1 - u)**3 >=
    |w| (1 + 2u) + |delta|, and acceptance means |T - s| < h: s is fsum's
    rounding.  Ties (|T - s| = h) and s = 0 (spacing 0) never pass.

    Rows whose max |v| is zero, empty rows included, are +0.0: fsum's
    partials skip zeros (-0.0 too), so that is its value for all of them.
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

    def cols(a):
        return (a[:, i:i + CHUNK] for i in range(0, n, CHUNK))

    def blocks(sel):
        """Columns i to i + CHUNK of the stacked rows sel (ascending), as a
        copy of those rows only."""
        cut = np.searchsorted(sel, rows)
        picks = list(zip(parts, (sel[:cut], sel[cut:] - rows)))
        for i in range(0, n, CHUNK):
            yield np.concatenate([p[r, i:i + CHUNK] for p, r in picks])

    if not x.size:                         # empty rows: fsum's +0.0
        return np.zeros(rows, dtype=x.dtype)
    s, fine = np.zeros(R), np.zeros(R, dtype=bool)
    L = (n + 1).bit_length()               # ceil(log2(n + 2))
    sig = tops = None
    with np.errstate(invalid="ignore", over="ignore"):
        if n > CHUNK:                      # few long rows: each row's max
            tops, lows = map(np.concatenate, zip(*[    # and least here
                _magnitudes(cols(p), axis=1) for p in parts]))
            top, least = tops.max(), lows.min()
        else:                              # the block's, in one reduction
            try:
                views = (x.view(np.float64),)
            except ValueError:             # complex, last axis strided
                views = parts
            top, least = _magnitudes(views)
        if _ROW_FLOOR <= top < _ROW_LIMIT:
            # level one, at one sigma for the whole block, on x itself
            sig = 2.0 ** (np.frexp(top)[1] + L)
            exact = sig * 2.0 ** (L - 54)  # least |v| for exact remainders
            (tau1,), rho, _ = _extract(
                cols(x), [sig if len(parts) == 1 else complex(sig, sig)])
            if len(parts) == 2:
                tau1, rho = (np.concatenate([a.real, a.imag])
                             for a in (tau1, rho))
            if least >= exact:             # every row is exact
                s, fine = tau1 + rho, np.ones(R, dtype=bool)
            else:
                s, fine = _round_test(tau1, rho, 0.0,
                                      sig * 2.0 ** (2 * L - 105))
        sel = (~fine).nonzero()[0]
        if sel.size:                       # the rows' own max and least
            if tops is None:
                top, least = _magnitudes(blocks(sel), axis=1)
            else:
                top, least = tops[sel], lows[sel]
            # level one's exactness case (all-zero rows too), or, with no
            # level one, an all-zero row: fsum's +0.0
            done = top == 0 if sig is None else least >= exact
            fine[sel[done]] = True
            ok = ~done & (top >= _ROW_FLOOR) & (top < _ROW_LIMIT)
            sel, top = sel[ok], top[ok]
        if sel.size:                       # level two at each row's sigma
            sig1 = np.ldexp(1.0, np.frexp(top)[1] + L)[:, None]
            (tau1, tau2), rho, zero = _extract(
                blocks(sel), [sig1, sig1 * 2.0 ** (L - 52)])
            s[sel], cert = _round_test(tau1, tau2, rho,
                                       sig1[:, 0] * 2.0 ** (3 * L - 157))
            fine[sel] = zero | cert
    for i in (~fine).nonzero()[0].tolist():
        s[i] = math.fsum(parts[i // rows][i % rows].tolist())
    if len(parts) == 1:
        return s
    out = np.empty(rows, dtype=np.complex128)
    out.real, out.imag = s[:rows], s[rows:]
    return out


def chunk_means(values_at: Callable[[int, int, int, int], np.ndarray],
                rows: int, checkpoints: Sequence[int],
                tuples: int | None = None) -> np.ndarray:
    """The means (1/N) sum_{n<N} v[r, n] of `rows` value streams at each
    checkpoint N, as a (checkpoints, rows) complex array; values_at(r0, r1,
    n0, cnt) returns v[r0:r1, n0:n0 + cnt].  With `tuples` given, values_at
    yields that many such row blocks, one per tuple, and the means are a
    (checkpoints, tuples, rows) array.

    The spans are chunk_ranges(0, N_last) for any checkpoints.  A span of
    cnt values is requested in slabs of max(1, (CHUNK - 1) // cnt) rows, so
    each block holds fewer than CHUNK values or is one row of a full chunk,
    which bounds the memory a block takes.  One `exact_row_sums` call per
    tuple sums a block's rows, and one more their prefix up to each
    checkpoint inside the span, short of its end.  The mean at N is
    math.fsum over the sums of the spans before N's span and of N's prefix,
    per part, divided by N: it depends on N alone.
    Non-increasing checkpoints raise."""
    inside, prev = {}, 0    # span -> (checkpoint, its prefix length) in it
    for k, cp in enumerate(checkpoints):
        if cp <= prev:
            raise ValidationError("checkpoints must be strictly increasing")
        c, cut = divmod(cp - 1, CHUNK)
        inside.setdefault(c, []).append((k, cut + 1))
        prev = cp
    spans = list(chunk_ranges(0, prev))
    one = tuples is None
    blocks_at = (lambda *span: (values_at(*span),)) if one else values_at
    sums = np.empty((1 if one else tuples, rows, len(spans)),
                    dtype=np.complex128)
    heads = np.empty((len(checkpoints),) + sums.shape[:2], dtype=np.complex128)
    for c, (n0, cnt) in enumerate(spans):
        slab = max(1, (CHUNK - 1) // cnt)
        for r0 in range(0, rows, slab):
            r1 = min(rows, r0 + slab)
            for t, v in enumerate(blocks_at(r0, r1, n0, cnt)):
                sums[t, r0:r1, c] = exact_row_sums(v)
                for k, cut in inside.get(c, ()):
                    heads[k, t, r0:r1] = sums[t, r0:r1, c] if cut == cnt \
                        else exact_row_sums(v[:, :cut])
                del v             # no block outlives its sums
    means = np.empty_like(heads)
    for m, cp, head in zip(means, checkpoints, heads):
        for mt, st, h in zip(m, sums, head):
            folded = exact_row_sums(
                np.column_stack((st[:, :(cp - 1) // CHUNK], h)))
            mt.real, mt.imag = folded.real / cp, folded.imag / cp
    return means[:, 0] if one else means


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
