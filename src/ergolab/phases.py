"""Exact mod-1 phase arithmetic and compensated accumulation.

Every coordinate in this library lives on the half-open unit interval, and
long orbits need phases like frac(n * alpha) for n up to 1e8.  Accumulating
those incrementally in doubles drifts, and reducing n * alpha directly loses
all precision once the product outgrows the mantissa.  The strategy here:

* Inputs (alpha, beta, starting coordinates) are doubles, hence exact binary
  rationals.  Integer combinations of them are reduced mod 1 *exactly* with
  `fractions.Fraction`, then rounded once to a double.
* Orbits are generated in chunks anchored at absolute multiples of a fixed
  chunk size.  The chunk base is reduced exactly; within a chunk only small
  products (offset * step, offset <= chunk) occur, so the worst-case phase
  error stays ~1e-12 over arbitrarily long orbits.  Because bases are
  recomputed from absolute indices, the emitted floats are a pure function of
  the index, independent of how callers slice their requests.
* Sums of orbit values use math.fsum per chunk and math.fsum across chunk
  sums (Shewchuk exact summation), which is deterministic and exceeds the
  accuracy of running Kahan compensation.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    out = x - np.floor(x)
    if isinstance(out, np.ndarray):
        out[out >= 1.0] -= 1.0
        return out
    return out - 1.0 if out >= 1.0 else out


def e(x):
    """exp(2*pi*i*x), elementwise."""
    return np.exp((TWO_PI * 1j) * np.asarray(x)) if isinstance(x, np.ndarray) \
        else complex(math.cos(TWO_PI * x), math.sin(TWO_PI * x))


def frac_fraction(q: Fraction) -> float:
    """Exact q mod 1, rounded once to double, guaranteed in [0, 1)."""
    r = q - (q.numerator // q.denominator)
    out = float(r)
    if out >= 1.0:  # rounding of a fraction just below 1
        out = 0.0
    return out


def frac_combo(terms: Iterable[tuple[int, float]]) -> float:
    """Exact frac(sum of n_i * x_i) for integer n_i and double x_i."""
    acc = Fraction(0)
    for n, x in terms:
        if n:
            acc += n * Fraction(x)
    return frac_fraction(acc)


def combo_fraction(terms: Iterable[tuple[int, float]]) -> Fraction:
    acc = Fraction(0)
    for n, x in terms:
        if n:
            acc += n * Fraction(x)
    return acc


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

    def scaled(self, n: int) -> "PhaseForm":
        return PhaseForm(tuple(n * c for c in self.coeffs), self.basis)

    def fraction(self) -> Fraction:
        return combo_fraction(zip(self.coeffs, self.basis))

    def frac(self) -> float:
        """theta mod 1 as a double."""
        return frac_combo(zip(self.coeffs, self.basis))

    def frac_times(self, n: int) -> float:
        """(n * theta) mod 1, exactly reduced."""
        return frac_combo((n * c, b) for c, b in zip(self.coeffs, self.basis))

    def is_integral(self) -> bool:
        """True iff theta is exactly an integer (as a rational)."""
        return self.fraction().denominator == 1

    def is_zero_form(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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


class MeanAccumulator:
    """Streaming mean of complex values with exact per-chunk summation."""

    __slots__ = ("_re", "_im", "_n")

    def __init__(self):
        self._re: list[float] = []
        self._im: list[float] = []
        self._n = 0

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values)
        self._re.append(math.fsum(v.real))
        self._im.append(math.fsum(v.imag))
        self._n += v.size

    def add_scalar(self, value: complex) -> None:
        self._re.append(value.real)
        self._im.append(value.imag)
        self._n += 1

    @property
    def count(self) -> int:
        return self._n

    def total(self) -> complex:
        return complex(math.fsum(self._re), math.fsum(self._im))

    def mean(self) -> complex:
        if self._n == 0:
            raise ZeroDivisionError("mean of empty accumulator")
        t = self.total()
        return complex(t.real / self._n, t.imag / self._n)
