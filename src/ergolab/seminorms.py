"""Host-Kra seminorm estimation, van der Corput diagnostics, and the
self-joining L2 bound for multilinear averages.

The order-k seminorm is computed through the averaging recursion

    |||f|||_1        = | integral of f |
    |||f|||_{k+1}^{2^{k+1}} = lim_H (1/H) sum_{h=1}^{H} |||f . T^h conj(f)|||_k^{2^k}

with the limit replaced by the value at a declared truncation H (recorded in
the estimate).  The sum starts at h = 1, matching the van der Corput lemma
the recursion comes from; starting at h = 0 would pollute finite truncations
with the constant |f|^2 term that the Cesaro limit kills.

On character sums the inner integrals resolve exactly (the "exact" path).
The last level needs only the Haar integral of f . T^h conj(f), the sum of
c_f(k) c_g(-k) with g = conj(f) o T^h, so it reads that coefficient without
building the product.  On a system with a phase basis (rotations, the
Heisenberg base) T^h keeps every frequency, so the last two levels run for
every h at once, in float64 arrays with the per-h bits and errors: order 3
builds its H products f . T^h conj(f) as one (H, terms) coefficient table
over one sorted frequency list (observables.phase_products), and the last
level takes every product's coefficient for every h in one call
(observables.phase_correlations), an order-2 estimate being its one-row
case; higher orders reach order 3 through multiply.  Skew products and
automorphisms move frequencies and go one h at a time through multiply
and product_integral.  The levels of one recursion compose the same
frequencies with the same powers over and over, so each call holds one
observables.CompositionRow per h and composes each distinct (k, h) once
(on the automorphism, each matrix power A^h is built once).  When the
symbolic product algebra would blow past its term cap (the stacked levels
keep the products' cap checks, in the per-h order) the estimate falls back
to Monte Carlo: inner integrals become length-N Birkhoff averages from a
seeded Haar start, with products expanded as shift/conjugation lists
evaluated pointwise along one orbit.  Its order-2 level also runs for
every h at once: each lag's factors are rows of one sliding_window_view of
the orbit values, multiplied in slabs of max(1, (CHUNK - 1) // N) lags (the
rule of phases.chunk_means and averaging._rows_mean) and summed by one
exact_row_sums per slab.

The van der Corput check writes every lag's products into one buffer (see
van_der_corput_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResourceCapError, ValidationError
from .observables import (CompositionRow, Observable, compose_with_power,
                          conjugate, evaluate, integral_haar, multiply,
                          phase_correlations, phase_products,
                          product_integral)
from .joinings import _streamed_start_means
from .phases import CHUNK, e, exact_row_sums, exact_sum
from .rng import SplitMix64
from .systems import GOLDEN, DynamicalSystem, SkewProduct

DEFAULT_OUTER_H = 30


@dataclass(frozen=True)
class SeminormEstimate:
    order: int
    value: float
    outer_h: int
    inner_n: int | None          # Birkhoff length on the Monte Carlo path
    exact: bool

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError("seminorm value cannot be negative")


def _raised_exact(system, f: Observable, order: int, H: int,
                  rows: list[CompositionRow] | None = None) -> float:
    """|||f|||_order ^ (2^order) along the exact character algebra; the
    order-2 level takes each product's Haar integral by product_integral.
    Every level composes through one CompositionRow per h, so each distinct
    (k, h) of the recursion is composed once.  On a phase basis the last two
    levels run for every h at once: order 2 is one coefficient row of
    phase_correlations, order 3 the H rows of phase_products."""
    if order == 1:
        return abs(integral_haar(f)) ** 2
    if rows is None:
        rows = [CompositionRow(system, h) for h in range(1, H + 1)]
    if order <= 3 and system.phase_basis() is not None:
        if order == 3:
            keys, coeffs, pairs = phase_products(f, system, rows)
        else:                           # f's own terms, one coefficient row
            keys, pairs = [k for k, _ in f.terms], None
            coeffs = np.array([[c for _, c in f.terms]], dtype=np.complex128)
        vals = [math.fsum(abs(v) ** 2 for v in row) / H for row in
                phase_correlations(f.dim, keys, coeffs, system, rows,
                                   pairs).tolist()]
        return vals[0] if order == 2 else math.fsum(vals) / H
    fc = conjugate(f)
    vals = []
    for h, row in enumerate(rows, 1):
        g = compose_with_power(fc, system, h, row)
        if order == 2:
            vals.append(abs(product_integral(f, g)) ** 2)
        else:
            vals.append(_raised_exact(system, multiply(f, g), order - 1, H,
                                      rows))
    return math.fsum(vals) / H


def _raised_mc(shifts: list[tuple[int, bool]], orbit: np.ndarray,
               order: int, H: int, N: int) -> float:
    """Monte Carlo recursion on shift/conjugation lists.

    A list [(s, c), ...] denotes prod of f(T^{s} .) conjugated when c; its
    inner integral is estimated by the length-N Birkhoff mean along the
    precomputed orbit values of f, the factors multiplied into ones(N) in
    list order, each by np.multiply(product, factor).  The order-2 level
    runs for every h at once: lag h appends the factors (s + h, not c),
    rows of one sliding_window_view per factor."""
    if order > 2:
        vals = [_raised_mc(shifts + [(s + h, not c) for s, c in shifts],
                           orbit, order - 1, H, N) for h in range(1, H + 1)]
        return math.fsum(vals) / H
    vals = np.ones(N, dtype=np.complex128)
    for s, c in shifts:
        seg = orbit[s:s + N]
        vals = np.multiply(vals, np.conj(seg) if c else seg)
    if order == 1:
        sums = [exact_sum(vals)]
    else:
        lagged = [sliding_window_view(orbit if c else np.conj(orbit), N)
                  [s + 1:s + H + 1] for s, c in shifts]
        slab, sums = max(1, (CHUNK - 1) // N), []
        for h0 in range(0, H, slab):
            # a copy of vals per lag, not a broadcast: numpy multiplies a
            # one-element broadcast (N = 1, a slab of one lag) in another
            # loop, unfused, which differs in the last bit
            v = np.repeat(vals[None], min(slab, H - h0), axis=0)
            for w in lagged:
                v = np.multiply(v, w[h0:h0 + slab])
            sums += exact_row_sums(v).tolist()
    return math.fsum(abs(complex(t.real / N, t.imag / N)) ** 2
                     for t in sums) / len(sums)


def _mc_orbit_length(order: int, H: int, N: int) -> int:
    # maximal shift accumulated by the recursion: (order-1) levels of +H
    return N + (order - 1) * H + 1


def hk_seminorm(system: DynamicalSystem, f: Observable, order: int,
                outer_h: int = DEFAULT_OUTER_H, inner_n: int | None = None,
                method: str = "auto",
                rng: SplitMix64 | None = None) -> SeminormEstimate:
    """Truncated Host-Kra seminorm of f of the given order.

    method="exact" forces the character-algebra path (raises on term-cap or
    frequency overflow), "monte_carlo" forces the sampled path (needs rng and
    inner_n), "auto" tries exact and falls back on ResourceCapError.
    """
    if order < 1:
        raise ValidationError("seminorm order must be >= 1")
    if outer_h < 1:
        raise ValidationError("outer truncation H must be >= 1")
    if inner_n is not None and inner_n < 1:
        raise ValidationError("inner Birkhoff length N must be >= 1")
    if method not in ("auto", "exact", "monte_carlo"):
        raise ValidationError(f"unknown method {method!r}")
    if method in ("auto", "exact"):
        try:
            raised = _raised_exact(system, f, order, outer_h)
            return SeminormEstimate(order, raised ** (1.0 / (1 << order)),
                                    outer_h, None, True)
        except ResourceCapError:
            if method == "exact" or rng is None or inner_n is None:
                raise  # no sampled fallback was provisioned
    if rng is None or inner_n is None:
        raise ValidationError(
            "monte_carlo seminorm path needs an explicit rng and inner_n")
    x0 = system.haar_block(rng, 1)
    length = _mc_orbit_length(order, outer_h, inner_n)
    orbit = evaluate(f, system.orbit_block(x0, 1, 0, length, "obs")[0])
    raised = _raised_mc([(0, False)], orbit, order, outer_h, inner_n)
    return SeminormEstimate(order, raised ** (1.0 / (1 << order)),
                            outer_h, inner_n, False)


def seminorm_ladder(system: DynamicalSystem, f: Observable, max_order: int,
                    outer_h: int = DEFAULT_OUTER_H,
                    **kw) -> list[tuple[SeminormEstimate, float]]:
    """Estimates for orders 1..max_order with the monotonicity slack
    max(0, value(k) - value(k+1)) recorded next to each step."""
    ests = [hk_seminorm(system, f, k, outer_h, **kw)
            for k in range(1, max_order + 1)]
    out = []
    for i, est in enumerate(ests):
        slack = max(0.0, est.value - ests[i + 1].value) if i + 1 < len(ests) else 0.0
        out.append((est, slack))
    return out


# ---------------------------------------------------------------------------
# Van der Corput finite-truncation diagnostic


@dataclass(frozen=True)
class VdcReport:
    lhs: float            # ||(1/N) sum_n x_n||^2 at truncation N
    rhs: float            # (1/H) sum_{h=1..H} |(1/N) sum_n <x_n, x_{n+h}>|
    n_used: int
    outer_h: int

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def van_der_corput_check(seq, H: int) -> VdcReport:
    """Both sides of the van der Corput inequality at finite truncation.

    seq is a sequence of vectors (array of shape (L,) or (L, m)); the first
    N = L - H entries form the averaged sequence so that every inner product
    <x_n, x_{n+h}> stays in range.  At finite truncation the inequality may
    fail by a vanishing margin; callers flag margin < -eps as a finite-size
    effect, not an error.
    """
    xs = np.asarray(seq, dtype=np.complex128)
    if xs.ndim == 1:
        xs = xs[:, None]
    L = xs.shape[0]
    if H < 1:
        raise ValidationError("H must be >= 1")
    if H >= L:
        raise ValidationError(f"H={H} must be smaller than the sequence length {L}")
    N = L - H

    def mean(v) -> complex:
        t = exact_sum(v)
        return complex(t.real / N, t.imag / N)

    m = xs.shape[1]
    means = np.array([mean(xs[:N, c]) for c in range(m)])
    lhs = float(np.sum(np.abs(means) ** 2))
    # Every lag's products x_n conj(x_{n+h}) go to one buffer, summed over
    # the vector components into one row (the buffer itself when m = 1).
    xc = np.conj(xs)
    prod = np.empty((N, m), dtype=np.complex128)
    row = prod[:, 0] if m == 1 else np.empty(N, dtype=np.complex128)
    terms = []
    for h in range(1, H + 1):
        np.multiply(xs[:N], xc[h:h + N], out=prod)
        if m > 1:
            np.sum(prod, axis=1, out=row)
        terms.append(abs(mean(row)))
    return VdcReport(lhs, math.fsum(terms) / H, N, H)


def vdc_family(name: str, n: int, h: int, alpha: float = GOLDEN) -> np.ndarray:
    """The n + h terms of a van der Corput test sequence: constant,
    e(n alpha) or e(n^2 alpha), the phases (n alpha, n^2 alpha) mod 1 being
    the orbit of (0, 0) under SkewProduct((alpha,), ((2,),), (alpha,))."""
    length = n + h
    if name == "constant":
        return np.ones(length, dtype=np.complex128)
    if name not in ("linear", "quadratic"):
        raise ValueError(f"unknown family {name!r}")
    orbit = SkewProduct((alpha,), ((2,),), (alpha,)).orbit_points(
        np.zeros(2), 1, 0, length)
    return e(orbit[:, int(name == "quadratic")])


# ---------------------------------------------------------------------------
# The self-joining L2 bound (product joining, Monte Carlo left side)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float                       # Monte Carlo L2 norm of the average
    rhs: float                       # min_l l * |||f_l|||_d
    seminorms: tuple[float, ...]
    sample_count: int
    n: int


def multilinear_norm_bound_check(system: DynamicalSystem,
                                 fs: Sequence[Observable],
                                 sample_count: int, N: int,
                                 rng: SplitMix64,
                                 outer_h: int = DEFAULT_OUTER_H) -> BoundCheck:
    """Compare the L2(product-joining) norm of the multilinear average
    against the seminorm bound min_l { l * |||f_l|||_d }.

    The left side averages |(1/N) sum_n prod_j f_j(T^{j n} x_j)|^2 over
    sample_count independent d-tuples of Haar starts (a valid self-joining),
    each average streamed on exact orbit_block rows through
    phases.chunk_means, as the streaming self-joining streams its diagonal
    starts.
    """
    d = len(fs)
    if d < 1:
        raise ValidationError("need at least one observable")
    if sample_count < 1 or N < 1:
        raise ValidationError("sample_count and N must be >= 1")
    starts = np.stack([system.haar_block(rng, sample_count)
                       for _ in range(d)], axis=1)
    avg = _streamed_start_means(system, starts, list(fs), [N])[0]
    lhs = math.sqrt(exact_sum(np.abs(avg) ** 2) / sample_count)
    sem = tuple(hk_seminorm(system, f, d, outer_h).value for f in fs)
    rhs = min((l + 1) * s for l, s in enumerate(sem))
    return BoundCheck(lhs, rhs, sem, sample_count, N)
