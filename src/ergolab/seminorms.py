"""Host-Kra seminorm estimation, van der Corput diagnostics, and the
self-joining L2 bound for multilinear averages.

The order-k seminorm is computed through the averaging recursion

    |||f|||_1        = | integral of f |
    |||f|||_{k+1}^{2^{k+1}} = lim_H (1/H) sum_{h=1}^{H} |||f . T^h conj(f)|||_k^{2^k}

with the limit replaced by the value at a declared truncation H (recorded in
the estimate).  The sum starts at h = 1, matching the van der Corput lemma
the recursion comes from; starting at h = 0 would pollute finite truncations
with the constant |f|^2 term that the Cesaro limit kills.

On character sums the inner integrals resolve exactly (the "exact" path);
when the symbolic product algebra would blow past its term cap the estimate
falls back to Monte Carlo: inner integrals become length-N Birkhoff averages
from a seeded Haar start, with products expanded as shift/conjugation lists
evaluated pointwise along one orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .observables import (Observable, compose_with_power, conjugate,
                          evaluate, integral_haar, multiply)
from .phases import (MeanAccumulator, anchored_chunks, chunk_ranges,
                     exact_sum, frac, frac_combo, CHUNK)
from .rng import SplitMix64
from .systems import GOLDEN, DynamicalSystem, orbit_points

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


def _raised_exact(system, f: Observable, order: int, H: int) -> float:
    """|||f|||_order ^ (2^order) along the exact character algebra."""
    if order == 1:
        return abs(integral_haar(f)) ** 2
    vals = []
    for h in range(1, H + 1):
        g = multiply(f, compose_with_power(conjugate(f), system, h))
        vals.append(_raised_exact(system, g, order - 1, H))
    return math.fsum(vals) / H


def _orbit_values(system, f: Observable, x, length: int) -> np.ndarray:
    out = np.empty(length, dtype=np.complex128)
    pos = 0
    for n0, cnt in chunk_ranges(0, length, CHUNK):
        pts = orbit_points(system, x, 1, n0, cnt, coords="obs")
        out[pos:pos + cnt] = evaluate(f, pts)
        pos += cnt
    return out


def _raised_mc(shifts: list[tuple[int, bool]], orbit: np.ndarray,
               order: int, H: int, N: int) -> float:
    """Monte Carlo recursion on shift/conjugation lists.

    A list [(s, c), ...] denotes prod of f(T^{s} .) conjugated when c; its
    inner integral is estimated by the length-N Birkhoff mean along the
    precomputed orbit values of f."""
    if order == 1:
        vals = np.ones(N, dtype=np.complex128)
        for s, c in shifts:
            seg = orbit[s:s + N]
            vals = vals * (np.conj(seg) if c else seg)
        acc = MeanAccumulator()
        acc.add(vals)
        return abs(acc.mean()) ** 2
    vals = []
    for h in range(1, H + 1):
        nxt = shifts + [(s + h, not c) for s, c in shifts]
        vals.append(_raised_mc(nxt, orbit, order - 1, H, N))
    return math.fsum(vals) / H


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
    x0 = system.haar_block(rng, 1)[0]
    orbit = _orbit_values(system, f,
                          x0, _mc_orbit_length(order, outer_h, inner_n))
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
    mean = np.array([complex(exact_sum(xs[:N, c].real) / N,
                             exact_sum(xs[:N, c].imag) / N)
                     for c in range(xs.shape[1])])
    lhs = float(np.sum(np.abs(mean) ** 2))
    terms = []
    for h in range(1, H + 1):
        inner = np.sum(xs[:N] * np.conj(xs[h:h + N]), axis=1)
        terms.append(abs(complex(exact_sum(inner.real) / N,
                                 exact_sum(inner.imag) / N)))
    rhs = math.fsum(terms) / H
    return VdcReport(lhs, rhs, N, H)


def quadratic_phase_block(a: float, length: int, chunk: int = 256) -> np.ndarray:
    """frac(n^2 a) for n < length, chunk-exact (no drift)."""
    out = np.empty(length)
    for pos, anchor, t in anchored_chunks(0, length, chunk):
        b0 = frac_combo([(anchor * anchor, a)])
        b1 = frac_combo([(2 * anchor, a)])
        out[pos:pos + t.size] = frac(b0 + t * b1 + (t * t) * a)
    return out


def vdc_family(name: str, n: int, h: int, alpha: float = GOLDEN) -> np.ndarray:
    """The n + h terms of a van der Corput test sequence: constant,
    e(n alpha) or e(n^2 alpha)."""
    length = n + h
    if name == "constant":
        return np.ones(length, dtype=np.complex128)
    if name == "linear":
        idx = np.arange(length, dtype=np.float64)
        return np.exp(2j * np.pi * frac(idx * alpha))
    if name == "quadratic":
        return np.exp(2j * np.pi * quadratic_phase_block(alpha, length))
    raise ValueError(f"unknown family {name!r}")


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
    sample_count independent d-tuples of Haar starts (a valid self-joining).
    The pointwise stream is vectorized across samples; on hyperbolic systems
    it follows float pseudo-orbits, which shadowing makes statistically
    faithful.
    """
    d = len(fs)
    if d < 1:
        raise ValidationError("need at least one observable")
    if sample_count < 1 or N < 1:
        raise ValidationError("sample_count and N must be >= 1")
    starts = [system.haar_block(rng, sample_count) for _ in range(d)]
    cursors = [s.copy() for s in starts]
    sums = np.zeros(sample_count, dtype=np.complex128)
    comp = np.zeros(sample_count, dtype=np.complex128)  # Kahan compensation
    for n in range(N):
        term = np.ones(sample_count, dtype=np.complex128)
        for j in range(d):
            term = term * evaluate(fs[j], cursors[j])
        y = term - comp
        t = sums + y
        comp = (t - sums) - y
        sums = t
        for j in range(d):
            cursors[j] = system.step(cursors[j], j + 1)
    avg = sums / N
    lhs = math.sqrt(exact_sum(np.abs(avg) ** 2) / sample_count)
    sem = tuple(hk_seminorm(system, f, d, outer_h).value for f in fs)
    rhs = min((l + 1) * s for l, s in enumerate(sem))
    return BoundCheck(lhs, rhs, sem, sample_count, N)
