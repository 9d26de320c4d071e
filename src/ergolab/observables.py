"""Finite character sums: the exact function algebra on the state spaces.

An Observable is a finite sum  f(p) = sum_k c_k e(k . p)  with integer
frequency vectors k and complex coefficients, where e(t) = exp(2*pi*i*t).
On the Heisenberg nilmanifold the frequencies address the (x, y) base
coordinates only; those characters are invariant under the lattice, which is
what makes them well defined on the quotient.

Everything an analytic argument needs is exact here: the Haar integral is
the zero-frequency coefficient, products are convolutions of the frequency
lists, and composition with T^n is again a character sum because every
supported system maps characters to characters (for the torus automorphism
the frequency moves by the transposed matrix power and is overflow-checked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Mapping

import numpy as np

from .errors import DimensionMismatchError, ResourceCapError, ValidationError
from .phases import CHUNK, TWO_PI, format_real, frac_combo

TERM_CAP = 10 ** 6


def _freq_key(k) -> tuple[int, ...]:
    if np.isscalar(k):
        return (int(k),)
    return tuple(int(v) for v in k)


@dataclass(frozen=True)
class Observable:
    """Canonical merged character sum: sorted frequencies, no duplicates,
    exact-zero coefficients dropped."""

    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_dict(dim: int, coeffs: Mapping[tuple[int, ...], complex]) -> "Observable":
        terms = tuple(sorted((k, complex(c)) for k, c in coeffs.items()
                             if c != 0))
        for k, _ in terms:
            if len(k) != dim:
                raise DimensionMismatchError(
                    f"frequency {k} does not have dimension {dim}")
        return Observable(dim, terms)

    @staticmethod
    def character(k, coeff: complex = 1.0) -> "Observable":
        key = _freq_key(k)
        return Observable.from_dict(len(key), {key: coeff})

    @staticmethod
    def constant(c: complex, dim: int) -> "Observable":
        return Observable.from_dict(dim, {(0,) * dim: c})

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def sup_bound(self) -> float:
        """sum |c_k|, an upper bound for the sup norm."""
        return math.fsum(abs(c) for _, c in self.terms)

    def coefficient(self, k) -> complex:
        key = _freq_key(k)
        for kk, c in self.terms:
            if kk == key:
                return c
        return 0.0 + 0.0j

    def __add__(self, other: "Observable") -> "Observable":
        if other.dim != self.dim:
            raise DimensionMismatchError("observable dimension mismatch")
        acc: dict[tuple[int, ...], complex] = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0.0) + c
        return Observable.from_dict(self.dim, acc)

    def __repr__(self):
        return f"Observable({format_observable(self)!r})"


# Beyond this frequency size the float dot product k . x starts losing the
# fractional part of the phase; fall back to exact rational reduction.
_FLOAT_FREQ_LIMIT = 1 << 16


def evaluate(f: Observable, points) -> np.ndarray | complex:
    """f at one point (dim,) or a batch (..., d) with d >= f.dim.

    Extra trailing coordinates (the Heisenberg central coordinate) are
    ignored; characters only read the first f.dim coordinates.

    A value's bits depend only on its point: evaluate(f, batch)[i] is
    evaluate(f, batch[i]) for every batch size, split and memory layout.
    Each phase is the left-to-right sum x_0 k_0 + x_1 k_1 + ... of float64
    products, and each term is c * exp(2 pi i phase) as numpy's complex
    multiply loop rounds it, written over the exp in place except for a
    one-element batch, where numpy's in-place multiply rounds differently;
    a point is a batch of one.  Terms are added in order to 0.0, which
    gives a zeros buffer's bits.  A first term whose coefficient is 1 is
    exp(arg) itself: (1+0j) v + 0.0 has v's bits unless a part of v is
    -0.0, and exp(arg) has no such part (arg's real part is a zero or NaN,
    and 2 pi i * phase adds +0.0 to its imaginary part, so sin never sees
    -0.0)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] < f.dim:
        raise DimensionMismatchError(
            f"point dim {pts.shape[-1]} < observable dim {f.dim}")
    batch = (pts[None] if pts.ndim == 1 else pts)[..., :f.dim]
    out = 0.0 if f.terms else np.zeros(batch.shape[:-1], dtype=np.complex128)
    for i, (k, c) in enumerate(f.terms):
        if max((abs(v) for v in k), default=0) > _FLOAT_FREQ_LIMIT:
            flat = batch.reshape(-1, f.dim)
            phase = np.fromiter(
                (frac_combo(zip(k, row)) for row in flat), dtype=np.float64,
                count=flat.shape[0]).reshape(batch.shape[:-1])
        else:
            phase = batch[..., 0] * float(k[0])
            for j in range(1, f.dim):
                phase += batch[..., j] * float(k[j])
        arg = (TWO_PI * 1j) * phase
        if any(k):
            np.exp(arg, out=arg)
        else:
            # a zero frequency's phase is a signed zero, whose exp keeps
            # the argument's imaginary part and sets the real part to 1.0
            arg.real = 1.0
        if any(k) and c == 1 and i == 0:
            out = arg               # 1 * v + 0.0 is v: no multiply, no add
        else:
            term = np.multiply(c, arg, out=arg if arg.size > 1 else None)
            out = np.add(term, out, out=term)
    return complex(out[0]) if pts.ndim == 1 else out


def integral_haar(f: Observable) -> complex:
    """Exact Haar integral: the zero-frequency coefficient."""
    return f.coefficient((0,) * f.dim)


def conjugate(f: Observable) -> Observable:
    return Observable.from_dict(
        f.dim, {tuple(-v for v in k): c.conjugate() for k, c in f.terms})


def _check_term_pairs(pairs: int) -> None:
    """The cost guard of a product: ResourceCapError when it would touch
    more than TERM_CAP term pairs."""
    if pairs > TERM_CAP:
        raise ResourceCapError(
            f"product would touch {pairs} term pairs (cap {TERM_CAP})")


def multiply(f: Observable, g: Observable) -> Observable:
    """Exact product: convolution of the frequency lists."""
    if f.dim != g.dim:
        raise DimensionMismatchError("observable dimension mismatch")
    _check_term_pairs(f.term_count * g.term_count)
    acc: dict[tuple[int, ...], complex] = {}
    for kf, cf in f.terms:
        for kg, cg in g.terms:
            k = tuple(a + b for a, b in zip(kf, kg))
            acc[k] = acc.get(k, 0.0) + cf * cg
    return Observable.from_dict(f.dim, acc)


def product_integral(f: Observable, g: Observable) -> complex:
    """integral_haar(multiply(f, g)) without the product: the sum of
    c_f(k) c_g(-k) over the terms of f, in multiply's pair order, after
    multiply's checks, so its bits and errors are the product's."""
    if f.dim != g.dim:
        raise DimensionMismatchError("observable dimension mismatch")
    _check_term_pairs(f.term_count * g.term_count)
    coeffs = dict(g.terms)
    acc = 0.0
    for k, c in f.terms:
        cg = coeffs.get(tuple(-v for v in k))
        if cg is not None:
            acc = acc + c * cg
    return complex(acc)


class CompositionRow(dict):
    """compose_term(k, n) of one system at one n, keyed by k: each entry is
    built on its first lookup, through the kind's `composer(n)`, and kept.
    A caller that composes many observables at one n (the Host-Kra
    recursion) holds one row per n and so composes each distinct (k, n)
    once; lookups happen in the order of the uncached calls, so an error
    surfaces at the same (k, n)."""

    __slots__ = ("compose",)

    def __init__(self, system, n: int):
        super().__init__()
        self.compose = system.composer(n)

    def __missing__(self, k):
        self[k] = out = self.compose(k)
        return out


def _check_obs_dim(dim: int, system) -> None:
    if dim != system.obs_dim:
        raise DimensionMismatchError(
            f"observable dim {dim} != system frequency dim {system.obs_dim}")


def compose_with_power(f: Observable, system, n: int,
                       row: CompositionRow | None = None) -> Observable:
    """The exact pullback f o T^n as a character sum on the same space;
    `row`, when given, is the caller's CompositionRow for (system, n)."""
    _check_obs_dim(f.dim, system)
    if row is None:
        row = CompositionRow(system, n)
    acc: dict[tuple[int, ...], complex] = {}
    for k, c in f.terms:
        nk, mult = row[k]
        acc[nk] = acc.get(nk, 0.0) + c * mult
    return Observable.from_dict(f.dim, acc)


def _python_product(ar, ai, br, bi):
    """The parts of the complex product a * b as Python rounds it: float64
    products, then one subtract and one add (numpy's complex multiply fuses
    them and can differ in the last bit)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _multipliers(keys, rows) -> np.ndarray:
    """(K, rows) array: row[-k]'s multiplier for each frequency k of the
    sorted `keys` and each row.  conj(p)'s frequencies are p's negated, so in
    reverse order: they are looked up in that order, row by row, as
    compose_with_power(conjugate(p), ...) looks them up."""
    negs = [tuple(-v for v in k) for k in reversed(keys)]
    mult = np.array([row[k][1] for row in rows for k in negs],
                    dtype=np.complex128).reshape(len(rows), len(keys))
    return mult[:, ::-1].T


def _composed_conjugates(coeffs, mult):
    """(real, imag, kept), each (P, K, n): the term -k of conj(p) o T^n,
    conj(c_k) mult[k, n], for each row p of a (P, K) coefficient table and
    column n of a (K, n) multiplier table; kept marks the nonzero terms,
    which from_dict keeps.  compose_with_power's 0.0 + can only flip a zero
    part's sign, which no product or sum started at 0.0 can see; an absent
    term (c_k = 0) gives 0, multipliers being finite."""
    c = coeffs[:, :, None]
    dr, di = _python_product(c.real, -c.imag, mult.real, mult.imag)
    return dr, di, (dr != 0) | (di != 0)


def phase_products(f: Observable, system, rows: list[CompositionRow]):
    """multiply(f, compose_with_power(conjugate(f), system, n, row)) for
    every row, bit for bit and with the same errors, on a system with a
    phase basis, as phase_correlations' (keys, coeffs, pairs): keys are the
    sorted frequencies k_a - k_j of f's term pairs, coeffs[n] the product's
    coefficients over them (0 where from_dict drops one) and pairs[n] the
    term pairs multiply checks.  The coefficient at k_a - k_j sums c_a times
    the term -k_j of conj(f) o T^n from 0.0 over multiply's pairs (a, b) in
    order, as Python complex products, and skips the dropped terms (masked,
    never multiplied in as zeros, which would turn inf into NaN); the pairs
    of one a meet distinct frequencies, so each a is one masked add.  The
    first row's check runs before any product is built, as multiply's does;
    phase_correlations runs the others in row order."""
    _check_obs_dim(f.dim, system)
    fk = [k for k, _ in f.terms]
    c = np.array([c for _, c in f.terms], dtype=np.complex128)
    mult = _multipliers(fk, rows)
    # Python floats overflow to inf and make NaN silently, so the stacked
    # arithmetic warns no more than the per-h path it reproduces
    with np.errstate(invalid="ignore", over="ignore"):
        gr, gi, kept = (a[0].T for a in _composed_conjugates(c[None], mult))
        pairs = len(fk) * np.count_nonzero(kept, axis=1)
        _check_term_pairs(int(pairs[0]))
        keys = sorted({tuple(map(sub, ka, kb)) for ka in fk for kb in fk})
        pos = {k: i for i, k in enumerate(keys)}
        out = np.zeros((len(rows), len(keys)), dtype=np.complex128)
        acc_r, acc_i = out.real, out.imag
        for ka, ar, ai in zip(fk, c.real.tolist(), c.imag.tolist()):
            cols = [pos[tuple(map(sub, ka, kb))] for kb in fk]
            pr, pi = _python_product(ar, ai, gr, gi)
            acc_r[:, cols] = np.where(kept, acc_r[:, cols] + pr,
                                      acc_r[:, cols])
            acc_i[:, cols] = np.where(kept, acc_i[:, cols] + pi,
                                      acc_i[:, cols])
    return keys, out, pairs


def phase_correlations(dim: int, keys, coeffs: np.ndarray, system,
                       rows: list[CompositionRow],
                       pairs: np.ndarray | None = None) -> np.ndarray:
    """product_integral(p, compose_with_power(conjugate(p), system, n, row))
    for every row p of a (P, K) coefficient table and every row n, as a
    (P, len(rows)) complex array, bit for bit and with the same errors, on a
    system with a phase basis.  Row p is the observable of dimension `dim`
    with coefficient coeffs[p, i] at keys[i] (sorted; 0 is an absent term).
    One observable is the case P = 1; phase_products gives a recursion
    level's rows, with pairs[p], the term pairs of the multiply that made
    row p, checked before the row's own checks.

    There T^n keeps each frequency, so the term -k of conj(p) o T^n is
    conj(c_k) e_n (e_n = row[-k]'s multiplier), and the integral sums c_k
    times it as Python complex products over p's terms in order, from 0.0
    by np.add.accumulate; dropped terms add +0.0, which leaves a sum started
    at +0.0 unchanged.  Every lookup precedes the first term-pair check,
    which the per-n path interleaves; only an error that depends on n could
    tell, and a phase-basis compose_term has none.  The checks run in row
    order, then n order; rows go in slabs of at most CHUNK (row, term, n)
    values, or one row."""
    _check_obs_dim(dim, system)
    mult = _multipliers(keys, rows)
    counts = np.count_nonzero(coeffs, axis=1)
    out = np.empty((len(coeffs), len(rows)), dtype=np.complex128)
    slab = max(1, CHUNK // max(1, len(keys) * len(rows)))
    for p0 in range(0, len(coeffs), slab):
        sl = slice(p0, p0 + slab)
        c = coeffs[sl, :, None]
        # silent as Python floats are, like phase_products
        with np.errstate(invalid="ignore", over="ignore"):
            dr, di, kept = _composed_conjugates(coeffs[sl], mult)
            checks = counts[sl, None] * np.count_nonzero(kept, axis=1)
            if pairs is not None:
                checks = np.column_stack([pairs[sl], checks])
            over = checks[checks > TERM_CAP]    # row-major: the first fails
            if over.size:
                _check_term_pairs(int(over[0]))
            terms = np.zeros((2, len(c), len(keys) + 1, len(rows)))
            tr, ti = _python_product(c.real, c.imag, dr, di)
            terms[0, :, 1:] = np.where(kept, tr, 0.0)
            terms[1, :, 1:] = np.where(kept, ti, 0.0)
            out.real[sl], out.imag[sl] = \
                np.add.accumulate(terms, axis=2)[:, :, -1]
    return out

# ---------------------------------------------------------------------------
# CLI literal syntax:  "re,im:k1,k2[;re,im:k1,k2...]"
# A term may omit ",im" (real coefficient).  Example on the 1-torus:
#   "1,0:1 ; 1,0:-1"  is  e(x) + e(-x).


def parse_observable(text: str, dim: int) -> Observable:
    acc: dict[tuple[int, ...], complex] = {}
    body = text.strip()
    if not body:
        raise ValidationError("empty observable literal")
    for raw in body.split(";"):
        part = raw.strip()
        if not part:
            continue
        try:
            coeff_s, freq_s = part.split(":")
            cparts = [p.strip() for p in coeff_s.split(",")]
            if len(cparts) == 1:
                coeff = complex(float(cparts[0]), 0.0)
            elif len(cparts) == 2:
                coeff = complex(float(cparts[0]), float(cparts[1]))
            else:
                raise ValueError("coefficient needs 1 or 2 components")
            k = tuple(int(p.strip()) for p in freq_s.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad observable term {part!r}: {exc}") from exc
        if len(k) != dim:
            raise DimensionMismatchError(
                f"term {part!r} has {len(k)} frequency components, expected {dim}")
        acc[k] = acc.get(k, 0.0) + coeff
    return Observable.from_dict(dim, acc)


def format_observable(f: Observable) -> str:
    if not f.terms:
        return "0,0:" + ",".join(["0"] * f.dim)
    parts = []
    for k, c in f.terms:
        parts.append(f"{format_real(c.real)},{format_real(c.imag)}:"
                     + ",".join(str(v) for v in k))
    return " ; ".join(parts)
