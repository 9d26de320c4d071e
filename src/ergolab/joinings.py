"""Empirical self-joinings, fiber measures, and the progression-subtorus
oracle for rotations.

The d-fold self-joining of a system is approximated by the tuple cloud

    { (T^n x_s, T^{2n} x_s, ..., T^{dn} x_s) : s < S, n < N }

over Haar-sampled starts x_s; the fiber measure over a single x is the same
construction with one start.  Clouds are stored as explicit point arrays
(never binned), built one stride at a time for all starts at once
(`orbit_block`, batched on every kind), bit-equal to one orbit per start.

One kernel integrates: `phases.chunk_means` walks CHUNK-anchored spans of
orbit indices and asks for slabs of starts, each factor costing one
`evaluate` call per slab rather than one per start.  `integrate_tensors`
walks a cloud once for a batch of tuples (a character box): each slab
evaluates every distinct non-unit (position, observable) once, builds each
tuple's product from those tables and skips unit factors (`_TensorPlan`),
and `integrate_tensor` is its one-tuple case.  Each start's span sum
is its row's `math.fsum` (per part), one more `exact_row_sums` call folds
the span sums, and each part is divided by N.  A stored cloud reads its
slabs from the point array; the streaming integral builds them on demand
from `_orbit_tuples`, and the streamed multilinear averages of
averaging.py are its one-start case, so integrating a fiber cloud
reproduces the streamed average bit for bit.  The integral against a
multi-start cloud is the mean of the per-start means, math.fsum over starts
of each part.  The barycenter identity (joining integral = average of fiber
integrals) is checked against an independent joint side: one exact sum over
all S*N tuple products, compared within a stated rounding bound
(`decompose_cloud`).

For an ergodic rotation the weak limit of the cloud is Haar measure on the
arithmetic-progression subtorus {(y, y+b, ..., y+(d-1)b)}, so the limit of a
tensor character integral is known in closed form; `ap_subtorus_integral`
and `ap_fiber_integral` are that oracle.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ResourceCapError, ValidationError
from .observables import Observable, evaluate
from .phases import CHUNK, chunk_means, e, exact_sum
from .rng import SplitMix64
from .systems import DynamicalSystem, system_to_kv

CLOUD_CAP = 10 ** 7   # tuples; beyond this, use the streaming integral


@dataclass(frozen=True)
class CloudProvenance:
    scheme: str                  # "diagonal-pushforward" | "fiber-orbit"
    system: dict
    d: int
    n: int
    seed: int | None
    starts: int


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted tuple cloud on X^d.

    points has shape (starts, N, d, state_dim); total mass 1 with weight
    1/(starts*N) per tuple."""

    points: np.ndarray
    provenance: CloudProvenance

    @property
    def arity(self) -> int:
        return self.points.shape[2]

    @property
    def tuple_count(self) -> int:
        return self.points.shape[0] * self.points.shape[1]


def _orbit_tuples(system, starts: np.ndarray, d: int, n0: int, count: int,
                  coords: str = "state") -> np.ndarray:
    """(S, count, d, dim) array of T^{jn} x_{s,j} for n in [n0, n0+count):
    one `orbit_block` per stride j.  starts is (S, d, dim), factor j
    starting at starts[:, j - 1]; diagonal tuples pass (S, 1, dim)."""
    dim = system.dim if coords == "state" else system.obs_dim
    starts = np.broadcast_to(starts, (starts.shape[0], d, starts.shape[-1]))
    pts = np.empty((starts.shape[0], count, d, dim))
    for j in range(1, d + 1):
        system.orbit_block(starts[:, j - 1], j, n0, count, coords,
                           out=pts[:, :, j - 1])
    return pts


def _build_cloud(system, starts: np.ndarray, d: int, N: int,
                 scheme: str, seed: int | None) -> EmpiricalMeasure:
    S = starts.shape[0]
    if S * N > CLOUD_CAP:
        raise ResourceCapError(
            f"cloud of {S * N} tuples exceeds the {CLOUD_CAP} cap; "
            "use self_joining_tensor_integral for streaming integration")
    pts = _orbit_tuples(system, starts[:, None], d, 0, N)
    prov = CloudProvenance(scheme, system_to_kv(system), d, N, seed, S)
    return EmpiricalMeasure(pts, prov)


def empirical_self_joining(system: DynamicalSystem, d: int,
                           x_sample_count: int, N: int,
                           rng: SplitMix64) -> EmpiricalMeasure:
    """Tuple cloud approximating the d-fold self-joining, from Haar starts."""
    if d < 1 or N < 1 or x_sample_count < 1:
        raise ValidationError("d, N and x_sample_count must be >= 1")
    seed = rng.seed
    starts = system.haar_block(rng, x_sample_count)
    return _build_cloud(system, starts, d, N, "diagonal-pushforward", seed)


def fiber_measure(system: DynamicalSystem, x, d: int, N: int) -> EmpiricalMeasure:
    """The empirical fiber measure over x: the single-start orbit cloud."""
    if d < 1 or N < 1:
        raise ValidationError("d and N must be >= 1")
    x = system.check_point(np.asarray(x, dtype=np.float64))
    return _build_cloud(system, x[None, :], d, N, "fiber-orbit", None)


def _is_unit(f: Observable) -> bool:
    """f is e(0 . x) with coefficient == 1 (1 - 0j included)."""
    return len(f.terms) == 1 and f.terms[0][1] == 1 and not any(f.terms[0][0])


def _finite(vals: np.ndarray) -> bool:
    """Every part of vals is finite (an overflowing sum reads as not)."""
    return math.isfinite(np.add.reduce(vals.reshape(-1).view(np.float64)))


class _TensorPlan:
    """The products prod_j f_j(x_j) of a batch of tuples fs over tuple
    blocks, each distinct non-unit (position, observable) evaluated once per
    block, on first use, and dropped after its last.

    A unit factor, e(0 . x) with coefficient == 1, is skipped: with finite
    values, z * (1 + 0j) differs from z only in the sign of a zero part,
    which no exact sum sees.  The other factors are multiplied in factor
    order, into the first one's array when no other tuple of the batch reads
    it and the block holds more than one value (numpy rounds a one-value
    product in place its own way; evaluate's rule), so a product's bits
    depend on its index alone.  Only an all-unit tuple gets a ones buffer.
    A product that is not all finite, or a block whose coordinates under a
    skipped unit are not all finite, is built as ones * f_1 * ... * f_d
    with every factor, since (inf + 0j) * (1 + 0j) = inf + nanj."""

    def __init__(self, fs_list: Sequence[Sequence[Observable]]):
        index: dict = {}
        self.fs_list = fs_list
        self.tuples = [[index.setdefault((j, f), len(index))
                        for j, f in enumerate(fs) if not _is_unit(f)]
                       for fs in fs_list]
        self.factors = list(index)
        self.last = {i: t for t, idx in enumerate(self.tuples) for i in idx}
        shared = Counter(i for idx in self.tuples for i in idx)
        self.own = [bool(idx) and shared[idx[0]] == 1 for idx in self.tuples]
        self.units: dict[int, int] = {}      # position -> widest unit dim
        for fs in fs_list:
            for j, f in enumerate(fs):
                if _is_unit(f):
                    self.units[j] = max(self.units.get(j, 0), f.dim)

    def products(self, pts: np.ndarray):
        """Yield each tuple's products over an (S, count, d, dim) block."""
        for dim in self.units.values():
            if dim > pts.shape[-1]:
                raise DimensionMismatchError(
                    f"point dim {pts.shape[-1]} < observable dim {dim}")
        skip_units = all(np.isfinite(pts[:, :, j, :dim]).all()
                         for j, dim in self.units.items())
        tables: dict[int, np.ndarray] = {}
        for t, (fs, idx) in enumerate(zip(self.fs_list, self.tuples)):
            vals = None
            if skip_units and not idx:          # every factor a unit
                vals = np.ones(pts.shape[:2], dtype=np.complex128)
            elif skip_units:
                for k, i in enumerate(idx):
                    if i not in tables:
                        j, f = self.factors[i]
                        tables[i] = evaluate(f, pts[:, :, j])
                    vals = tables[i] if k == 0 else np.multiply(
                        vals, tables[i], out=vals if vals.size > 1 and (
                            self.own[t] or k > 1) else None)
                    if self.last[i] == t:
                        del tables[i]
                if not _finite(vals):
                    vals = None
            if vals is None:
                vals = np.ones(pts.shape[:2], dtype=np.complex128)
                for j, f in enumerate(fs):
                    vals = np.multiply(vals, evaluate(f, pts[:, :, j]),
                                       out=vals if vals.size > 1 else None)
            yield vals


def _tensor_values(fs: Sequence[Observable], pts: np.ndarray) -> np.ndarray:
    """prod_j f_j(x_j) over an (S, count, d, dim) tuple block: the one-tuple
    case of _TensorPlan."""
    return next(_TensorPlan([fs]).products(pts))


def _streamed_start_means(system, starts: np.ndarray, fs: Sequence[Observable],
                          checkpoints: Sequence[int]) -> np.ndarray:
    """(checkpoints, S) means over n < N of prod_j f_j(T^{jn} x_{s,j}),
    starts as in _orbit_tuples: the streaming self-joining, whose slabs are
    built on demand, so memory stays within CHUNK tuples."""
    d = len(fs)

    def values_at(s0, s1, n0, cnt):
        return _tensor_values(fs, _orbit_tuples(system, starts[s0:s1], d, n0,
                                                cnt, coords="obs"))
    return chunk_means(values_at, starts.shape[0], checkpoints)


def _mean(values: np.ndarray) -> complex:
    return complex(math.fsum(values.real.tolist()) / len(values),
                   math.fsum(values.imag.tolist()) / len(values))


# A batch's row sums (16 bytes per start, tuple and span) and slab tables
# (at most CHUNK values of 16 bytes per distinct non-unit factor) together
# stay within this many bytes; a batch holds at least one tuple.
_BATCH_BYTES = 1 << 24


def _batches(fs_list, row_bytes: int):
    """Consecutive slices of fs_list whose row sums (row_bytes per tuple)
    and slab tables fit in _BATCH_BYTES."""
    lo, used, seen = 0, 0, set()
    for t, fs in enumerate(fs_list):
        keys = {(j, f) for j, f in enumerate(fs) if not _is_unit(f)}
        if t > lo and used + row_bytes + 16 * CHUNK * len(keys - seen) \
                > _BATCH_BYTES:
            yield slice(lo, t)
            lo, used, seen = t, 0, set()
        used += row_bytes + 16 * CHUNK * len(keys - seen)
        seen |= keys
    if fs_list:
        yield slice(lo, len(fs_list))


def integrate_tensors(m: EmpiricalMeasure,
                      fs_list: Sequence[Sequence[Observable]]) -> list[complex]:
    """integrate_tensor(m, fs) for every tuple fs of fs_list, bit for bit,
    in one walk over the cloud per batch of tuples: each slab evaluates each
    distinct non-unit (position, observable) once (see _TensorPlan).  Batches
    keep the row sums and slab tables within _BATCH_BYTES (16 MiB); nothing
    is kept across calls."""
    S, N = m.points.shape[:2]
    out: list[complex] = []
    for batch in _batches(fs_list, 16 * S * -(-N // CHUNK)):
        out += map(_mean, _cloud_means(m, fs_list[batch]))
    return out


def integrate_tensor(m: EmpiricalMeasure, fs: Sequence[Observable]) -> complex:
    """Integral of f_1(x_1)...f_d(x_d) against the cloud: the mean over
    starts of the per-start orbit means."""
    return integrate_tensors(m, [fs])[0]


def _cloud_means(m: EmpiricalMeasure, fs_list,
                 products: np.ndarray | None = None) -> np.ndarray:
    """Per-start means of each tuple of fs_list, as a (tuples, S) complex
    array, from one chunk_means walk over the cloud; if given, `products`
    (shape (tuples, S, N)) receives every tuple's products."""
    for fs in fs_list:
        if len(fs) != m.arity:
            raise DimensionMismatchError(
                f"{len(fs)} observables for arity-{m.arity} cloud")
    S, N = m.points.shape[:2]
    plan = _TensorPlan(fs_list)

    def values_at(s0, s1, n0, cnt):
        vals = plan.products(m.points[s0:s1, n0:n0 + cnt])
        for t, v in enumerate(vals):
            if products is not None:
                products[t, s0:s1, n0:n0 + cnt] = v
            yield v
    return chunk_means(values_at, S, [N], len(fs_list))[0]


def self_joining_tensor_integral(system: DynamicalSystem, d: int,
                                 x_sample_count: int, N: int,
                                 rng: SplitMix64,
                                 fs: Sequence[Observable]) -> complex:
    """integrate_tensor(empirical_self_joining(...), fs) without holding the
    cloud in memory; for tuple counts beyond the cap."""
    if len(fs) != d:
        raise DimensionMismatchError(f"{len(fs)} observables for arity {d}")
    starts = system.haar_block(rng, x_sample_count)[:, None]
    return _mean(_streamed_start_means(system, starts, fs, [N])[0])


# ---------------------------------------------------------------------------
# Progression-subtorus oracle (ergodic rotations)


def _freqs(ks) -> list[tuple[int, ...]]:
    out = []
    for k in ks:
        out.append((int(k),) if np.isscalar(k) else tuple(int(v) for v in k))
    if len({len(k) for k in out}) != 1:
        raise DimensionMismatchError("frequency vectors of mixed dimension")
    return out


def ap_subtorus_integral(ks) -> complex:
    """Limit of the tensor character integral against the d-fold
    self-joining of an ergodic rotation.

    The joining is Haar measure on {(y, y+b, ..., y+(d-1)b)}; integrating
    e(k_1 x_1)...e(k_d x_d) over (y, b) gives 1 iff sum k_j = 0 and
    sum (j-1) k_j = 0, else 0."""
    kk = _freqs(ks)
    dim = len(kk[0])
    K = tuple(sum(k[c] for k in kk) for c in range(dim))
    M = tuple(sum(j * k[c] for j, k in enumerate(kk)) for c in range(dim))
    return 1.0 + 0.0j if not any(K) and not any(M) else 0.0 + 0.0j


def ap_fiber_integral(ks, x) -> complex:
    """Limit of the tensor character integral against the fiber measure over
    x for an ergodic rotation: the orbit closure of (x, ..., x) under
    T x T^2 x ... x T^d is {(x+t, x+2t, ..., x+dt)}, so the value is
    e((sum k_j) . x) when sum j*k_j = 0, else 0."""
    kk = _freqs(ks)
    dim = len(kk[0])
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))[:dim]
    r = tuple(sum((j + 1) * k[c] for j, k in enumerate(kk))
              for c in range(dim))
    if any(r):
        return 0.0 + 0.0j
    K = tuple(sum(k[c] for k in kk) for c in range(dim))
    phase = math.fsum(kc * xc for kc, xc in zip(K, x))
    return e(phase - math.floor(phase))


def character_box(d: int, kmax: int, dim: int = 1) -> list[tuple]:
    """All d-tuples of frequency vectors with sup norm <= kmax."""
    from itertools import product as iproduct
    singles = [k if dim > 1 else k[0]
               for k in iproduct(range(-kmax, kmax + 1), repeat=dim)]
    return list(iproduct(singles, repeat=d))


# ---------------------------------------------------------------------------
# Decomposition consistency (barycenter identity + dispersion)


@dataclass(frozen=True)
class DecompositionReport:
    joining_integral: complex  # pooled: one exact sum over all S*N tuples
    barycenter: complex        # mean of the per-start fiber integrals
    fiber_values: tuple[complex, ...]
    dispersion: float          # population std of the fiber integrals
    bound: float               # rounding bound on |joint - barycenter| per part

    @property
    def gap(self) -> float:
        d = self.joining_integral - self.barycenter
        return float(np.max(np.abs([d.real, d.imag])))   # nan propagates

    @property
    def exact_match(self) -> bool:
        """The two sides agree up to rounding, i.e. their exact values are
        equal."""
        return self.gap <= self.bound


def decomposition_consistency(system: DynamicalSystem, x_sample_count: int,
                              d: int, N: int, fs: Sequence[Observable],
                              rng: SplitMix64) -> DecompositionReport:
    """Check that the cloud integral equals the average of its per-start
    fiber integrals, and report how the fiber integrals disperse across
    starts.

    Zero dispersion is the ergodic (start-independent) situation; large
    dispersion exhibits the non-ergodicity of the self-joining under the
    staggered diagonal action that the fiber decomposition resolves."""
    cloud = empirical_self_joining(system, d, x_sample_count, N, rng)
    return decompose_cloud(cloud, fs)


def decompose_cloud(cloud: EmpiricalMeasure,
                    fs: Sequence[Observable]) -> DecompositionReport:
    """decomposition_consistency for an existing cloud.

    The barycenter is the mean of the per-start fiber integrals (chunk fsum,
    fsum across chunks, / N, then fsum over starts, / S).  The joint side
    sums the same S*N tuple products v in one exact_sum and divides by S*N.
    Exactly, both equal sum(v) / (S*N).  With u = 2**-53 and A = sum |v|,
    each correctly rounded step adds at most u times its operand's bound:
    the per-start chain 3u A_s / N, the sum over starts and the division by
    S 2u A / (S*N), the pooled sum and its division 2u A / (S*N); below the
    normal range each of these seven steps adds at most 2**-1075.  So per
    real and imaginary part

        |joint - barycenter| <= 7u mean|v| + O(u**2) + 7 * 2**-1075,

    and the check allows 8u mean|v| + 2**-1072, which also covers the
    rounding of mean|v| itself."""
    S, N = cloud.points.shape[:2]
    products = np.zeros((S, N), dtype=np.complex128)
    means = _cloud_means(cloud, [fs], products[None])[0]
    bary = _mean(means)
    pooled = exact_sum(products)
    joint = complex(pooled.real / (S * N), pooled.imag / (S * N))
    bound = 2.0 ** -50 * float(np.abs(products).mean()) + 2.0 ** -1072
    fibers = means.tolist()
    disp = math.sqrt(math.fsum(abs(v - bary) ** 2 for v in fibers)
                     / len(fibers))
    return DecompositionReport(joint, bary, tuple(fibers), disp, bound)


# ---------------------------------------------------------------------------
# Binary cloud dump
#
# Layout (little endian): header of four uint64 {d, N, count, seed}, then
# count * d * state_dim float64 in C order (tuple index, coordinate j,
# state component).  seed is 0 for fiber clouds.  The state dimension is
# recovered from the file size.


def dump_cloud(m: EmpiricalMeasure, path) -> None:
    S, N, d, dim = m.points.shape
    seed = m.provenance.seed or 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4Q", d, N, S * N, seed))
        fh.write(m.points.reshape(S * N, d, dim).astype("<f8").tobytes(order="C"))


def load_cloud(path) -> tuple[np.ndarray, dict]:
    """A dump's (count, d, dim) points and header; a short header, a zero d
    or count, or a body of no whole dim >= 1 is a ValidationError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    d, N, count, seed = struct.unpack("<4Q", raw[:32].ljust(32, b"\0"))
    row = 8 * count * d                  # body bytes per state coordinate
    if row == 0 or len(raw) <= 32 or (len(raw) - 32) % row:
        raise ValidationError("corrupt cloud dump")
    pts = np.frombuffer(raw, dtype="<f8", offset=32).reshape(count, d, -1)
    return pts, {"d": d, "n": N, "count": count, "seed": seed}
