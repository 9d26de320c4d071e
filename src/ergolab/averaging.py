"""Averaging schemes with dual evaluation paths and convergence diagnostics.

Schemes
-------
birkhoff   (1/N)   sum_n           f(T^n x)
linear     (1/N)   sum_n           prod_j f_j(T^{j n} x)
square     (1/N^2) sum_{n,m}       prod_j f_j(T^{n+(j-1)m} x)
cube       (1/N^k) sum_{n in box}  prod_eps f_eps(T^{n . eps} x)
folner     (1/|B|) sum_{(n,m) in B} f(S1^n S2^m x)

Each scheme has a streamed numerical path: orbit points generated in
anchored chunks, products evaluated pointwise, and means taken by the one
chunked-mean kernel, phases.chunk_means (math.fsum's correctly rounded bits
per chunk and across chunks).  The birkhoff and linear streams are the
one-start case of the streaming self-joining in joinings.py, so integrating
a stored fiber cloud reproduces the streamed average bit for bit.  Where
the term tuples' phases are linear, exact.phase_table groups them by phase,
the square and cube grids factorize exactly into one-dimensional geometric
sums per table entry, and the factorized path streams those sums through
the same kernel; a literal grid walk is kept for every system below a cost
cap and cross-checked against the closed forms in criterion 1.  It reads
one orbit_block over every grid index, gathers each row from one evaluate
per factor and sums the rows with phases.exact_row_sums (math.fsum's bits
per row, folded by one more exact sum); Folner boxes sum their rows the
same way, from one orbit_block per slab of row starts.  The factorized path
shares the phase table with exact.py and streams the geometric sums that
exact.py evaluates in closed form; the orbit streams and the grid walk
share no arithmetic with exact.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (CommutationError, ResourceCapError, ValidationError)
from .exact import grid_mean, obs_coords, phase_table
from .observables import Observable, evaluate
from .joinings import _streamed_start_means
from .phases import (CHUNK, PhaseForm, chunk_means, e, exact_row_sums,
                     exact_sum)
from .rng import SplitMix64
from .systems import DynamicalSystem, _rotate

GRID_CAP = 1 << 24        # direct grid walks refuse beyond this many terms
MAX_CUBE_ORDER = 4


# ---------------------------------------------------------------------------
# Trajectories and diagnostics


@dataclass(frozen=True)
class AverageTrajectory:
    scheme: str
    checkpoints: tuple[tuple[int, complex], ...]
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ns = [n for n, _ in self.checkpoints]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError("checkpoints must be strictly increasing")

    @property
    def final(self) -> complex:
        return self.checkpoints[-1][1]

    @property
    def n_max(self) -> int:
        return self.checkpoints[-1][0]


@dataclass(frozen=True)
class Diagnostic:
    oscillation: float
    last: complex
    tail_count: int
    constant_tail: bool


def geometric_checkpoints(n_max: int, start: int = 1000, ratio: int = 2) -> tuple[int, ...]:
    """Default multiplicatively spaced checkpoint schedule up to n_max."""
    out = []
    n = start
    while n < n_max:
        out.append(n)
        n *= ratio
    out.append(n_max)
    return tuple(out)


def tail_oscillation(checkpoints: Sequence[tuple[int, complex]],
                     tail_fraction: float) -> tuple[float, list[complex]]:
    """(max pairwise distance, values) of the checkpoint values in the tail
    window N >= (1 - tail_fraction) * N_last; the distance is 0.0 when the
    window holds fewer than 2 values."""
    cut = (1.0 - tail_fraction) * checkpoints[-1][0]
    tail = [v for n, v in checkpoints if n >= cut]
    return max((abs(a - b) for i, a in enumerate(tail) for b in tail[i + 1:]),
               default=0.0), tail


def convergence_diagnostic(traj: AverageTrajectory,
                           tail_fraction: float) -> Diagnostic:
    """Max pairwise distance of checkpoint values in the tail window
    N >= (1 - tail_fraction) * N_max."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValidationError("tail_fraction must lie in (0, 1]")
    osc, tail = tail_oscillation(traj.checkpoints, tail_fraction)
    if len(tail) < 3:
        raise ValidationError(
            f"need >= 3 checkpoints in the tail window, found {len(tail)}")
    return Diagnostic(osc, tail[-1], len(tail), osc == 0.0)


# ---------------------------------------------------------------------------
# Streamed products of orbits (birkhoff / linear)


def _streamed_means(system, fs, x, checkpoints) -> list[tuple[int, complex]]:
    """Partial means of prod_j f_j(T^{jn} x) at each checkpoint: the
    one-start streaming self-joining."""
    starts = system.check_point(x)[None, None]
    means = _streamed_start_means(system, starts, list(fs), checkpoints)[:, 0]
    return list(zip(checkpoints, means.tolist()))


def multilinear_average_linear(system: DynamicalSystem, fs: Sequence[Observable],
                               x, N: int) -> complex:
    """(1/N) sum_{n<N} prod_j f_j(T^{j n} x), streamed with one orbit cursor
    per factor."""
    if not fs:
        raise ValidationError("need at least one observable")
    if N < 1:
        raise ValidationError("N must be >= 1")
    return _streamed_means(system, fs, x, [N])[0][1]


def birkhoff_average(system: DynamicalSystem, f: Observable, x, N: int) -> complex:
    """(1/N) sum_{n<N} f(T^n x); identical streaming to the d=1 linear case."""
    return multilinear_average_linear(system, [f], x, N)


def _traj_params(system, fs, x, mode: str) -> dict:
    from .observables import format_observable
    from .systems import system_to_kv
    return {"system": system_to_kv(system),
            "observables": [format_observable(f) for f in fs],
            "start": [float(v) for v in np.atleast_1d(np.asarray(x))],
            "path": mode}


def linear_trajectory(system, fs, x, checkpoints, params=None) -> AverageTrajectory:
    vals = _streamed_means(system, fs, x, list(checkpoints))
    return AverageTrajectory("linear" if len(fs) > 1 else "birkhoff",
                             tuple(vals),
                             params or _traj_params(system, fs, x, "streamed"))


# ---------------------------------------------------------------------------
# Streamed geometric sums (the factorized path's inner loop)


def geometric_mean_streamed(form: PhaseForm, checkpoints: Sequence[int]) -> dict[int, complex]:
    """(1/N) sum_{n<N} e(n*theta) by literal summation, emitted at each
    checkpoint: the rotation from 0 at theta's exact rate (systems._rotate),
    whose chunk bases are reduced exactly, so no drift at any N."""
    start = np.zeros((1, 1))

    def values_at(r0, r1, n0, cnt):
        phase = np.empty((1, cnt, 1))
        _rotate(start, (form.num,), form.shift, 1, n0, cnt, phase)
        return e(phase[:, :, 0])
    means = chunk_means(values_at, 1, checkpoints)
    return dict(zip(checkpoints, means[:, 0].tolist()))


# ---------------------------------------------------------------------------
# Grid averages: (1/N^k) sum_{n in [0,N)^k} prod_j f_j(T^{c_j . n} x)
#
# The square average is the grid [0,N)^2 with c_j = (1, j); the cube
# average is [0,N)^k with c_eps = eps.  Every c_j[0] is 0 or 1.


def _rows_mean(rows_at, rows: int, width: int) -> complex:
    """Mean of a (rows, width) grid whose rows r0:r1 rows_at(r0, r1)
    returns: exact_row_sums over slabs of fewer than CHUNK values (or one
    row), one exact_sum over the row sums, each part divided by the count,
    i.e. math.fsum over the rows' math.fsum, per part."""
    slab = max(1, (CHUNK - 1) // width)
    total = exact_sum(np.concatenate([
        exact_row_sums(rows_at(r0, min(rows, r0 + slab)))
        for r0 in range(0, rows, slab)]))
    return complex(total.real / (rows * width), total.imag / (rows * width))


def _grid_direct(system, fs, coeffs, x, checkpoints) -> list[complex]:
    """Literal grid walk at each checkpoint N: one row of the first
    coordinate per outer index, read when c_j[0] = 1 and a single point
    when c_j[0] = 0.  Every grid index c_j . n is an absolute orbit index,
    and orbit bits depend only on it, so one orbit_block over [0, max c_j .
    n] at the largest checkpoint, one evaluate per factor and a gather give
    every row."""
    k, top = len(coeffs[0]), max(checkpoints, default=1)
    length = max(map(sum, coeffs)) * (top - 1) + 1
    orbit = system.orbit_block(system.check_point(x)[None], 1, 0, length,
                               "obs")[0]
    vals = [evaluate(f, orbit) for f in fs]
    out = []
    for N in checkpoints:
        offsets = []
        for c in coeffs:                  # outer indices in np.ndindex order
            off = np.zeros(1, dtype=np.int64)
            for ci in c[1:]:
                off = (off[:, None] + ci * np.arange(N)).ravel()
            offsets.append(off)
        cols = np.arange(N)

        def rows_at(r0, r1):
            row = np.ones((r1 - r0, N), dtype=np.complex128)
            for v, c, off in zip(vals, coeffs, offsets):
                o = off[r0:r1, None]
                row *= v[o + cols] if c[0] else v[o]
            return row
        out.append(_rows_mean(rows_at, N ** (k - 1), N))
    return out


def _grid_factorized(system, fs, coeffs, x, checkpoints) -> list[tuple[int, complex]]:
    """exact.grid_mean of the phase table with each axis's geometric mean
    streamed at its exact rate; entries with equal rates share a stream."""
    xo = obs_coords(system, x)
    entries = phase_table(system, list(fs), coeffs, xo)
    stream = functools.cache(lambda num, shift: geometric_mean_streamed(
        PhaseForm((num,), (math.ldexp(1.0, -shift),)), checkpoints))
    return [(cp, grid_mean(entries, xo,
                           lambda form: stream(form.num, form.shift)[cp]))
            for cp in checkpoints]


def _grid_means(system, fs, coeffs, x, checkpoints, mode, check_cap):
    """([(checkpoint, grid mean), ...], path taken) for one of the modes
    documented on multilinear_average_square; check_cap(N) raises when the
    direct walk at N exceeds the cost cap."""
    if mode not in ("auto", "direct", "factorized"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "factorized" or (mode == "auto"
                                and system.phase_basis() is not None):
        return _grid_factorized(system, fs, coeffs, x, checkpoints), "factorized"
    for cp in checkpoints:
        check_cap(cp)
    return list(zip(checkpoints, _grid_direct(system, fs, coeffs, x,
                                              checkpoints))), "direct"


def _square_grid(system, fs, x, checkpoints, mode):
    d = len(fs)

    def check_cap(N):
        if d * N * N > GRID_CAP:
            raise ResourceCapError(
                f"direct square grid {N}x{N} (d={d}) exceeds the cost cap; "
                "use a phase-linear system for the factorized path")
    return _grid_means(system, list(fs), [(1, j) for j in range(d)], x,
                       list(checkpoints), mode, check_cap)


def multilinear_average_square(system: DynamicalSystem, fs: Sequence[Observable],
                               x, N: int, mode: str = "auto") -> complex:
    """(1/N^2) sum_{n,m in [0,N)} prod_j f_j(T^{n+(j-1)m} x).

    mode="direct" walks the grid (any system, cost-capped); mode="factorized"
    streams the geometric sums of exact.phase_table (any N) where it is
    linear: every rotation and Heisenberg tuple, and skew tuples whose
    C(t,2) fiber terms sum to integers; it raises ValidationError otherwise.
    "auto" is factorized when the system has a phase_basis, else direct.
    """
    if not fs:
        raise ValidationError("need at least one observable")
    if N < 1:
        raise ValidationError("N must be >= 1")
    vals, _ = _square_grid(system, fs, x, [N], mode)
    return vals[0][1]


def square_trajectory(system, fs, x, checkpoints, mode="auto",
                      params=None) -> AverageTrajectory:
    vals, path = _square_grid(system, fs, x, checkpoints, mode)
    return AverageTrajectory("square", tuple(vals),
                             params or _traj_params(system, fs, x, path))


def cube_eps_index(k: int) -> list[tuple[int, ...]]:
    """{0,1}^k minus the origin, sorted."""
    out = []
    for mask in range(1, 1 << k):
        out.append(tuple((mask >> i) & 1 for i in range(k)))
    return sorted(out)


def cube_average(system: DynamicalSystem,
                 fs_by_eps: dict[tuple[int, ...], Observable],
                 x, N: int, mode: str = "auto") -> complex:
    """(1/N^k) sum over the k-cube of prod_eps f_eps(T^{n . eps} x).

    fs_by_eps must be keyed by every vertex of {0,1}^k except the origin.
    Orders k > 4 are rejected (cost guard).
    """
    if not fs_by_eps:
        raise ValidationError("need at least one cube observable")
    k = len(next(iter(fs_by_eps)))
    if k < 1:
        raise ValidationError("cube order must be >= 1")
    if k > MAX_CUBE_ORDER:
        raise ResourceCapError(f"cube order {k} > {MAX_CUBE_ORDER} rejected")
    if set(fs_by_eps) != set(cube_eps_index(k)):
        raise ValidationError(
            "cube observables must cover {0,1}^k minus the origin exactly")
    if N < 1:
        raise ValidationError("N must be >= 1")

    def check_cap(n):
        if n ** k > GRID_CAP:
            raise ResourceCapError(f"direct cube grid N^{k} exceeds the cost cap")
    eps_list = sorted(fs_by_eps)
    vals, _ = _grid_means(system, [fs_by_eps[eps] for eps in eps_list],
                          eps_list, x, [N], mode, check_cap)
    return vals[0][1]


# ---------------------------------------------------------------------------
# Folner box averages over a Z^2 action


@dataclass(frozen=True)
class FolnerBox:
    """The rectangle [0, n1) x [0, n2) in Z^2."""
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValidationError("box side lengths must be >= 1")

    @property
    def size(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class IteratedMap:
    """T^power as a map in its own right (for the Z^2 actions below)."""
    system: DynamicalSystem
    power: int = 1

    def step(self, p, n: int = 1):
        return self.system.step(p, n * self.power)


def check_commutation(m1: IteratedMap, m2: IteratedMap, tol: float = 1e-10) -> None:
    """Verify S1 S2 = S2 S1 on deterministic sample points."""
    if m1.system.dim != m2.system.dim:
        raise CommutationError("maps act on different state spaces")
    for p in m1.system.haar_block(SplitMix64(0xF01DAB1E), 5):
        a = m1.step(m2.step(p))
        b = m2.step(m1.step(p))
        d = np.abs(a - b)
        d = np.minimum(d, 1.0 - d)
        if d.max() > tol:
            raise CommutationError(
                f"maps fail to commute at {p}: deviation {d.max():.3e}")


def folner_average(action, f: Observable, x, box: FolnerBox) -> complex:
    """(1/|box|) sum_{(n,m) in box} f(S1^n S2^m x) for a commuting pair."""
    m1, m2 = action
    check_commutation(m1, m2)
    if box.size > GRID_CAP:
        raise ResourceCapError(f"box of {box.size} points exceeds the cost cap")
    x = m1.system.check_point(np.asarray(x, dtype=np.float64))
    starts = np.array([m2.step(x, m) for m in range(box.n2)])

    def rows_at(r0, r1):
        return evaluate(f, m1.system.orbit_block(starts[r0:r1], m1.power, 0,
                                                 box.n1, "obs"))
    return _rows_mean(rows_at, box.n2, box.n1)


# ---------------------------------------------------------------------------
# Temperedness (Shulman's condition) for box sequences


def _union_area_shared_corner(lowers: list[tuple[int, int]],
                              hi: tuple[int, int]) -> int:
    """Exact lattice-point count of a union of integer boxes
    [lx, hi_x] x [ly, hi_y] sharing the upper corner."""
    pts = sorted(lowers)
    hix, hiy = hi
    area = 0
    best_ly = None
    # sweep columns left to right; the covered rows in a column are
    # [min ly among boxes whose lx <= column, hiy]
    for i, (lx, ly) in enumerate(pts):
        best_ly = ly if best_ly is None else min(best_ly, ly)
        next_lx = pts[i + 1][0] if i + 1 < len(pts) else hix + 1
        if next_lx > lx:
            area += (min(next_lx, hix + 1) - lx) * (hiy - best_ly + 1)
    return area


def union_of_difference_sets(boxes: Sequence[FolnerBox], n: int) -> int:
    """|union_{k<n} (-F_k) + F_n| exactly (F^{-1} = -F in Z^2)."""
    hi = (boxes[n].n1 - 1, boxes[n].n2 - 1)
    lowers = [(-(boxes[k].n1 - 1), -(boxes[k].n2 - 1)) for k in range(n)]
    if not lowers:
        return 0
    return _union_area_shared_corner(lowers, hi)


def temperedness_margins(boxes: Sequence[FolnerBox], C: float) -> list[tuple[int, int, float]]:
    """Per index n: (n, |union_{k<n}(-F_k)+F_n|, C*|F_n|)."""
    if not boxes:
        raise ValidationError("need at least one box")
    return [(n, union_of_difference_sets(boxes, n), C * boxes[n].size)
            for n in range(len(boxes))]


def is_tempered(boxes: Sequence[FolnerBox], C: float) -> bool:
    """Shulman's condition |union_{k<n} F_k^{-1} F_n| < C |F_n| for all n,
    by exact integer counting."""
    return all(u < bound for _, u, bound in temperedness_margins(boxes, C))
