"""Concrete invertible measure-preserving systems on explicit state spaces.

Four kinds of the one `DynamicalSystem` protocol are provided, all with
coordinates stored as doubles in [0, 1):

* ``Rotation``           -- x |-> x + alpha on the m-torus.
* ``SkewProduct``        -- (y, g) |-> (y + alpha, g + B y + c) on a base
                            torus times a fiber torus (an affine cocycle
                            extension with integer linear part, so characters
                            stay characters under composition).
* ``ToralAutomorphism``  -- x |-> A x with A an integer unimodular matrix.
* ``HeisenbergTranslation`` -- left translation by t = (alpha, beta, 0) on
                            the Heisenberg nilmanifold G/Gamma, in fundamental
                            -domain coordinates [0,1)^3 with group law
                            (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y').

Every map reduces back into the fundamental domain after each arithmetic
step.  Powers T^n use closed forms (rotation: x + n*alpha; automorphism:
exact integer matrix powers; Heisenberg: t^n = (n a, n b, C(n,2) a b)),
reduced exactly by phases.dyadic_combo (a double is an integer over a power
of two) so that arbitrarily large n loses no precision.  Orbit segments are
generated in chunks anchored at absolute indices (see phases.py), which
makes the emitted floats a pure function of the orbit index -- two callers
asking for overlapping ranges get bit-equal points.

Orbits have one entry point, `DynamicalSystem.orbit_block`: a kind
implements `_orbits`, which fills the rows of all starts at once, and
`orbit_points` is the one-start case (each kind binds it in its class body,
where perfbench's tracer wraps it per kind).  `_rotate` builds every
rotation-type column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .phases import (CHUNK, anchored_chunks, dyadic_combo, e, format_real,
                     frac, frac_combo)
from .rng import SplitMix64

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0
SQRT3_M1 = math.sqrt(3.0) - 1.0

# In-chunk index products for quadratic-phase systems stay below this bound
# so the float error per position remains ~1e-11.
_QUAD_CHUNK_SPAN = 1024


def _as_float_tuple(v) -> tuple[float, ...]:
    out = (float(v),) if np.isscalar(v) else tuple(float(x) for x in v)
    _check_finite(out, "system parameter")
    return out


def _as_int_matrix(m) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in m)


def _check_finite(arr, what: str = "coordinate") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"non-finite {what}")


def parse_number(key: str, text: str, conv=float):
    """One number of a config value; malformed text is a ValidationError
    naming the key."""
    try:
        return conv(text)
    except ValueError:
        raise ValidationError(f"{key}: malformed number {text!r}") from None


def parse_numbers(key: str, text: str, conv=float) -> list:
    """The whitespace-separated numbers of a config value; at least one."""
    if not text.split():
        raise ValidationError(f"{key}: empty number list")
    return [parse_number(key, v, conv) for v in text.split()]


def _quad_chunk(stride: int) -> int:
    return max(1, _QUAD_CHUNK_SPAN // max(1, abs(stride)))


def binom2(n: int) -> int:
    """n*(n-1)/2 for any integer n (exact)."""
    return (n * (n - 1)) // 2


# ---------------------------------------------------------------------------
# Heisenberg group primitives


def heisenberg_mul(g, h):
    """Group law (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y'), unreduced."""
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def heisenberg_inv(g):
    return (-g[0], -g[1], -g[2] + g[0] * g[1])


def reduce_mod_lattice(g) -> np.ndarray:
    """Canonical representative of g*Gamma in [0,1)^3.

    The reducing lattice element (a, b, c) is chosen in the fixed order
    a = -floor(x), b = -floor(y), c = -floor(z + x*b); right multiplication
    gives (x+a, y+b, z+c+x*b).  The representative is unique, so any two
    raw triples in the same coset reduce to the same point.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[-1] != 3:
        raise DimensionMismatchError("Heisenberg point needs 3 coordinates")
    _check_finite(g)
    x, y, z = g[..., 0], g[..., 1], g[..., 2]
    b = -np.floor(y)
    out = np.stack([frac(x), y + b, frac(z + x * b)], axis=-1)
    # y + b can round to 1.0 when y is barely below an integer
    out[..., 1] = frac(out[..., 1])
    return out


def lattice_translate_witness(raw) -> tuple[int, int, int]:
    """The integer (a, b, c) the canonical reduction multiplies raw by."""
    x, y, z = float(raw[0]), float(raw[1]), float(raw[2])
    a = -math.floor(x)
    b = -math.floor(y)
    c = -math.floor(z + x * b)
    return (a, b, c)


# ---------------------------------------------------------------------------
# System kinds


class DynamicalSystem:
    """The protocol every system kind implements.

    A kind declares its config name `kind`, its state dimension `dim`,
    `step` and `_orbits` (the closed-form powers, for all starts at once,
    reached through `orbit_block`; each class body also binds
    `orbit_points`, its one-start case, which perfbench's tracer wraps per
    kind), its action on one character, `kv_items` / `from_kv` (its config
    keys, all listed in `keys`) and `certify` (its ergodicity decision).
    Adding a kind takes one subclass and one `_KINDS` entry.  A polynomial
    kind states its character action once, in `character_action`, which
    `compose_term` and the closed forms and factorized grids read; the
    automorphism overrides `compose_term` instead.
    """

    kind: str
    keys: tuple[str, ...]

    @property
    def obs_dim(self) -> int:
        """Number of coordinates observables read."""
        return self.dim

    def check_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if p.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"point dim {p.shape[-1:]} != {self.kind} dim {self.dim}")
        _check_finite(p)
        return p

    def haar_block(self, rng: SplitMix64, count: int) -> np.ndarray:
        """count points of the invariant measure as rows; advances rng."""
        return rng.unit_block(count * self.dim).reshape(count, self.dim)

    def phase_basis(self) -> tuple[float, ...] | None:
        """Rotation rates of the characters when composition with T^n keeps
        the frequency and multiplies by a phase linear in n; None otherwise."""
        return None

    def character_action(self, k: tuple[int, ...]) -> tuple[tuple[int, ...], list, list]:
        """(f, theta, kappa) with chi_k(T^t x) = e(k.x + t (f.x + theta)
        + C(t,2) kappa) for every integer t: f an integer vector, theta and
        kappa dyadic_combo term lists.  Here f = 0 and kappa = [], from
        phase_basis; a kind without a polynomial action raises."""
        basis = self.phase_basis()
        if basis is None:
            raise ValidationError(
                f"the {self.kind} system has no polynomial character action")
        return (0,) * self.obs_dim, list(zip(k, basis)), []

    def compose_term(self, k: tuple[int, ...], n: int) -> tuple[tuple[int, ...], complex]:
        """chi_k o T^n = e(phase) chi_{k + n f}, as (k + n f, e(phase))."""
        f, theta, kappa = self.character_action(k)
        phase = frac_combo([(n * m, b) for m, b in theta]
                           + [(binom2(n) * m, b) for m, b in kappa])
        return tuple(ki + n * fi for ki, fi in zip(k, f)), e(phase)

    def orbit_block(self, starts, stride: int, n0: int, count: int,
                    coords: str = "state", out: np.ndarray | None = None
                    ) -> np.ndarray:
        """T^{stride*n} x for n in [n0, n0+count) and each start row x, as an
        (S, count, columns) array filled by the kind's `_orbits`; writes
        into `out` when given and returns it."""
        starts = self.check_point(starts)
        if out is None:
            cols = self.dim if coords == "state" else self.obs_dim
            out = np.empty((starts.shape[0], count, cols))
        self._orbits(starts, stride, n0, count, coords, out)
        return out

    def orbit_points(self, x, stride: int, n0: int, count: int,
                     coords: str = "state") -> np.ndarray:
        """The one-start case of orbit_block, as a (count, columns) array."""
        return self.orbit_block(self.check_point(x)[None], stride, n0, count,
                                coords)[0]


def _slabs(starts, n0: int, count: int, chunk: int):
    """(rows, cols, anchor, t, pts) for each slab of start rows and each
    anchored chunk of [n0, n0+count): out[rows, cols] is the part to fill
    and pts the slab's starts.  Slabs keep temporaries within CHUNK values."""
    rows = CHUNK // min(max(count, 1), chunk)
    for r0 in range(0, len(starts), rows):
        pts = starts[r0:r0 + rows].tolist()
        for pos, anchor, t in anchored_chunks(n0, count, chunk):
            yield (slice(r0, r0 + rows), slice(pos, pos + t.size), anchor, t,
                   pts)


def _rotate(starts, alpha, stride: int, n0: int, count: int, out,
            chunk: int = CHUNK) -> None:
    """Rotation-type columns, out[:, i, c] = frac(starts[:, c] + (n0 + i)
    * stride * alpha[c]): the stride phase is reduced once per coordinate
    and each chunk base once per (start, anchor, coordinate), so a row's
    bits do not depend on the other starts."""
    steps = [frac_combo([(stride, a)]) for a in alpha]
    for rows, cols, anchor, t, pts in _slabs(starts, n0, count, chunk):
        for c, (a, step) in enumerate(zip(alpha, steps)):
            base = [frac_combo([(1, x[c]), (stride * anchor, a)]) for x in pts]
            out[rows, cols, c] = frac(np.array(base)[:, None] + t * step)


@dataclass(frozen=True)
class Rotation(DynamicalSystem):
    """Translation by a fixed vector on the m-torus, Haar = Lebesgue."""

    kind = "rotation"
    keys = ("alpha",)
    alpha: tuple[float, ...]

    def __init__(self, alpha):
        object.__setattr__(self, "alpha", _as_float_tuple(alpha))

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def step(self, p, n: int = 1) -> np.ndarray:
        p = self.check_point(p)
        shift = np.array([frac_combo([(n, a)]) for a in self.alpha])
        return frac(p + shift)

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        _rotate(starts, self.alpha, stride, n0, count, out)

    def phase_basis(self) -> tuple[float, ...]:
        return self.alpha

    def kv_items(self):
        return [("alpha", " ".join(format_real(a) for a in self.alpha))]

    @classmethod
    def from_kv(cls, kv):
        return cls(parse_numbers("alpha", kv["alpha"]))

    def certify(self, bound: int) -> tuple[str, str]:
        """Ergodic iff no integer vector k with ||k||_inf <= bound has
        k . alpha integral (tolerance 1e-12, confirmed in exact arithmetic)."""
        k = _rotation_resonance(self.alpha, bound)
        if k is None:
            return ("ergodic",
                    f"no integer relation k.alpha in Z with ||k||inf <= {bound}")
        return "non-ergodic", f"resonant frequency k={k}"


@dataclass(frozen=True)
class SkewProduct(DynamicalSystem):
    """Affine cocycle extension of a torus rotation.

    T(y, g) = (y + alpha, g + B y + c) with B an integer matrix
    (fiber_dim x base_dim) and c a real fiber vector.  The canonical example
    (x, y) |-> (x + alpha, y + x) is SkewProduct((alpha,), ((1,),), (0.0,)).
    """

    kind = "skew"
    keys = ("base_alpha", "cocycle_linear", "cocycle_const")
    base_alpha: tuple[float, ...]
    linear: tuple[tuple[int, ...], ...]
    const: tuple[float, ...]

    def __init__(self, base_alpha, linear, const=None):
        object.__setattr__(self, "base_alpha", _as_float_tuple(base_alpha))
        object.__setattr__(self, "linear", _as_int_matrix(linear))
        if const is None:
            const = (0.0,) * len(self.linear)
        object.__setattr__(self, "const", _as_float_tuple(const))
        if any(len(row) != self.base_dim for row in self.linear):
            raise ValidationError("cocycle linear part has ragged rows")
        if len(self.const) != self.fiber_dim:
            raise ValidationError("cocycle constant length != fiber dim")

    @property
    def base_dim(self) -> int:
        return len(self.base_alpha)

    @property
    def fiber_dim(self) -> int:
        return len(self.linear)

    @property
    def dim(self) -> int:
        return self.base_dim + self.fiber_dim

    def _fiber_shift_terms(self, y, n: int, f: int):
        """The frac_combo terms of the f-th fiber coordinate shift for T^n:
        sum_b B[f][b] (n y_b + C(n,2) alpha_b) + n c_f."""
        terms = []
        for b in range(self.base_dim):
            B = self.linear[f][b]
            if B:
                terms.append((B * n, float(y[b])))
                terms.append((B * binom2(n), self.base_alpha[b]))
        terms.append((n, self.const[f]))
        return terms

    def step(self, p, n: int = 1) -> np.ndarray:
        p = self.check_point(p)
        if p.ndim == 1:
            y, g = p[:self.base_dim], p[self.base_dim:]
            ny = frac(y + np.array([frac_combo([(n, a)]) for a in self.base_alpha]))
            ng = np.array([
                frac(g[f] + frac_combo(self._fiber_shift_terms(y, n, f)))
                for f in range(self.fiber_dim)])
            return np.concatenate([ny, ng])
        return np.stack([self.step(q, n) for q in p])

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        chunk = _quad_chunk(stride)
        _rotate(starts, self.base_alpha, stride, n0, count,
                out[:, :, :self.base_dim], chunk)
        for f in range(self.fiber_dim):
            col = self.base_dim + f
            row = [(B, a) for B, a in zip(self.linear[f], self.base_alpha)]
            abf = frac_combo(row)
            for rows, cols, anchor, t, pts in _slabs(starts, n0, count, chunk):
                s0 = stride * anchor
                # g_f(s0 + u) = Bg0 + u*Bg1 + C(u,2)*ab  (mod 1), u = stride*t,
                # with Bg0 and Bg1 exact per start
                bg0, bg1 = np.array([
                    (frac_combo([(1, x[col])]
                                + self._fiber_shift_terms(x, s0, f)),
                     frac_combo(self._fiber_shift_terms(x, 1, f)
                                + [(B * s0, a) for B, a in row]))
                    for x in pts]).T[:, :, None]
                u = stride * t
                out[rows, cols, col] = frac(bg0 + u * bg1
                                            + (u * (u - 1.0) / 2.0) * abf)

    def character_action(self, k: tuple[int, ...]) -> tuple[tuple[int, ...], list, list]:
        """For k = (p, q): the fiber moves by B y + c and by C(t,2) B alpha,
        so f = (B^T q, 0), theta = p.alpha + q.c and kappa = (B^T q).alpha."""
        p, q = k[:self.base_dim], k[self.base_dim:]
        btq = tuple(sum(row[b] * qf for row, qf in zip(self.linear, q))
                    for b in range(self.base_dim))
        return (btq + (0,) * self.fiber_dim,
                list(zip(p, self.base_alpha)) + list(zip(q, self.const)),
                list(zip(btq, self.base_alpha)))

    def kv_items(self):
        return [("base_alpha", " ".join(format_real(a) for a in self.base_alpha)),
                ("cocycle_linear", " ".join(str(x) for row in self.linear for x in row)),
                ("cocycle_const", " ".join(format_real(a) for a in self.const))]

    @classmethod
    def from_kv(cls, kv):
        base = tuple(parse_numbers("base_alpha", kv["base_alpha"]))
        flat = parse_numbers("cocycle_linear", kv["cocycle_linear"], int)
        if len(flat) % len(base):
            raise ValidationError("cocycle linear part shape mismatch")
        fdim = len(flat) // len(base)
        linear = tuple(tuple(flat[i * len(base):(i + 1) * len(base)])
                       for i in range(fdim))
        const = kv.get("cocycle_const")
        if const is not None:
            const = parse_numbers("cocycle_const", const)
        return cls(base, linear, const)

    def certify(self, bound: int) -> tuple[str, str]:
        """A resonant base rotation is a non-ergodic factor.  Over an ergodic
        base, an obstruction needs a character e(p.y + q.g) with B^T q = 0 and
        p.alpha + q.c integral: none exists for one fiber coordinate with a
        nonzero slope, and a zero cocycle slope leaves the product rotation
        (alpha, c).  Other cocycle shapes stay undetermined."""
        verdict, witness = Rotation(self.base_alpha).certify(bound)
        if verdict == "non-ergodic":
            return verdict, f"base rotation: {witness}"
        if self.fiber_dim == 1 and any(self.linear[0]):
            return ("ergodic",
                    "ergodic base rotation with nonzero integer cocycle slope")
        if all(not any(row) for row in self.linear):
            k = _rotation_resonance(self.base_alpha + self.const, bound)
            if k is None:
                return "ergodic", "product rotation with no joint resonance found"
            return "non-ergodic", f"product-rotation resonance k={k}"
        return "undetermined", "cocycle shape outside the certified cases"


def _int_mat_mul(a, b, mod: int = 0):
    """a b, every entry reduced into [0, mod) when mod is nonzero."""
    n, k, m = len(a), len(b), len(b[0])
    out = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                      for j in range(m)) for i in range(n))
    return tuple(tuple(v % mod for v in row) for row in out) if mod else out


def _int_mat_pow(a, n: int, mod: int = 0):
    dim = len(a)
    if n < 0:
        return _int_mat_pow(_int_mat_inverse(a), -n, mod)
    result = tuple(tuple(1 if i == j else 0 for j in range(dim))
                   for i in range(dim))
    base = a
    while n:
        if n & 1:
            result = _int_mat_mul(result, base, mod)
        base = _int_mat_mul(base, base, mod)
        n >>= 1
    return result


def _int_det(a) -> int:
    dim = len(a)
    if dim == 1:
        return a[0][0]
    if dim == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(dim):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        det += (-1) ** j * a[0][j] * _int_det(minor)
    return det


def _int_mat_inverse(a):
    """Exact inverse of a unimodular integer matrix (adjugate * det)."""
    dim = len(a)
    det = _int_det(a)
    if det not in (1, -1):
        raise ValidationError("matrix is not unimodular")
    cof = []
    for i in range(dim):
        row = []
        for j in range(dim):
            minor = tuple(r[:i] + r[i + 1:]
                          for k, r in enumerate(a) if k != j)
            row.append((-1) ** (i + j) * (_int_det(minor) if dim > 1 else 1))
        cof.append(tuple(row))
    return tuple(tuple(det * x for x in row) for row in cof)


@dataclass(frozen=True)
class ToralAutomorphism(DynamicalSystem):
    """x |-> A x mod 1 with A integer and |det A| = 1 (Haar-preserving)."""

    kind = "automorphism"
    keys = ("matrix",)
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, matrix):
        m = _as_int_matrix(matrix)
        object.__setattr__(self, "matrix", m)
        if any(len(row) != len(m) for row in m):
            raise ValidationError("automorphism matrix must be square")
        if _int_det(m) not in (1, -1):
            raise ValidationError("automorphism matrix must have det +-1")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def _apply_exact(self, mat, p: np.ndarray) -> np.ndarray:
        return np.array([frac_combo(zip(row, p.tolist())) for row in mat])

    def step(self, p, n: int = 1) -> np.ndarray:
        p = self.check_point(p)
        mat = _int_mat_pow(self.matrix, n)
        if p.ndim == 1:
            return self._apply_exact(mat, p)
        if max(abs(x) for row in mat for x in row) < (1 << 20):
            m = np.array(mat, dtype=np.float64)
            return frac(p @ m.T)
        return np.stack([self._apply_exact(mat, q) for q in p])

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        # Hyperbolicity amplifies float rounding by |lambda| per step, so a
        # plain float stream is garbage after ~30 steps.  Positions are
        # computed from exact integer matrix powers instead.  A start is an
        # integer vector over 2**K (K its largest dyadic exponent), so
        # A^n x mod 1 only needs A^n mod 2**K: the entries stay below 2**K
        # for every n, and `step` keeps the unreduced powers as a reference.
        for s, x in enumerate(starts):
            mod = 1 << max(float(v).as_integer_ratio()[1].bit_length() - 1
                           for v in x)
            mstride = _int_mat_pow(self.matrix, stride, mod)
            mat = _int_mat_pow(self.matrix, stride * n0, mod)
            for t in range(count):
                out[s, t] = self._apply_exact(mat, x)
                mat = _int_mat_mul(mstride, mat, mod)

    def compose_term(self, k: tuple[int, ...], n: int) -> tuple[tuple[int, ...], complex]:
        from .errors import FrequencyOverflowError
        mat = _int_mat_pow(self.matrix, n)
        # frequency transforms by the transpose power
        new_k = tuple(sum(mat[i][j] * k[i] for i in range(self.dim))
                      for j in range(self.dim))
        limit = (1 << 63) - 1
        if any(abs(v) > limit for v in new_k):
            raise FrequencyOverflowError(
                f"character frequency overflow composing with T^{n}: {k} -> "
                f"a frequency of {max(abs(v) for v in new_k).bit_length()} "
                "bits exceeds the 63-bit range", n)
        return new_k, 1.0 + 0.0j

    def kv_items(self):
        return [("matrix", " ".join(str(x) for row in self.matrix for x in row))]

    @classmethod
    def from_kv(cls, kv):
        flat = parse_numbers("matrix", kv["matrix"], int)
        dim = math.isqrt(len(flat))
        if dim * dim != len(flat):
            raise ValidationError("matrix entries do not form a square")
        return cls(tuple(tuple(flat[i * dim:(i + 1) * dim]) for i in range(dim)))

    def certify(self, bound: int) -> tuple[str, str]:
        """Certainly ergodic when no eigenvalue sits on the unit circle;
        non-ergodic iff some power A^n (n <= bound) has eigenvalue 1 as an
        integer matrix; undetermined otherwise."""
        eigs = np.linalg.eigvals(np.array(self.matrix, dtype=np.float64))
        if not np.any(np.abs(np.abs(eigs) - 1.0) < 1e-9):
            return "ergodic", "no eigenvalue on the unit circle (hyperbolic)"
        power = self.matrix
        for n in range(1, bound + 1):
            shifted = tuple(tuple(power[i][j] - (1 if i == j else 0)
                                  for j in range(self.dim))
                            for i in range(self.dim))
            if _int_det(shifted) == 0:
                return ("non-ergodic",
                        f"A^{n} has eigenvalue 1 (root-of-unity spectrum)")
            power = _int_mat_mul(power, self.matrix)
        return ("undetermined",
                f"unit-modulus eigenvalue but no root of unity of order <= {bound}")


@dataclass(frozen=True)
class HeisenbergTranslation(DynamicalSystem):
    """Left translation by t = (alpha, beta, 0) on the Heisenberg nilmanifold.

    t^n = (n a, n b, C(n,2) a b); applied to p = (x, y, z) this gives the
    raw triple (x + n a, y + n b, z + C(n,2) a b + n a y), reduced to the
    fundamental domain afterwards.  Observables on this system address the
    (x, y) base coordinates only, so obs_dim = 2.
    """

    kind = "heisenberg"
    keys = ("alpha", "beta")
    alpha: float
    beta: float

    def __init__(self, alpha: float, beta: float):
        alpha, beta = _as_float_tuple((alpha, beta))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def dim(self) -> int:
        return 3

    @property
    def obs_dim(self) -> int:
        return 2

    def step(self, p, n: int = 1) -> np.ndarray:
        p = self.check_point(p)
        if p.ndim > 1:
            if abs(n) <= 8:
                gx = n * self.alpha
                gy = n * self.beta
                num, shift = dyadic_combo([(binom2(n), self.alpha, self.beta)])
                gz = num / (1 << shift)
                raw = np.stack([gx + p[..., 0], gy + p[..., 1],
                                gz + p[..., 2] + gx * p[..., 1]], axis=-1)
                return reduce_mod_lattice(raw)
            return np.stack([self.step(q, n) for q in p])
        return self._power_point(p, n)

    def _power_point(self, p: np.ndarray, s: int) -> np.ndarray:
        """Exact T^s p (any integer s): frac of rx, ry and rz - rx floor(ry)."""
        x, y, z = (float(v) for v in p)
        a, b = self.alpha, self.beta
        num, shift = dyadic_combo([(1, y), (s, b)])
        fl = num >> shift
        return np.array([frac_combo([(1, x), (s, a)]),
                         frac_combo([(1, y), (s, b)]),
                         frac_combo([(1, z), (binom2(s), a, b), (s, a, y),
                                     (-fl, x), (-fl * s, a)])])

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        a, b = self.alpha, self.beta
        # The base coordinates are plain rotation orbits and use the standard
        # chunking, so obs- and state-coordinate requests emit identical
        # floats (integration against stored clouds relies on this).
        _rotate(starts, (a, b), stride, n0, count, out[:, :, :2])
        if coords == "obs":
            return
        # z(s0+u) reduced: frac(raw_z - raw_x * floor(raw_y)), split so
        # every floating product stays small (u = stride * t <= ~1024).  x
        # is first re-derived into the z column at this finer anchoring, so
        # the xs*gt error stays ~1e-10 even at large n.
        chunk = _quad_chunk(stride)
        _rotate(starts, (a,), stride, n0, count, out[:, :, 2:], chunk)
        abf = frac_combo([(1, a, b)])
        for rows, cols, anchor, t, pts in _slabs(starts, n0, count, chunk):
            s0 = stride * anchor
            u = stride * t
            anchors = []                  # reduced exactly, per start
            for x0, y0, z0 in pts:
                num, shift = dyadic_combo([(1, y0), (s0, b)])
                bigF0 = num >> shift
                anchors.append((
                    frac_combo([(1, y0), (s0, b)]),
                    frac_combo([(1, z0), (binom2(s0), a, b), (s0, a, y0)]),
                    frac_combo([(s0, a, b), (1, a, y0)]),
                    frac_combo([(bigF0, x0), (s0 * bigF0, a)]),
                    frac_combo([(bigF0, a)])))
            yf0, bz0, bz1, bx0, bx1 = np.array(anchors).T[:, :, None]
            gt = np.floor(yf0 + u * b)
            xs = out[rows, cols, 2]
            # xs differs from raw_x by an integer, and gt is an integer, so
            # xs * gt matches raw_x * gt mod 1
            out[rows, cols, 2] = frac(bz0 + u * bz1
                                      + (u * (u - 1.0) / 2.0) * abf
                                      - bx0 - u * bx1 - xs * gt)

    def phase_basis(self) -> tuple[float, float]:
        return (self.alpha, self.beta)

    def kv_items(self):
        return [("alpha", format_real(self.alpha)),
                ("beta", format_real(self.beta))]

    @classmethod
    def from_kv(cls, kv):
        return cls(parse_number("alpha", kv["alpha"]),
                   parse_number("beta", kv["beta"]))

    def certify(self, bound: int) -> tuple[str, str]:
        """The verdict of the induced base rotation (alpha, beta)."""
        verdict, witness = Rotation((self.alpha, self.beta)).certify(bound)
        return verdict, f"base rotation: {witness}"


_KINDS = {cls.kind: cls for cls in (Rotation, SkewProduct, ToralAutomorphism,
                                    HeisenbergTranslation)}


def step(system: DynamicalSystem, p, n: int = 1) -> np.ndarray:
    """T^n applied to p (default one forward step), reduced; a closed form
    for every integer n, equal to n-fold composition of one step."""
    return system.step(p, n)


def orbit_points(system: DynamicalSystem, x, stride: int, n0: int,
                 count: int, coords: str = "state") -> np.ndarray:
    """Points T^{stride*n} x for n in [n0, n0+count) as an array of rows.

    coords="obs" returns only the coordinates observables read (drops the
    Heisenberg central coordinate)."""
    return system.orbit_points(x, stride, n0, count, coords=coords)


# ---------------------------------------------------------------------------
# Ergodicity certificates


@dataclass(frozen=True)
class ErgodicityCertificate:
    system: DynamicalSystem
    verdict: str                 # "ergodic" | "non-ergodic" | "undetermined"
    witness: str
    search_bound: int


_RESONANCE_TOL = 1e-12


def _rotation_resonance(alpha: tuple[float, ...], bound: int):
    """Smallest integer vector k (by sup norm) with k . alpha within 1e-12 of
    an integer, or None.  Float prescan, exact rational confirmation."""
    m = len(alpha)
    if m == 1:
        k = np.arange(1, bound + 1, dtype=np.float64)
        d = np.abs(frac(k * alpha[0] + 0.5) - 0.5)
        for idx in np.nonzero(d <= 1e-9)[0]:
            kk = int(idx) + 1
            if abs(frac_combo([(kk, alpha[0]), (1, 0.5)]) - 0.5) <= _RESONANCE_TOL:
                return (kk,)
        return None
    if (2 * bound + 1) ** m > 4_000_000:
        raise ValidationError("resonance scan too large; reduce search_bound")
    grids = np.meshgrid(*[np.arange(-bound, bound + 1)] * m, indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    ks = ks[np.any(ks != 0, axis=1)]
    vals = ks @ np.asarray(alpha)
    d = np.abs(frac(vals + 0.5) - 0.5)
    order = np.lexsort((np.abs(ks).sum(axis=1), np.abs(ks).max(axis=1)))
    for idx in order:
        if d[idx] <= 1e-9:
            kk = tuple(int(v) for v in ks[idx])
            if abs(frac_combo([*zip(kk, alpha), (1, 0.5)]) - 0.5) <= _RESONANCE_TOL:
                return kk
    return None


def ergodicity_certificate(system: DynamicalSystem,
                           search_bound: int) -> ErgodicityCertificate:
    """Decide ergodicity within a declared finite search; each kind's
    `certify` states its criterion."""
    if search_bound < 1:
        raise ValidationError("search_bound must be >= 1")
    verdict, witness = system.certify(search_bound)
    return ErgodicityCertificate(system, verdict, witness, search_bound)


# ---------------------------------------------------------------------------
# Serialization of system specifications


def system_to_kv(system: DynamicalSystem) -> dict[str, str]:
    return {"kind": system.kind, **dict(system.kv_items())}


def system_from_kv(kv: dict[str, str]) -> DynamicalSystem:
    cls = _KINDS.get(kv.get("kind"))
    if cls is None:
        raise ValidationError(f"unknown system kind {kv.get('kind')!r}")
    for key in kv:
        if key != "kind" and key not in cls.keys:
            raise ValidationError(
                f"unknown [system] key {key!r} for kind {cls.kind} "
                f"(it reads {', '.join(cls.keys)})")
    try:
        return cls.from_kv(kv)
    except KeyError as exc:
        raise ValidationError(f"{cls.kind} system needs key {exc}") from None


def cat_map() -> ToralAutomorphism:
    """The standard hyperbolic automorphism [[2,1],[1,1]]."""
    return ToralAutomorphism(((2, 1), (1, 1)))


def golden_rotation() -> Rotation:
    return Rotation((GOLDEN,))


def default_heisenberg() -> HeisenbergTranslation:
    return HeisenbergTranslation(SQRT2_M1, SQRT3_M1)


def standard_skew(alpha: float = GOLDEN) -> SkewProduct:
    """(x, y) |-> (x + alpha, y + x)."""
    return SkewProduct((alpha,), ((1,),), (0.0,))
