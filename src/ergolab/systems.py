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
reduced exactly (a double is an integer over a power of two; a kind's rate
table holds its parameters so), so arbitrarily large n loses no precision.
`step` is exact for a point and for every row of a batch, by one path per
kind: a batch is the stack of its rows' steps, bit for bit.  The Heisenberg
step and orbit anchors read the rate table (the point and the rates over
one power of two), not alpha and beta as doubles.
Orbit segments are generated in windows between absolute multiples of
CHUNK (see phases.py), by `_slabs`, the one anchor walker, so the emitted
floats are a pure function of the orbit index: each window's coefficients
are exact integers over one power of two per start.  A linear column,
frac(base + t * step), rounds near the offset t < CHUNK (up to 1.8e-12);
the quadratic ones (skew fiber, Heisenberg z) split their coefficients on
dyadic grids (`_pieces`) so that only a small rest rounds (about 1e-16).

Orbits have one entry point, `DynamicalSystem.orbit_block`: a kind
implements `_orbits` for all starts at once, and `orbit_points` is the
one-start case (bound in each class body, where perfbench's tracer wraps it
per kind).  `_rotate` builds every rotation-type column (and streamed
geometric sums) from exact rates, and `_power_rows` every automorphism row:
a start with denominator 2**K only needs A^n mod 2**K, read from one table
of powers in uint64 (exact mod 2**64) for K <= 64, in Python ints for finer
starts; the last four uint64 tables are kept for the next calls.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (DimensionMismatchError, FrequencyOverflowError,
                     ValidationError)
from .phases import (CHUNK, chunk_ranges, dyadic_align, dyadic_combo, e,
                     format_real, frac, frac_combo, frac_dyadic)
from .rng import SplitMix64

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0
SQRT3_M1 = math.sqrt(3.0) - 1.0


def _as_float_tuple(v) -> tuple[float, ...]:
    out = (float(v),) if np.isscalar(v) else tuple(float(x) for x in v)
    _check_finite(out, "system parameter")
    return out


def _as_int_matrix(m) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in m)


def _check_finite(arr, what: str = "coordinate") -> None:
    """arr is an array, or a list or tuple of floats (checked in Python,
    several times faster than np.isfinite on a few values)."""
    if not (all(map(math.isfinite, arr)) if isinstance(arr, (list, tuple))
            else np.all(np.isfinite(arr))):
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


def binom2(n: int) -> int:
    """n*(n-1)/2 for any integer n (exact)."""
    return (n * (n - 1)) // 2


# ---------------------------------------------------------------------------
# Heisenberg group primitives


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
    kind builds its rate table once (`_set_rates`) and states its action
    over it once, in `character_action`, which `composer`, the closed forms
    and factorized grids read; the automorphism composes by its ladder of
    exact matrix powers (`ToralAutomorphism.power`) instead."""

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
        _check_finite(p.tolist() if p.ndim == 1 else p)
        return p

    def haar_block(self, rng: SplitMix64, count: int) -> np.ndarray:
        """count points of the invariant measure as rows; advances rng."""
        return rng.unit_block(count * self.dim).reshape(count, self.dim)

    def phase_basis(self) -> tuple[float, ...] | None:
        """Rotation rates of the characters when composition with T^n keeps
        the frequency and multiplies by a phase linear in n; None otherwise."""
        return None

    def _set_rates(self, values) -> None:
        """The rate table: the doubles `values` as `rates` / 2**`shift`."""
        rates, shift = dyadic_align(*(dyadic_combo([(1, v)]) for v in values))
        object.__setattr__(self, "rates", tuple(rates))
        object.__setattr__(self, "shift", shift)

    def character_action(self, k: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
        """(f, theta, kappa) with chi_k(T^t x) = e(k.x + t (f.x + theta / 2**s)
        + C(t,2) kappa / 2**s) for every integer t, s = self.shift, f an
        integer vector: here f = 0, kappa = 0 and theta = k . rates, the
        table being the phase_basis; a kind without a polynomial action
        raises."""
        if self.phase_basis() is None:
            raise ValidationError(
                f"the {self.kind} system has no polynomial character action")
        return (0,) * self.obs_dim, sum(map(mul, k, self.rates)), 0

    def compose_term(self, k: tuple[int, ...], n: int) -> tuple[tuple[int, ...], complex]:
        """chi_k o T^n = e(phase) chi_{k + n f}, as (k + n f, e(phase))."""
        return self.composer(n)(k)

    def composer(self, n: int):
        """k -> compose_term(k, n) at one n; a kind whose composition needs
        work per n (the automorphism's matrix powers) does it once here."""
        c2 = binom2(n)

        def compose(k):
            f, theta, kappa = self.character_action(k)
            return (tuple(ki + n * fi for ki, fi in zip(k, f)) if any(f)
                    else tuple(k),
                    e(frac_dyadic(n * theta + c2 * kappa, self.shift)))
        return compose

    def orbit_block(self, starts, stride: int, n0: int, count: int,
                    coords: str = "state", out: np.ndarray | None = None
                    ) -> np.ndarray:
        """T^{stride*n} x for n in [n0, n0+count) and each start row x, as an
        (S, count, columns) array filled by the kind's `_orbits`; writes
        into `out` when given and returns it.  Integer arguments pass
        through operator.index, so NumPy integers act as Python ints."""
        starts = self.check_point(starts)
        stride, n0, count = map(operator.index, (stride, n0, count))
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


_OFFSETS = np.arange(CHUNK, dtype=np.float64)   # the offsets t of a window
_SQUARES = _OFFSETS * (_OFFSETS - 1.0) / 2.0      # and C(t,2) < 2**27
_OFFSETS.flags.writeable = _SQUARES.flags.writeable = False


def _slabs(nstarts: int, n0: int, count: int):
    """(rows, cols, anchor, span) for each window of [n0, n0+count)
    between consecutive multiples of CHUNK (anchor the first) and each slab
    of max(1, CHUNK // cnt) start rows: out[rows, cols] is the part to
    fill, and _OFFSETS[span] are the window's offsets from the anchor."""
    for start, cnt in chunk_ranges(n0, count):
        anchor = start // CHUNK * CHUNK
        cols = slice(start - n0, start - n0 + cnt)
        rows = max(1, CHUNK // cnt)
        for r0 in range(0, nstarts, rows):
            yield (slice(r0, r0 + rows), cols, anchor,
                   slice(start - anchor, start - anchor + cnt))


def _rotate(starts, rates, ka: int, stride: int, n0: int, count: int,
            out) -> None:
    """Rotation-type columns, out[:, i, c] = frac(starts[:, c] + (n0 + i)
    * stride * rates[c] / 2**ka) for integer rates (a rate table's), as
    frac(base + t * step): the stride phase is reduced once per coordinate
    and each window's base once per (start, coordinate), as the exact
    integer X + anchor * stride * num over one power of two per start, so a
    row's bits do not depend on the other starts."""
    for c, num in enumerate(rates):
        ra = stride * num
        step = frac_dyadic(ra, ka)
        for rows, cols, anchor, span in _slabs(len(starts), n0, count):
            # x = m / 2**k and the rate aligned inline, once per start of
            # every cloud slab (dyadic_combo + dyadic_align: 2.5x slower)
            coefs = [(m, ra << k - ka, k) if (k := d.bit_length() - 1) >= ka
                     else (m << ka - k, ra, ka) for m, d in
                     map(float.as_integer_ratio, starts[rows, c].tolist())]
            base = np.array([frac_dyadic(x + anchor * sa, k)
                             for x, sa, k in coefs])
            out[rows, cols, c] = frac(base[:, None] + _OFFSETS[span] * step)


def _pieces(num: int, k: int, bits: int) -> list[float]:
    """num / 2**k mod 1 as doubles h_1, ..., h_j, r summing to it, r
    rounded once: h_i holds the residue's bits from 2**-((i-1) g) down to
    2**-(i g), g = 52 - bits, up to the first i g >= bits + 10.  So n h_i
    and its frac are exact for every integer 0 <= n < 2**bits, and
    |n r| < 2**-10."""
    r, out = num & ((1 << k) - 1), []
    for top in range(52 - bits, 62, 52 - bits):
        cut = max(k - top, 0)
        out.append(math.ldexp(r >> cut, cut - k))
        r &= (1 << cut) - 1
    return out + [r / (1 << k)]


def _quadratic(c0, c1, c2, span):
    """(exact, rest) for c0 + t c1 + C(t,2) c2 mod 1 at the offsets t of
    span, from the _pieces of c0, c1 and c2 at 2, 14 and 27 bits (c0 and
    c1 per start, as columns): exact = h0 + frac(t h1) + frac(C(t,2) h2)
    + C(t,2) h2', below 7 and on the 2**-50 grid, so exact, and rest =
    (r0 + t r1) + C(t,2) r2."""
    (h0, r0), (h1, r1), (h2, h2b, r2) = c0, c1, c2
    t, ct = _OFFSETS[span], _SQUARES[span]
    return (h0 + frac(t * h1) + frac(ct * h2) + ct * h2b,
            r0 + t * r1 + ct * r2)


@dataclass(frozen=True)
class Rotation(DynamicalSystem):
    """Translation by a fixed vector on the m-torus, Haar = Lebesgue."""

    kind = "rotation"
    keys = ("alpha",)
    alpha: tuple[float, ...]

    def __init__(self, alpha):
        object.__setattr__(self, "alpha", _as_float_tuple(alpha))
        self._set_rates(self.alpha)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    def step(self, p, n: int = 1) -> np.ndarray:
        p, n = self.check_point(p), operator.index(n)
        return frac(p + np.array([frac_dyadic(n * a, self.shift)
                                  for a in self.rates]))

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        _rotate(starts, self.rates, self.shift, stride, n0, count, out)

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
        self._set_rates(self.base_alpha + self.const)

    @property
    def base_dim(self) -> int:
        return len(self.base_alpha)

    @property
    def fiber_dim(self) -> int:
        return len(self.linear)

    @property
    def dim(self) -> int:
        return self.base_dim + self.fiber_dim

    def _fiber_shift(self, y, n: int, f: int) -> tuple[int, int]:
        """The f-th fiber shift under T^n, sum_b B[f][b] (n y_b + C(n,2)
        alpha_b) + n c_f, as dyadic_combo's exact (num, shift)."""
        rate = (binom2(n) * sum(map(mul, self.linear[f], self.rates))
                + n * self.rates[self.base_dim + f])
        return dyadic_combo([*zip([n * B for B in self.linear[f]], y),
                             (rate, math.ldexp(1.0, -self.shift))])

    def step(self, p, n: int = 1) -> np.ndarray:
        p, n = self.check_point(p), operator.index(n)
        rows = []
        for x in p.reshape(-1, self.dim).tolist():
            # each row in Python floats: the same IEEE sums and frac
            y, g = x[:self.base_dim], x[self.base_dim:]
            rows.append([frac(v + frac_dyadic(n * a, self.shift))
                         for v, a in zip(y, self.rates)]
                        + [frac(gf + frac_dyadic(*self._fiber_shift(y, n, f)))
                           for f, gf in enumerate(g)])
        return np.array(rows).reshape(p.shape)

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        _rotate(starts, self.rates[:self.base_dim], self.shift, stride, n0,
                count, out[:, :, :self.base_dim])
        s = stride
        for f in range(self.fiber_dim):
            col = self.base_dim + f
            kappa = sum(map(mul, self.linear[f], self.rates)), self.shift
            # g_f(m0 + s t) = c0 + t c1 + C(t,2) c2 (mod 1) with c0 = g +
            # m0 P + C(m0,2) K, c1 = s (P + m0 K) + C(s,2) K and c2 = s^2 K,
            # P = B y + c and K = B alpha, exact per (start, anchor m0)
            c2 = _pieces(s * s * kappa[0], self.shift, 27)
            for rows, cols, anchor, span in _slabs(len(starts), n0, count):
                m0, pieces = s * anchor, []
                for x in starts[rows].tolist():
                    (g, P, K), k = dyadic_align(dyadic_combo(
                        [(1, x[col])]), self._fiber_shift(x, 1, f), kappa)
                    pieces.append(
                        _pieces(g + m0 * P + binom2(m0) * K, k, 2)
                        + _pieces(s * (P + m0 * K) + binom2(s) * K, k, 14))
                h0, r0, h1, r1 = np.array(pieces).T[..., None]
                exact, rest = _quadratic((h0, r0), (h1, r1), c2, span)
                out[rows, cols, col] = frac(frac(exact) + rest)

    def character_action(self, k: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
        """For k = (p, q): the fiber moves by B y + c and by C(t,2) B alpha,
        so f = (B^T q, 0), theta = p.alpha + q.c = k . rates (the table is
        alpha then c) and kappa = (B^T q).alpha."""
        btq = tuple(sum(row[b] * qf for row, qf in zip(self.linear,
                                                        k[self.base_dim:]))
                    for b in range(self.base_dim))
        return (btq + (0,) * self.fiber_dim, sum(map(mul, k, self.rates)),
                sum(map(mul, btq, self.rates)))

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
    cols = tuple(zip(*b))
    out = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)
    return tuple(tuple(v % mod for v in row) for row in out) if mod else out


def _times_power(out, squares: dict, d: int, mod: int = 0):
    """out A^d from squares[i] = A^(2^i), each missing one built from the
    one below and set once: callers sharing them can only repeat work."""
    for i in range(d.bit_length()):
        if i not in squares:
            squares.setdefault(i, _int_mat_mul(squares[i - 1],
                                               squares[i - 1], mod))
        if d >> i & 1:
            out = _int_mat_mul(out, squares[i], mod)
    return out


def _int_mat_pow(a, n: int, mod: int = 0):
    if n < 0:
        return _int_mat_pow(_int_mat_inverse(a), -n, mod)
    return _times_power(tuple(tuple(int(i == j) for j in range(len(a)))
                              for i in range(len(a))), {0: a}, n, mod)


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
    """Exact inverse of a unimodular integer matrix (adjugate * det): entry
    (i, j) is det times the cofactor of a[j][i]."""
    dim, det = len(a), _int_det(a)
    if det not in (1, -1):
        raise ValidationError("matrix is not unimodular")
    return tuple(tuple(det * (-1) ** (i + j) * (_int_det(tuple(
        r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j)) if dim > 1
        else 1) for j in range(dim)) for i in range(dim))


def _reduced_power(matrix, n: int, top: int) -> np.ndarray:
    """A^n mod 2**top: uint64 when top is 64, Python ints otherwise."""
    return np.array(_int_mat_pow(matrix, n, 1 << top),
                    np.uint64 if top == 64 else object)


def _power_table(matrix, stride: int, span: int, top: int) -> np.ndarray:
    """A^(stride u) mod 2**top for u < span, as a (dim, span*dim) array
    whose column u*dim + i is row i of A^(stride u); uint64 when top is 64,
    Python ints otherwise.  Built by doubling: each doubling's A^(stride n)
    is the table's last entry times A^stride."""
    dim = len(matrix)
    step = _reduced_power(matrix, stride, top)
    wrap = np.array((1 << top) - 1, step.dtype)[()]
    table = np.empty((span, dim, dim), step.dtype)
    table[:1] = _reduced_power(matrix, 0, top)
    n = 1
    while n < span:
        m = min(n, span - n)
        table[n:n + m] = (table[n - 1] @ step @ table[:m]) & wrap
        n += m
    return table.reshape(-1, dim).T


@functools.lru_cache(maxsize=4)
def _uint64_power_table(matrix, stride: int, span: int) -> np.ndarray:
    """_power_table at top = 64, read-only and kept: the last four tables
    (one of CHUNK 3 x 3 powers holds 1.2 MB), so a product joining of up to
    d = 4 strides that asks for one start at a time (criterion 5: strides 1
    and 2 in turn) builds each stride's table once.  Tables of Python ints,
    for starts finer than 2**-64, are built per call."""
    table = _power_table(matrix, stride, span, 64)
    table.flags.writeable = False
    return table


def _mul_add(y, m):
    """y @ m for integer arrays, as one broadcast multiply-add per row of m:
    the same wrapping uint64 (or Python int) sums, without the matmul's
    per-call cost on (starts, dim) x (dim, span * dim) shapes."""
    out = y[:, :1] * m[0]
    for i in range(1, len(m)):
        out += y[:, i:i + 1] * m[i]
    return out


def _power_rows(matrix, ratios, exps, stride: int, n0: int, count: int,
                out, rows) -> None:
    """out[rows[s], i] = frac(A^(stride (n0 + i)) x_s) for the starts with
    `as_integer_ratio` pairs ratios[s] and largest dyadic exponents exps[s].

    x_s = X_s / 2**K (K = exps[s]) with X_s an integer vector reduced mod
    2**K, so a row is (A^n X_s mod 2**K) / 2**K and needs A^n only mod 2**K.
    When every K <= 64 the integers are uint64, whose wrapping arithmetic is
    exact mod 2**64 (a multiple of 2**K); otherwise Python ints mod 2**max K.
    One table of A^(stride u) (`_power_table`, kept by
    `_uint64_power_table` when every K <= 64) and one power per window of
    `_slabs`, moving the starts to its first index, give all rows; integer
    arithmetic is exact, so the bits do not depend on the split.
    A residue r is rounded once to r / 2**K: a uint64 cast rounds to nearest
    even and the division by 2**K is exact, and int division rounds
    correctly; as in frac_combo, a result of 1.0 becomes 0.0."""
    dim = len(matrix)
    top = max(64, *exps)
    dtype = np.uint64 if top == 64 else object
    wrap = np.array((1 << top) - 1, dtype)[()]
    X = np.array([[(m << k - d.bit_length() + 1) & ((1 << k) - 1)
                   for m, d in r] for r, k in zip(ratios, exps)], dtype)
    masks = np.array([(1 << k) - 1 for k in exps], dtype)[:, None]
    scale = (np.ldexp(1.0, exps) if top == 64
             else np.array([1 << k for k in exps], object))[:, None]
    span = min(count, CHUNK)
    table = (_uint64_power_table(matrix, stride, span) if top == 64
             else _power_table(matrix, stride, span, top))
    for sl, cols, _, _ in _slabs(len(X), n0, count):
        y = _mul_add(X[sl], _reduced_power(matrix, stride * (n0 + cols.start),
                                           top).T) & wrap
        width = cols.stop - cols.start
        r = _mul_add(y, table[:, :width * dim]) & masks[sl]
        v = (r / scale[sl]).astype(np.float64).reshape(len(y), width, dim)
        v[v >= 1.0] = 0.0
        out[rows[sl], cols] = v


_LADDER_BITS = 1 << 14   # ToralAutomorphism.power keeps entries below 2**this


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
        # power's ladder; ||A||inf < 2**b bounds A^n's entries by 2**(b n)
        object.__setattr__(self, "_ladder", ({0: m}, (0, _int_mat_pow(m, 0))))
        object.__setattr__(self, "_far", (0, None))  # n = 0 is on the ladder
        object.__setattr__(self, "_ladder_top", _LADDER_BITS // max(
            sum(map(abs, row)) for row in m).bit_length())

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def power(self, n: int, mod: int = 0):
        """A^n, reduced into [0, mod) when mod is nonzero.  The exact A^n for
        0 <= n <= _ladder_top is the last one built (the identity when n is
        below it) times kept squares: n - 1 to n is one product.  Past the
        ladder the last exact power built is kept, so repeated calls at one
        n (a point at a time) build it once."""
        if mod:
            return _int_mat_pow(self.matrix, n, mod)
        if not 0 <= n <= self._ladder_top:
            far = self._far
            if far[0] != n:
                far = (n, _int_mat_pow(self.matrix, n))
                object.__setattr__(self, "_far", far)
            return far[1]
        squares, (m, out) = self._ladder
        if m > n:
            m, out = 0, _int_mat_pow(self.matrix, 0)
        out = _times_power(out, squares, n - m)
        object.__setattr__(self, "_ladder", (squares, (n, out)))
        return out

    def step(self, p, n: int = 1) -> np.ndarray:
        p, n = self.check_point(p), operator.index(n)
        mat = self.power(n)
        return np.array([[frac_combo(zip(row, q)) for row in mat]
                         for q in p.reshape(-1, self.dim).tolist()]
                        ).reshape(p.shape)

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        # Hyperbolicity amplifies float rounding by |lambda| per step, so a
        # plain float stream is garbage after ~30 steps.  Positions come from
        # exact integer matrix powers instead, reduced mod 2**64 in one uint64
        # kernel for every start with K <= 64 (all Haar starts: K <= 53), and
        # mod 2**K in Python ints for finer ones (see _power_rows).  `step`
        # keeps the unreduced powers as a reference.
        ratios = [[v.as_integer_ratio() for v in x] for x in starts.tolist()]
        exps = np.array([max(d.bit_length() for _, d in r) - 1
                         for r in ratios], dtype=np.int64)
        for rows in (np.flatnonzero(exps <= 64), np.flatnonzero(exps > 64)):
            if rows.size:
                _power_rows(self.matrix, [ratios[s] for s in rows],
                            exps[rows].tolist(), stride, n0, count, out, rows)

    def composer(self, n: int):
        """k -> compose_term(k, n): k moves by the transpose power, each
        built once, on first need.  Past the ladder a frequency within 63
        bits equals its signed residue mod 2**128, so a wider one proves
        overflow before the exact A^n (O(n)-bit entries) is built."""
        limit = (1 << 63) - 1
        mods = (0,) if 0 <= n <= self._ladder_top else (1 << 128, 0)
        columns = {}

        def compose(k):
            for mod in mods:
                if mod not in columns:
                    columns[mod] = tuple(zip(*self.power(n, mod)))
                new_k = tuple(sum(map(mul, col, k)) for col in columns[mod])
                if mod:
                    new_k = tuple((v + (mod >> 1)) % mod - (mod >> 1)
                                  for v in new_k)
                if any(abs(v) > limit for v in new_k):
                    raise FrequencyOverflowError(
                        f"character frequency overflow composing with T^{n}: "
                        f"{k} -> a frequency beyond the 63-bit range", n)
            return new_k, 1.0 + 0.0j
        return compose

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
        for n in range(1, bound + 1):
            if _int_det(tuple(tuple(v - (i == j) for j, v in enumerate(row))
                              for i, row in enumerate(self.power(n)))) == 0:
                return ("non-ergodic",
                        f"A^{n} has eigenvalue 1 (root-of-unity spectrum)")
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
        self._set_rates((alpha, beta))

    @property
    def dim(self) -> int:
        return 3

    @property
    def obs_dim(self) -> int:
        return 2

    def _over_table(self, q):
        """((X, Y, Z, A, B), k): the point q = (x, y, z) and the rates a, b
        as integers over one power of two 2**k."""
        return dyadic_align(*(dyadic_combo([(1, v)]) for v in q),
                            *((r, self.shift) for r in self.rates))

    def step(self, p, n: int = 1) -> np.ndarray:
        """x' = x + n a, y' = y + n b and z' = z - floor(y') x' + C(n,2) a b
        + n a y (the raw triple reduced), each exact over the rate table."""
        p, n = self.check_point(p), operator.index(n)
        rows = []
        for q in p.reshape(-1, 3).tolist():
            (X, Y, Z, A, B), k = self._over_table(q)
            xn, yn = X + n * A, Y + n * B
            rows.append((frac_dyadic(xn, k), frac_dyadic(yn, k), frac_dyadic(
                ((Z - (yn >> k) * xn) << k) + binom2(n) * A * B + n * A * Y,
                2 * k)))
        return np.array(rows).reshape(p.shape)

    orbit_points = DynamicalSystem.orbit_points

    def _orbits(self, starts, stride, n0, count, coords, out):
        """z at m = m0 + s t, m0 = s * anchor: x' = x0 + t sa and y' = F0 +
        yf0 + t q + t phi (x0 = x + m0 a, F0 + yf0 = y + m0 b, q + phi =
        s b), so floor(y') = F0 + t q + g, g = floor(yf0 + t phi) <= t, and
        z' = c0 + t c1 + C(t,2) c2 - g (x0 + t sa) (mod 1), c0 = z + C(m0,2)
        a b + m0 a y - F0 x0, c1 = (s m0 + C(s,2)) a b + s a y - (F0 + q) sa
        - q x0, c2 = s^2 a b - 2 q sa.  x and y are rotation columns, so obs
        and state requests emit identical floats (stored clouds need it)."""
        ka = self.shift
        _rotate(starts, self.rates, ka, stride, n0, count, out[:, :, :2])
        if coords == "obs":
            return
        s, (ra, rb) = stride, self.rates
        q = s * rb >> ka
        c2 = _pieces(s * s * ra * rb - (2 * q * s * ra << ka), 2 * ka, 27)
        (phi1, phi2), (sa1, sa2) = (_pieces(s * rb, ka, 14),
                                    _pieces(s * ra, ka, 14))
        for rows, cols, anchor, span in _slabs(len(starts), n0, count):
            m0, pieces = s * anchor, []
            for p in starts[rows].tolist():
                # over 2**k; the products AB, AY and Z << k over 2**(2k)
                (X, Y, Z, A, B), k = self._over_table(p)
                x0, y0 = X + m0 * A, Y + m0 * B
                big = y0 >> k                                  # F0
                pieces.append(
                    _pieces(((Z - big * x0) << k) + binom2(m0) * A * B
                            + m0 * A * Y, 2 * k, 2)
                    + _pieces((s * m0 + binom2(s)) * A * B + s * A * Y
                              - ((big + q) * s * A + q * x0 << k), 2 * k, 14)
                    + _pieces(x0, k, 14) + _pieces(y0, k, 14))
            h0, r0, h1, r1, hx, rx, hy, ry = np.array(pieces).T[..., None]
            exact, rest = _quadratic((h0, r0), (h1, r1), c2, span)
            t = _OFFSETS[span]
            # yf0 + t phi = u + (ry + t phi2), u exact and the rest in [0, 1)
            # and exact for denominators up to 2**77 (else within 2**-75 of
            # an integer): one comparison finds g; g times x0 + t sa's grid
            # part (t sa1 + hx, exact) is exact too
            u = t * phi1 + hy
            g = np.floor(u)
            g += ry + t * phi2 >= 1.0 - (u - g)
            exact -= frac(g * frac(t * sa1 + hx))
            rest -= g * (rx + t * sa2)
            out[rows, cols, 2] = frac(frac(exact) + rest)

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
    for every integer n, equal to n-fold composition of one step.  p is a
    point or a batch of rows, each row stepped as that point would be."""
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
    ks = ks[np.abs(frac(vals + 0.5) - 0.5) <= 1e-9]
    # a stable sort of the near-resonant vectors alone keeps the order the
    # whole lexsorted grid would give them
    for idx in np.lexsort((np.abs(ks).sum(axis=1), np.abs(ks).max(axis=1))):
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
