"""One plain reference per kernel, for the bit-for-bit tests.

Each function computes its kernel's stated arithmetic directly.  Exact
steps are exact: `Fraction` for residues and phases, `math.fsum` for sums.
Where a kernel's bits are those of a documented float expression, the
reference writes that expression out (for example frac(base + t * step),
then exp(2 pi i .)).  No reference calls or copies the function it checks,
so a test shows that the bits are right, not only that they did not move.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from ergolab import exact, observables
from ergolab.errors import FrequencyOverflowError, ValidationError
from ergolab.observables import (_FLOAT_FREQ_LIMIT, Observable, conjugate,
                                 evaluate, integral_haar, multiply)
from ergolab.phases import CHUNK, TWO_PI, frac, frac_combo
from ergolab.seminorms import VdcReport
from ergolab.systems import (HeisenbergTranslation, Rotation, SkewProduct,
                             ToralAutomorphism, orbit_points)

# ---------------------------------------------------------------------------
# Exact residues and integer matrices


def ref_residue(q):
    """The exact rational q mod 1, rounded once to a double in [0, 1) (a
    residue just below 1 that rounds to 1.0 is 0.0)."""
    r = float(Fraction(q) % 1)
    return 0.0 if r == 1.0 else r


def ref_combo(terms):
    """The exact sum of terms n * x and n * x * y, one Fraction per term."""
    acc = Fraction(0)
    for n, *xs in terms:
        q = Fraction(int(n))
        for x in xs:
            q *= Fraction(x)
        acc += q
    return acc


def ref_mat_mul(x, y, mod=0):
    """The integer matrix product x y, entries reduced into [0, mod) when
    mod is nonzero."""
    size = range(len(x))
    out = tuple(tuple(sum(x[i][t] * y[t][j] for t in size) for j in size)
                for i in size)
    return tuple(tuple(v % mod for v in row) for row in out) if mod else out


def ref_mat_pow(a, n, mod=0):
    """The integer matrix a**n by square and multiply (n < 0: powers of the
    integer inverse of a unimodular a), entries reduced into [0, mod) when
    mod is nonzero."""
    out = tuple(tuple(int(i == j) for j in range(len(a)))
                for i in range(len(a)))
    if n < 0:
        inv = tuple(tuple(int(v) for v in row)
                    for row in np.rint(np.linalg.inv(np.array(a, float))))
        assert ref_mat_mul(a, inv) == out
        a, n = inv, -n
    while n:
        if n & 1:
            out = ref_mat_mul(out, a, mod)
        a = ref_mat_mul(a, a, mod)
        n >>= 1
    return tuple(tuple(v % mod for v in row) for row in out) if mod else out


# ---------------------------------------------------------------------------
# Characters: evaluation, the action of T, the pattern phase


def ref_evaluate(f, points):
    """`evaluate` written plainly.  Over every point at once, each step a
    numpy ufunc with a fresh output: a term's phase is x_0 k_0 + x_1 k_1 +
    ... from the left in float64 (frac_combo's exact residue past
    _FLOAT_FREQ_LIMIT), its unit is exp(2 pi i phase), zero frequencies
    included, and the terms are added in order, c * unit + sum, to a zeros
    buffer.  `evaluate` takes no exp for a zero frequency; at a finite point
    the two agree bit for bit, but where a non-finite coordinate meets a
    zero frequency the phase is NaN and they differ, so tests keep such
    points away from zero frequencies."""
    pts = np.asarray(points, dtype=np.float64)
    flat = pts.reshape(-1, pts.shape[-1])[:, :f.dim]
    out = np.zeros(len(flat), dtype=np.complex128)
    for k, c in f.terms:
        if max(abs(v) for v in k) > _FLOAT_FREQ_LIMIT:
            phase = np.array([frac_combo(zip(k, row)) for row in flat],
                             dtype=np.float64)
        else:
            phase = np.multiply(flat[:, 0], float(k[0]))
            for j in range(1, f.dim):
                phase = np.add(phase, np.multiply(flat[:, j], float(k[j])))
        unit = np.exp(np.multiply(TWO_PI * 1j, phase))
        out = np.add(np.multiply(c, unit), out)
    out = out.reshape(pts.shape[:-1])
    return complex(out) if pts.ndim == 1 else out


def _character_action(system, k):
    """(f, theta, kappa) of a polynomial kind, theta and kappa exact:
    chi_k(T^t x) = e(k.x + t (f.x + theta) + C(t,2) kappa).  A rotation or
    Heisenberg character turns at k . basis; a skew character (p, q) moves
    its base frequency by f = B^T q and turns at p.alpha + q.c + C(t,2)
    (B^T q).alpha."""
    if isinstance(system, SkewProduct):
        p, q = k[:system.base_dim], k[system.base_dim:]
        btq = tuple(sum(row[b] * qf for row, qf in zip(system.linear, q))
                    for b in range(system.base_dim))
        alpha = [Fraction(a) for a in system.base_alpha]
        return (btq + (0,) * system.fiber_dim,
                sum(m * a for m, a in zip(p, alpha))
                + sum(m * Fraction(c) for m, c in zip(q, system.const)),
                sum(m * a for m, a in zip(btq, alpha)))
    return ((0,) * system.obs_dim,
            sum(m * Fraction(b) for m, b in zip(k, system.phase_basis())),
            Fraction(0))


@functools.lru_cache(maxsize=1 << 16)   # pure in (system, k, n): saves time only
def ref_compose_term(system, k, n):
    """chi_k o T^n as (frequency, multiplier).  A polynomial kind gives
    (k + n f, e(r)), r the exact residue of n theta + C(n,2) kappa rounded
    once and e(r) = cos(2 pi r) + i sin(2 pi r); an automorphism gives
    (k A^n, 1) and raises FrequencyOverflowError past 63 bits."""
    if isinstance(system, ToralAutomorphism):
        mat = ref_mat_pow(system.matrix, n)
        new_k = tuple(sum(mat[i][j] * k[i] for i in range(system.dim))
                      for j in range(system.dim))
        if any(abs(v) >= 1 << 63 for v in new_k):
            raise FrequencyOverflowError(
                f"character frequency overflow composing with T^{n}: {k} "
                "-> a frequency beyond the 63-bit range", n)
        return new_k, 1.0 + 0.0j
    f, theta, kappa = _character_action(system, k)
    r = ref_residue(n * theta + n * (n - 1) // 2 * kappa)
    return (tuple(ki + n * fi for ki, fi in zip(k, f)),
            complex(math.cos(2 * math.pi * r), math.sin(2 * math.pi * r)))


def ref_compose_with_power(f, system, n, planted=None):
    """f o T^n: each term's c * multiplier added to 0.0 at its composed
    frequency, terms in order; `planted` maps frequencies to (frequency,
    multiplier) pairs that replace ref_compose_term's."""
    acc = {}
    for k, c in f.terms:
        nk, mult = (planted or {}).get(k) or ref_compose_term(system, k, n)
        acc[nk] = acc.get(nk, 0.0) + c * mult
    return Observable.from_dict(f.dim, acc)


def ref_pattern_phase(system, ks, coeffs, x):
    """(K, rates) with prod_j chi_{k_j}(T^{c_j . n} x) = e(K.x + sum_i n_i
    rates_i) for the characters ks and integer patterns coeffs = (c_j):
    each character moves by t (f.x + theta) + C(t,2) kappa at t = c_j . n,
    so rates_i sums c_ji (f.x + theta) + C(c_ji, 2) kappa, exactly; a
    quadratic part (sums of c_ji c_jl kappa) that is not an integer raises
    ValidationError."""
    r = len(coeffs[0])
    rates, quad = [Fraction(0)] * r, {}
    for k, c in zip(ks, coeffs):
        f, theta, kappa = _character_action(system, k)
        moved = sum(fi * Fraction(float(v)) for fi, v in zip(f, x)) + theta
        for i, ci in enumerate(c):
            rates[i] += ci * moved + ci * (ci - 1) // 2 * kappa
            for l in range(i, r):
                quad[i, l] = quad.get((i, l), 0) + ci * c[l] * kappa
    if any(Fraction(q).denominator != 1 for q in quad.values()):
        raise ValidationError("quadratic pattern phase: no closed form")
    return tuple(map(sum, zip(*ks))), rates


# ---------------------------------------------------------------------------
# Orbits


def _anchors(n0, count):
    """(anchors, which, t) for n in [n0, n0 + count): the distinct multiples
    of CHUNK at or below each n, the index of n's anchor among them, and
    t = n minus its anchor as float64."""
    n = np.arange(n0, n0 + count, dtype=np.int64)
    anchors, which = np.unique(n // CHUNK * CHUNK, return_inverse=True)
    return anchors.tolist(), which, (n - anchors[which]).astype(np.float64)


def _rotation(alphas, x, stride, n0, count):
    """T^{stride n} x of a rotation by `alphas` (doubles or exact
    rationals): per CHUNK-anchored chunk frac(base + t * step), base the
    exact residue of x + stride * anchor * alpha and step that of stride *
    alpha."""
    anchors, which, t = _anchors(n0, count)
    cols = []
    for xc, a in zip(map(Fraction, map(float, x)), map(Fraction, alphas)):
        base = [ref_residue(xc + stride * s * a) for s in anchors]
        cols.append(frac(np.array(base)[which] + t * ref_residue(stride * a)))
    return np.stack(cols, axis=1)


def _split(q, bits):
    """The residue of the rational q mod 1 as exact pieces h_1, ..., h_j and
    a float rest: h_i holds its bits from 2**-((i-1) g) to 2**-(i g),
    g = 52 - bits, up to the first i g >= bits + 10, and the rest is what
    is left, rounded once."""
    r, g, out = Fraction(q) % 1, 52 - bits, []
    for top in range(g, bits + 10 + g, g):
        out.append(Fraction(math.floor(r * 2 ** top), 2 ** top))
        r -= out[-1]
    return out, float(r)


def _units(values):
    """Rationals on the 2**-50 grid as integers mod 2**64, in units of
    2**-50."""
    return np.array([int(v * 2 ** 50) % 2 ** 64 for v in values], np.uint64)


def _laid(parts, which):
    """Per-anchor _split results of one piece laid over the points: the
    piece's _units and the rest."""
    return (_units([h for (h,), _ in parts])[which],
            np.array([r for _, r in parts], dtype=np.float64)[which])


def _quadratic(terms, rest):
    """frac(E + rest), E the exact residue mod 1 of the sum of n * h over
    terms (n a nonnegative integer array; h in _units, either sign),
    summed in wrapping uint64 arithmetic and reduced mod 2**50."""
    acc = np.zeros(len(rest), dtype=np.uint64)
    for n, units in terms:
        acc += np.asarray(n, np.uint64) * units
    return frac((acc & np.uint64(2 ** 50 - 1)).astype(np.float64) / 2.0 ** 50
                + rest)


def _skew(system, x, stride, n0, count):
    """T^{stride n} x of a skew product: the base columns as a rotation's;
    fiber f at m = m0 + s t, m0 = s * anchor, is c0 + t c1 + C(t,2) c2 mod 1
    with c0 = g + m0 P + C(m0,2) K, c1 = s (P + m0 K) + C(s,2) K and c2 =
    s^2 K (P = B y + c, K = B alpha, exact).  Split at 50, 38 and (25, 50)
    bits (_split at 2, 14 and 27), it is _quadratic of h0 + t h1 + C(t,2)
    (h2 + h2') with the rest (r0 + t r1) + C(t,2) r2."""
    y, g = x[:system.base_dim], x[system.base_dim:]
    s = stride
    anchors, which, t = _anchors(n0, count)
    ti = t.astype(np.int64)
    ones, ci = np.ones(count, np.int64), ti * (ti - 1) // 2
    ct = t * (t - 1.0) / 2.0
    cols = [_rotation(system.base_alpha, y, stride, n0, count)]
    alpha = [Fraction(a) for a in system.base_alpha]
    fy = [Fraction(float(v)) for v in y]
    for f in range(system.fiber_dim):
        P = Fraction(system.const[f]) + sum(
            B * yb for B, yb in zip(system.linear[f], fy))
        K = sum(B * a for B, a in zip(system.linear[f], alpha))
        m0s = [s * a for a in anchors]
        h0, r0 = _laid([_split(Fraction(float(g[f])) + m0 * P
                               + m0 * (m0 - 1) // 2 * K, 2)
                        for m0 in m0s], which)
        h1, r1 = _laid([_split(s * (P + m0 * K) + s * (s - 1) // 2 * K, 14)
                        for m0 in m0s], which)
        c2, r2 = _split(s * s * K, 27)
        cols.append(_quadratic(
            [(ones, h0), (ti, h1), *((ci, _units([h])) for h in c2)],
            (r0 + t * r1) + ct * r2)[:, None])
    return np.concatenate(cols, axis=1)


def _heisenberg(system, x, stride, n0, count, coords):
    """T^{stride n} x of the Heisenberg translation: x and y as rotation
    columns at alpha and beta, and in "state" coordinates z at m = m0 +
    s t, m0 = s * anchor: with x0 = x + m0 a, y + m0 b = F0 + yf0 (F0 its
    floor), s b = q + phi (q its floor) and g = floor(yf0 + t phi), z is
    c0 + t c1 + C(t,2) c2 - g x0 - g t (s a) mod 1 for c0 = z + C(m0,2) a b
    + m0 a y - F0 x0, c1 = (s m0 + C(s,2)) a b + s a y - (F0 + q) s a - q
    x0 and c2 = s^2 a b - 2 q s a.  c0, c1, x0, c2 and s a split at 50,
    38, 38, (25, 50) and 38 bits, it is _quadratic of the pieces with the
    rest ((r0 + t r1) + C(t,2) r2) - g (rx + t rs), g exact."""
    out = _rotation((system.alpha, system.beta), x[:2], stride, n0, count)
    if coords == "obs":
        return out
    fa, fb = Fraction(system.alpha), Fraction(system.beta)
    fx, fy, fz = (Fraction(float(v)) for v in x[:3])
    s = stride
    q = math.floor(s * fb)
    phi = s * fb - q
    anchors, which, t = _anchors(n0, count)
    ti = t.astype(np.int64)
    ones, ci = np.ones(count, np.int64), ti * (ti - 1) // 2
    ct = t * (t - 1.0) / 2.0
    c0s, c1s, x0s, yfs = [], [], [], []
    for m0 in (s * a for a in anchors):
        x0, y0 = fx + m0 * fa, fy + m0 * fb
        big = math.floor(y0)
        c0s.append(_split(fz + m0 * (m0 - 1) // 2 * fa * fb + m0 * fa * fy
                          - big * x0, 2))
        c1s.append(_split((s * m0 + s * (s - 1) // 2) * fa * fb
                          + s * fa * fy - (big + q) * s * fa - q * x0, 14))
        x0s.append(_split(x0, 14))
        yfs.append(y0 - big)
    # g exactly, over one power of two
    den = max(v.denominator for v in yfs + [phi])
    g = ((np.array([v.numerator * (den // v.denominator) for v in yfs],
                   dtype=object)[which]
          + ti.astype(object) * (phi.numerator * (den // phi.denominator)))
         // den).astype(np.int64)
    h0, r0 = _laid(c0s, which)
    h1, r1 = _laid(c1s, which)
    hx, rx = _laid([([-h for h in p], r) for p, r in x0s], which)
    c2, r2 = _split(s * s * fa * fb - 2 * q * s * fa, 27)
    (sa,), rs = _split(s * fa, 14)
    z = _quadratic(
        [(ones, h0), (ti, h1), *((ci, _units([h])) for h in c2), (g, hx),
         (g * ti, _units([-sa]))],
        ((r0 + t * r1) + ct * r2) - g * (rx + t * rs))
    return np.concatenate([out, z[:, None]], axis=1)


def _automorphism(system, x, stride, n0, count):
    """T^{stride n} x of a toral automorphism, a point at a time: A^(stride
    n) mod 2**K for x = X / 2**K, one product by A^stride per point, each
    coordinate the exact residue of a matrix row times x."""
    mod = 1 << max(float(v).as_integer_ratio()[1].bit_length() - 1
                   for v in x)
    xs = [Fraction(float(v)) for v in x]
    step = ref_mat_pow(system.matrix, stride, mod)
    mat = ref_mat_pow(system.matrix, stride * n0, mod)
    out = np.empty((count, system.dim))
    for i in range(count):
        out[i] = [ref_residue(sum(m * v for m, v in zip(row, xs)))
                  for row in mat]
        mat = ref_mat_mul(step, mat, mod)
    return out


def ref_orbit(system, x, stride, n0, count, coords="state"):
    """T^{stride n} x for n in [n0, n0 + count), by each kind's reference."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(system, Rotation):
        return _rotation(system.alpha, x, stride, n0, count)
    if isinstance(system, SkewProduct):
        return _skew(system, x, stride, n0, count)
    if isinstance(system, HeisenbergTranslation):
        return _heisenberg(system, x, stride, n0, count, coords)
    return _automorphism(system, x, stride, n0, count)


def ref_skew_step(system, p, n):
    """SkewProduct.step of one point: each base coordinate frac(y_b + r),
    r the exact residue of n alpha_b; each fiber frac(g_f + r_f), r_f the
    exact residue of sum_b B_fb (n y_b + C(n,2) alpha_b) + n c_f.  Each sum
    is a float64 sum, and frac of a double is its exact residue rounded
    once."""
    p = np.asarray(p, dtype=np.float64)
    y, g = p[:system.base_dim], p[system.base_dim:]
    base = [ref_residue(float(yb) + ref_residue(n * Fraction(a)))
            for yb, a in zip(y, system.base_alpha)]
    fiber = []
    for f in range(system.fiber_dim):
        shift = n * Fraction(system.const[f]) + sum(
            B * (n * Fraction(float(y[b]))
                 + n * (n - 1) // 2 * Fraction(system.base_alpha[b]))
            for b, B in enumerate(system.linear[f]))
        fiber.append(ref_residue(float(g[f]) + ref_residue(shift)))
    return np.array(base + fiber)


def ref_heisenberg_step(system, p, s):
    """HeisenbergTranslation.step of one point by s: the exact residues of
    x + s a, y + s b and z + C(s,2) a b + s a y - F (x + s a), F = floor(y
    + s b)."""
    x, y, z = (Fraction(float(v)) for v in p)
    a, b = Fraction(system.alpha), Fraction(system.beta)
    big = math.floor(y + s * b)
    return np.array([ref_residue(x + s * a), ref_residue(y + s * b),
                     ref_residue(z + s * (s - 1) // 2 * a * b + s * a * y
                                 - big * (x + s * a))])


def ref_quadratic(a, length):
    """n^2 a mod 1 for n < length, the vdc quadratic family's phases: at n
    = anchor + t it is c0 + t c1 + C(t,2) c2 with c0 = anchor^2 a, c1 =
    (2 anchor + 1) a and c2 = 2 a, split at 50, 38 and (25, 50) bits, so
    _quadratic of h0 + t h1 + C(t,2) (h2 + h2') with the rest (r0 + t r1)
    + C(t,2) r2, as a skew product's fiber."""
    fa = Fraction(a)
    anchors, which, t = _anchors(0, length)
    ti = t.astype(np.int64)
    h0, r0 = _laid([_split(s * s * fa, 2) for s in anchors], which)
    h1, r1 = _laid([_split((2 * s + 1) * fa, 14) for s in anchors], which)
    c2, r2 = _split(2 * fa, 27)
    return _quadratic([(np.ones(length, np.int64), h0), (ti, h1),
                       *((ti * (ti - 1) // 2, _units([h])) for h in c2)],
                      (r0 + t * r1) + (t * (t - 1.0) / 2.0) * r2)


# ---------------------------------------------------------------------------
# Means


def ref_means(v, checkpoints):
    """The means (1/N) sum_{n<N} v[r, n] of the rows of v (one row for a
    1-D v) at each checkpoint N, as a (checkpoints, rows) array: per part,
    math.fsum over the pieces of [0, N) cut at the multiples of CHUNK (the
    whole chunks before N's chunk, then N's prefix of its own), each summed
    by math.fsum, divided by N.  No other checkpoint enters."""
    v = np.atleast_2d(v)
    out = np.empty((len(checkpoints), len(v)), dtype=np.complex128)
    for r, row in enumerate(v):
        for part, x in ((out.real, row.real), (out.imag, row.imag)):
            whole = [math.fsum(x[a:a + CHUNK].tolist())
                     for a in range(0, checkpoints[-1], CHUNK)]
            for i, cp in enumerate(checkpoints):
                c = (cp - 1) // CHUNK
                part[i, r] = math.fsum(
                    whole[:c] + [math.fsum(x[c * CHUNK:cp].tolist())]) / cp
    return out


def ref_tensor_values(fs, pts):
    """prod_j f_j(pts[..., j, :]): a ones buffer times each factor in turn,
    each product a fresh np.multiply(product so far, factor).  numpy rounds
    a fresh complex product the same at every length (in place, one value
    rounds its own way), so one product can cover a whole stream.  The
    operand order is kept: numpy's complex multiply is not commutative bit
    for bit, and `vals * evaluate(...)` of 16,384 values or more lets numpy
    reuse the temporary factor as the output, with the operands swapped."""
    vals = np.ones(pts.shape[:-2], dtype=np.complex128)
    for j, f in enumerate(fs):
        vals = np.multiply(vals, evaluate(f, pts[..., j, :]))
    return vals


def ref_integrate_tensor(points, fs):
    """The integral of prod_j f_j over an (S, N, d, cols) cloud: each
    start's ref_means at N, then math.fsum over the starts divided by S,
    per part."""
    S, N = points.shape[:2]
    means = ref_means(ref_tensor_values(fs, points), [N])[0]
    return complex(math.fsum(means.real.tolist()) / S,
                   math.fsum(means.imag.tolist()) / S)


def ref_geometric_mean(coeffs, basis, checkpoints):
    """(1/N) sum_{n<N} e(n theta), theta = coeffs . basis exactly, at each
    checkpoint N, as a dict: the values exp(2 pi i phase) of the rotation
    from 0 at theta, averaged by ref_means."""
    theta = sum(c * Fraction(b) for c, b in zip(coeffs, basis))
    phase = _rotation([theta], [0.0], 1, 0, checkpoints[-1])[:, 0]
    values = np.exp(2j * np.pi * phase)
    means = ref_means(values, checkpoints)[:, 0]
    return dict(zip(checkpoints, means.tolist()))


def ref_pattern_average(system, fs, coeffs, x, mean):
    """sum over the term tuples (c, (k_j)) of fs of c e(K.x) prod_i
    mean(rate_i), K = sum_j k_j and rate_i = sum_j coeffs[j][i] k_j, each
    tuple's value formed left to right and added to 0.0 in order: a closed
    form or factorized grid on a phase basis, with mean(rate) the geometric
    mean of e(n rate . basis)."""
    xo = exact.obs_coords(system, x)
    total = 0.0 + 0.0j
    for coeff, ks in exact.term_tuples(list(fs)):
        val = coeff * exact.character_at(tuple(map(sum, zip(*ks))), xo)
        for i in range(len(coeffs[0])):
            val *= mean(tuple(sum(c[i] * k[col] for c, k in zip(coeffs, ks))
                              for col in range(len(ks[0]))))
        total += val
    return total


def ref_grid_mean(system, fs, coeffs, x, N):
    """(1/N^r) sum over n in [0, N)^r of prod_j f_j(T^{c_j . n} x), c_j =
    coeffs[j] with c_j[0] in {0, 1}: one orbit row per outer index, each
    row's parts summed by math.fsum, math.fsum over the rows, divided by
    N^r."""
    re, im = [], []
    for outer in np.ndindex((N,) * (len(coeffs[0]) - 1)):
        vals = np.ones(N, dtype=np.complex128)
        for f, c in zip(fs, coeffs):
            offset = sum(o * ci for o, ci in zip(outer, c[1:]))
            pts = orbit_points(system, x, 1, offset, N if c[0] else 1,
                               coords="obs")
            vals *= evaluate(f, pts) if c[0] else evaluate(f, pts)[0]
        re.append(math.fsum(vals.real.tolist()))
        im.append(math.fsum(vals.imag.tolist()))
    size = N ** len(coeffs[0])
    return complex(math.fsum(re) / size, math.fsum(im) / size)


def ref_folner(action, f, x, box):
    """folner_average as one row walk: row m is f along the first map's
    orbit from the second map's T^(m p2) x, math.fsum per row and over the
    rows, divided by the box size."""
    (s1, p1), (s2, p2) = action
    re, im = [], []
    for m in range(box.n2):
        vals = evaluate(f, orbit_points(s1, s2.step(x, m * p2), p1, 0,
                                        box.n1, coords="obs"))
        re.append(math.fsum(vals.real.tolist()))
        im.append(math.fsum(vals.imag.tolist()))
    return complex(math.fsum(re) / box.size, math.fsum(im) / box.size)


# ---------------------------------------------------------------------------
# Seminorms, van der Corput, the multilinear bound


def ref_raised_exact(system, f, order, H, planted=None):
    """|||f|||^(2^order) by the Host-Kra recursion: |integral f|^2 at order
    1, otherwise math.fsum over h <= H of the value one order down at f *
    g, g = conj(f) o T^h, over H, every g composed afresh
    (ref_compose_with_power, planted[h - 1] overriding compositions at h
    when given).  Products are multiply's, except that at order 2 only the
    Haar coefficient of f g is formed: multiply's pairs that meet at
    frequency 0, c_k g^(-k) over f's terms in order, added to 0.0; a
    product past TERM_CAP term pairs raises multiply's error there too."""
    if order == 1:
        return abs(integral_haar(f)) ** 2
    fc = conjugate(f)
    vals = []
    for h in range(1, H + 1):
        g = ref_compose_with_power(fc, system, h, planted and planted[h - 1])
        if order > 2:
            vals.append(ref_raised_exact(system, multiply(f, g), order - 1, H,
                                         planted))
            continue
        if f.term_count * g.term_count > observables.TERM_CAP:
            multiply(f, g)
        coeffs, acc = dict(g.terms), 0.0
        for k, c in f.terms:
            if (neg := tuple(-v for v in k)) in coeffs:
                acc = acc + c * coeffs[neg]
        vals.append(abs(acc) ** 2)
    return math.fsum(vals) / H


def ref_raised_mc(shifts, orbit, order, H, N, product=np.multiply):
    """The Monte Carlo recursion with one Birkhoff mean per lag:
    `product(vals, factor)` folds each factor into ones(N) in list order;
    the mean is math.fsum per part over N."""
    if order == 1:
        vals = np.ones(N, dtype=np.complex128)
        for s, c in shifts:
            seg = orbit[s:s + N]
            vals = product(vals, np.conj(seg) if c else seg)
        return abs(complex(math.fsum(vals.real.tolist()) / N,
                           math.fsum(vals.imag.tolist()) / N)) ** 2
    return math.fsum(ref_raised_mc(
        shifts + [(s + h, not c) for s, c in shifts], orbit, order - 1, H, N,
        product) for h in range(1, H + 1)) / H


def ref_van_der_corput(seq, H):
    """Both sides of the van der Corput check: N = len - H, each mean
    math.fsum per part over N; the left side sums |mean|^2 over the
    components, the right side is math.fsum over h of |mean of
    sum_c x_n conj(x_{n+h})|, over H, each product np.multiply(x, conj)."""
    xs = np.asarray(seq, dtype=np.complex128)
    if xs.ndim == 1:
        xs = xs[:, None]
    N = xs.shape[0] - H

    def mean(v):
        return complex(math.fsum(v.real.tolist()) / N,
                       math.fsum(v.imag.tolist()) / N)
    means = np.array([mean(xs[:N, c]) for c in range(xs.shape[1])])
    rhs = math.fsum(abs(mean(np.sum(np.multiply(xs[:N], np.conj(
        xs[h:h + N])), axis=1))) for h in range(1, H + 1)) / H
    return VdcReport(float(np.sum(np.abs(means) ** 2)), rhs, N, H)


def ref_bound_lhs(system, fs, sample_count, N, seed_rng):
    """The multilinear bound's left side from one orbit per sample and
    factor (factor j from its own Haar start at stride j + 1) and one
    math.fsum per sample and part."""
    starts = [system.haar_block(seed_rng, sample_count) for _ in fs]
    squares = []
    for s in range(sample_count):
        vals = np.ones(N, dtype=np.complex128)
        for j, f in enumerate(fs):
            vals = np.multiply(vals, evaluate(f, orbit_points(
                system, starts[j][s], j + 1, 0, N, coords="obs")))
        re, im = math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist())
        squares.append((re / N) ** 2 + (im / N) ** 2)
    return math.sqrt(math.fsum(squares) / sample_count)


# ---------------------------------------------------------------------------
# Ergodicity certificates


def ref_rotation_resonance(alpha, bound):
    """The first k != 0 with |k|_inf <= bound, in order of sup norm, then
    l1 norm, then lexicographic order, whose k . alpha is within 1e-9 of an
    integer in float64 and within 1e-12 exactly; None when there is none."""
    m = len(alpha)
    grids = np.meshgrid(*[np.arange(-bound, bound + 1)] * m, indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=1)
    ks = ks[np.any(ks != 0, axis=1)]
    d = np.abs(frac(ks @ np.asarray(alpha) + 0.5) - 0.5)
    order = np.lexsort((np.abs(ks).sum(axis=1), np.abs(ks).max(axis=1)))
    for idx in order:
        if d[idx] <= 1e-9:
            kk = tuple(int(v) for v in ks[idx])
            near = sum(ki * Fraction(a) for ki, a in zip(kk, alpha))
            if abs(ref_residue(near + Fraction(1, 2)) - 0.5) <= 1e-12:
                return kk
    return None
