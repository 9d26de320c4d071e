"""Closed-form values of character averages on polynomial systems.

Rotations, skew products and Heisenberg base characters move a character
by a polynomial phase (DynamicalSystem.character_action), so along a grid
pattern a character tuple has phase K.x + sum_i n_i theta_i whenever its
quadratic part has integer coefficients: on every rotation and Heisenberg
tuple, and on the skew tuples whose C(t,2) fiber terms sum to integers.
`phase_table` groups the tuples by that phase, with exact rates, in one
convolution over the factors, and each average collapses, entry by entry,
into e(K.x) times one normalized geometric sum per grid axis

    G_N(theta) = (1/N) sum_{n<N} e(n*theta)
               = 1                                   if theta is an integer
               = (1 - e(N*theta)) / (N * (1 - e(theta)))  otherwise,

evaluated from the signed residues of theta and N*theta, reduced exactly
(geometric_mean_closed).  The factorized grid path in averaging.py reads the
same table and streams G_N; here G_N is the closed form.  The orbit streams
and the direct grid walk share neither, so they are the independent side.
The automorphism has no closed form here.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from operator import add, mul

import numpy as np

from .errors import ResourceCapError, ValidationError
from .observables import Observable
from .phases import PhaseForm, dyadic_align, dyadic_combo, e
from .systems import DynamicalSystem, binom2

TUPLE_CAP = 10 ** 6


def geometric_mean_closed(form: PhaseForm, N: int) -> complex:
    """(1/N) sum_{n<N} e(n*theta) in closed form, exact integral detection.
    With r_1 and r_N the signed residues of theta and N*theta (exact, each
    rounded once), 1 - e(r) = -2i sin(pi r) e(r/2) gives
    sin(pi r_N) / (N sin(pi r_1)) e((r_N - r_1)/2): no difference of nearly
    equal numbers, so the relative error stays near rounding at every
    residue."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if form.is_integral():
        return 1.0 + 0.0j
    r1, rn = form.nearest_residue_times(1), form.nearest_residue_times(N)
    return math.sin(math.pi * rn) / (N * math.sin(math.pi * r1)) \
        * e((rn - r1) / 2)


def character_at(k: tuple[int, ...], x) -> complex:
    """e(k . x) for a point given in [0,1) coordinates (obs coordinates)."""
    x = np.asarray(x, dtype=np.float64)
    acc = 0.0
    for ki, xi in zip(k, x):
        acc += ki * float(xi)
    if acc == 0.0:
        return 1.0 + 0.0j
    return e(acc - np.floor(acc))


def term_tuples(fs: list[Observable]):
    """All ways of picking one term from each observable: (coeff, [k_j])."""
    total = 1
    for f in fs:
        total *= max(1, f.term_count)
        if total > TUPLE_CAP:
            raise ResourceCapError(
                f"term-tuple expansion exceeds cap {TUPLE_CAP}")
    for combo in iter_product(*[f.terms for f in fs]):
        coeff = 1.0 + 0.0j
        ks = []
        for k, c in combo:
            coeff *= c
            ks.append(k)
        yield coeff, ks


def obs_coords(system: DynamicalSystem, x) -> np.ndarray:
    x = system.check_point(np.asarray(x, dtype=np.float64))
    return x[: system.obs_dim]


def phase_table(system: DynamicalSystem, fs: list[Observable], coeffs, x
                ) -> list[tuple[complex, tuple[int, ...], list[PhaseForm]]]:
    """prod_j f_j(T^{c_j . n} x), n in Z^r, x in observable coordinates, as
    sum coeff e(K.x + sum_i n_i forms[i]) over entries (coeff, K, forms).  A
    term tuple has K = sum_j k_j and axis rates sum_j c_ji (f_j.x + theta_j)
    + C(c_ji,2) kappa_j, exact (character_action), when its quadratic parts
    sum_j c_ji c_jl kappa_j (C(c.n,2) expanded over the axes) are integers;
    else this raises ValidationError.  The table is their convolution over
    j: from {0: 1+0j}, each factor's terms multiply every entry in
    term_tuples' order, and tuples whose keys (K, the rate numerators, the
    quadratic parts) meet add up, so without meetings the coefficients and
    their order are term_tuples', bit for bit.
    ResourceCapError past TUPLE_CAP (entry, term) pairs in one step."""
    if not all(f.terms for f in fs):
        return []
    acts = [[(k, c, system.character_action(k)) for k, c in f.terms]
            for f in fs]
    xs = [dyadic_combo([(1, v)]) for v in map(float, x)]
    (*xs, unit), top = dyadic_align(*xs, (1, system.shift))
    r, dim = len(coeffs[0]), len(xs)
    table = {(0,) * (dim + r + r * (r + 1) // 2): 1 + 0j}
    for terms, c in zip(acts, coeffs):
        if len(table) * len(terms) > TUPLE_CAP:
            raise ResourceCapError(f"phase table step of {len(table)} x "
                                   f"{len(terms)} pairs exceeds cap {TUPLE_CAP}")
        pieces = []
        for k, coeff, (f, theta, kappa) in terms:
            moved = sum(map(mul, f, xs)) + theta * unit
            rates = [ci * moved + binom2(ci) * kappa * unit for ci in c]
            quad = [ci * cl * kappa for i, ci in enumerate(c) for cl in c[i:]]
            pieces.append((k + tuple(rates + quad), coeff))
        table, old = {}, table
        for sums, v in old.items():
            for piece, coeff in pieces:
                key = tuple(map(add, sums, piece))
                table[key] = table.get(key, -0j) + v * coeff  # -0j + z is z
    if any(q & ((1 << system.shift) - 1)
           for sums in table for q in sums[dim + r:]):
        raise ValidationError("quadratic pattern phase: no closed form")
    ulp = math.ldexp(1.0, -top)           # a double: top <= 1074
    return [(v, sums[:dim], [PhaseForm((num,), (ulp,))
                             for num in sums[dim:dim + r]])
            for sums, v in table.items()]


def grid_mean(entries, x, axis_mean) -> complex:
    """sum over phase_table entries of coeff e(K.x) prod_i axis_mean(forms[i]),
    summed in entry order."""
    total = 0.0 + 0.0j
    for coeff, K, forms in entries:
        val = coeff * character_at(K, x)
        for form in forms:
            val *= axis_mean(form)
        total += val
    return total


def _grid_closed(system: DynamicalSystem, fs: list[Observable], coeffs, x,
                 N: int) -> complex:
    """(1/N^r) sum_{n in [0,N)^r} prod_j f_j(T^{c_j . n} x) in closed form."""
    xo = obs_coords(system, x)
    return grid_mean(phase_table(system, fs, coeffs, xo), xo,
                     lambda form: geometric_mean_closed(form, N))


def birkhoff_closed(system: DynamicalSystem, f: Observable, x, N: int) -> complex:
    """Closed form of (1/N) sum_n f(T^n x)."""
    return _grid_closed(system, [f], [(1,)], x, N)


def linear_closed(system: DynamicalSystem, fs: list[Observable], x, N: int) -> complex:
    """Closed form of (1/N) sum_n prod_j f_j(T^{j n} x)."""
    return _grid_closed(system, fs, [(j,) for j in range(1, len(fs) + 1)], x, N)


def square_closed(system: DynamicalSystem, fs: list[Observable], x, N: int) -> complex:
    """Closed form of (1/N^2) sum_{n,m} prod_j f_j(T^{n+(j-1)m} x)."""
    return _grid_closed(system, fs, [(1, j) for j in range(len(fs))], x, N)


def cube_closed(system: DynamicalSystem,
                fs_by_eps: dict[tuple[int, ...], Observable],
                x, N: int) -> complex:
    """Closed form of the k-cube average (1/N^k) sum_{n in [0,N)^k}
    prod_eps f_eps(T^{n . eps} x)."""
    eps_list = sorted(fs_by_eps)
    return _grid_closed(system, [fs_by_eps[eps] for eps in eps_list],
                        eps_list, x, N)


def box_closed(rates: tuple, f: Observable, x, n1: int, n2: int) -> complex:
    """Closed form of (1/(n1 n2)) sum f(S1^n S2^m x) for commuting rotations.

    rates = ((power1, basis1), (power2, basis2)): map i rotates by
    power_i * basis_i, kept as an (int, floats) pair so reductions stay exact.
    """
    (p1, basis1), (p2, basis2) = rates
    total = 0.0 + 0.0j
    for k, c in f.terms:
        f1 = PhaseForm(tuple(p1 * v for v in k), basis1)
        f2 = PhaseForm(tuple(p2 * v for v in k), basis2)
        total += (c * character_at(k, x)
                  * geometric_mean_closed(f1, n1)
                  * geometric_mean_closed(f2, n2))
    return total
