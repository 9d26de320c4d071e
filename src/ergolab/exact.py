"""Closed-form values of character averages on polynomial systems.

Rotations, skew products and Heisenberg base characters move a character
by a polynomial phase (DynamicalSystem.character_action), so along a grid
pattern a character tuple has phase K.x + sum_i n_i theta_i whenever its
quadratic part has integer coefficients: on every rotation and Heisenberg
tuple, and on the skew tuples whose C(t,2) fiber terms sum to integers.
`pattern_phase` builds that phase with exact rates, and each average
collapses, tuple by tuple, into e(K.x) times one normalized geometric sum
per grid axis

    G_N(theta) = (1/N) sum_{n<N} e(n*theta)
               = 1                                   if theta is an integer
               = (1 - e(N*theta)) / (N * (1 - e(theta)))  otherwise,

with N*theta reduced mod 1 exactly.  The factorized grid path in
averaging.py reads the same pattern phase and streams G_N; here G_N is the
closed form.  The orbit streams and the direct grid walk share neither, so
they are the independent side.  The automorphism has no closed form here.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from operator import mul

import numpy as np

from .errors import ResourceCapError, ValidationError
from .observables import Observable
from .phases import PhaseForm, dyadic_align, dyadic_combo, e
from .systems import DynamicalSystem, binom2

TUPLE_CAP = 10 ** 6


def geometric_mean_closed(form: PhaseForm, N: int) -> complex:
    """(1/N) sum_{n<N} e(n*theta) in closed form, exact integral detection."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if form.is_integral():
        return 1.0 + 0.0j
    theta, theta_n = form.frac(), form.frac_times(N)
    if theta == 0.0:      # a residue just below 1 rounded up: take it signed
        theta, theta_n = (form.nearest_residue_times(n) for n in (1, N))
    num = 1.0 - e(theta_n)
    den = N * (1.0 - e(theta))
    return num / den


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


def pattern_phase(system: DynamicalSystem, ks, coeffs, x
                  ) -> tuple[tuple[int, ...], list[PhaseForm]]:
    """(K, forms) for prod_j chi_{k_j}(T^{c_j . n} x), n in Z^r, x in
    observable coordinates: K = sum_j k_j and forms[i] the exact rate of
    axis i, so the phase is K.x + sum_i n_i forms[i].  As C(c.n, 2) =
    sum_i (c_i^2 C(n_i,2) + C(c_i,2) n_i) + sum_{i<l} c_i c_l n_i n_l, that
    holds when every coefficient of C(n_i,2) and n_i n_l is an integer;
    otherwise this raises ValidationError.  All sums are of integers."""
    r = len(coeffs[0])
    acts = [system.character_action(k) for k in ks]
    xs = [dyadic_combo([(1, v)]) for v in map(float, x)]
    (*xs, unit), top = dyadic_align(*xs, (1, system.shift))
    rates, quad = [0] * r, {}
    for (f, theta, kappa), c in zip(acts, coeffs):
        moved = sum(map(mul, f, xs)) + theta * unit
        for i, ci in enumerate(c):
            rates[i] += ci * moved + binom2(ci) * kappa * unit
            for l in range(i, r):
                quad[i, l] = quad.get((i, l), 0) + ci * c[l] * kappa
    if any(q & ((1 << system.shift) - 1) for q in quad.values()):
        raise ValidationError("quadratic pattern phase: no closed form")
    ulp = math.ldexp(1.0, -top)           # a double: top <= 1074
    return tuple(map(sum, zip(*ks))), [PhaseForm((v,), (ulp,)) for v in rates]


def _grid_closed(system: DynamicalSystem, fs: list[Observable], coeffs, x,
                 N: int) -> complex:
    """(1/N^r) sum_{n in [0,N)^r} prod_j f_j(T^{c_j . n} x) in closed form."""
    xo = obs_coords(system, x)
    total = 0.0 + 0.0j
    for coeff, ks in term_tuples(fs):
        K, forms = pattern_phase(system, ks, coeffs, xo)
        val = coeff * character_at(K, xo)
        for form in forms:
            val *= geometric_mean_closed(form, N)
        total += val
    return total


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
