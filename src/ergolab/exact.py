"""Closed-form values of character averages on phase-linear systems.

For rotations (and Heisenberg base characters) composition multiplies a
character by e(n * theta) with a rate theta that is an integer combination of
the rotation numbers.  Averages of products of characters then collapse, term
tuple by term tuple, into products of normalized geometric sums

    G_N(theta) = (1/N) sum_{n<N} e(n*theta)
               = 1                                   if theta is an integer
               = (1 - e(N*theta)) / (N * (1 - e(theta)))  otherwise,

with N*theta reduced mod 1 in exact rational arithmetic.  These values are
the independent oracle against which the streamed numerical paths are
validated; nothing here shares arithmetic with the streaming code.
"""

from __future__ import annotations

from itertools import product as iter_product

import numpy as np

from .errors import ResourceCapError, ValidationError
from .observables import Observable
from .phases import PhaseForm, e
from .systems import DynamicalSystem, phase_form

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


def term_tuples(fs: list[Observable], cap: int = TUPLE_CAP):
    """All ways of picking one term from each observable: (coeff, [k_j])."""
    total = 1
    for f in fs:
        total *= max(1, f.term_count)
        if total > cap:
            raise ResourceCapError(
                f"term-tuple expansion exceeds cap {cap}")
    for combo in iter_product(*[f.terms for f in fs]):
        coeff = 1.0 + 0.0j
        ks = []
        for k, c in combo:
            coeff *= c
            ks.append(k)
        yield coeff, ks


def _vec_sum(ks, weights) -> tuple[int, ...]:
    dim = len(ks[0])
    return tuple(sum(w * k[c] for w, k in zip(weights, ks))
                 for c in range(dim))


def _require_form(system: DynamicalSystem, k) -> PhaseForm:
    form = phase_form(system, k)
    if form is None:
        raise ValidationError(
            "closed-form averages need a phase-linear system "
            "(rotation or Heisenberg translation)")
    return form


def obs_coords(system: DynamicalSystem, x) -> np.ndarray:
    x = system.check_point(np.asarray(x, dtype=np.float64))
    return x[: system.obs_dim]


def birkhoff_closed(system: DynamicalSystem, f: Observable, x, N: int) -> complex:
    """Closed form of (1/N) sum_n f(T^n x)."""
    xo = obs_coords(system, x)
    total = 0.0 + 0.0j
    for k, c in f.terms:
        total += c * character_at(k, xo) * geometric_mean_closed(
            _require_form(system, k), N)
    return total


def linear_closed(system: DynamicalSystem, fs: list[Observable], x, N: int) -> complex:
    """Closed form of (1/N) sum_n prod_j f_j(T^{j n} x)."""
    xo = obs_coords(system, x)
    total = 0.0 + 0.0j
    for coeff, ks in term_tuples(fs):
        K = _vec_sum(ks, [1] * len(ks))
        rate = _vec_sum(ks, list(range(1, len(ks) + 1)))
        total += coeff * character_at(K, xo) * geometric_mean_closed(
            _require_form(system, rate), N)
    return total


def square_closed(system: DynamicalSystem, fs: list[Observable], x, N: int) -> complex:
    """Closed form of (1/N^2) sum_{n,m} prod_j f_j(T^{n+(j-1)m} x);
    factorizes as e(K.x) G_N(K) G_N(M) per term tuple."""
    xo = obs_coords(system, x)
    total = 0.0 + 0.0j
    for coeff, ks in term_tuples(fs):
        K = _vec_sum(ks, [1] * len(ks))
        M = _vec_sum(ks, list(range(len(ks))))
        total += (coeff * character_at(K, xo)
                  * geometric_mean_closed(_require_form(system, K), N)
                  * geometric_mean_closed(_require_form(system, M), N))
    return total


def cube_closed(system: DynamicalSystem,
                fs_by_eps: dict[tuple[int, ...], Observable],
                x, N: int) -> complex:
    """Closed form of the k-cube average (1/N^k) sum_{n in [0,N)^k}
    prod_eps f_eps(T^{n . eps} x)."""
    xo = obs_coords(system, x)
    eps_list = sorted(fs_by_eps)
    k = len(eps_list[0])
    total = 0.0 + 0.0j
    for coeff, ks in term_tuples([fs_by_eps[eps] for eps in eps_list]):
        K = _vec_sum(ks, [1] * len(ks))
        val = coeff * character_at(K, xo)
        for i in range(k):
            rate = _vec_sum(ks, [eps[i] for eps in eps_list])
            val *= geometric_mean_closed(_require_form(system, rate), N)
        total += val
    return total


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
