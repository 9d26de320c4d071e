"""The closed geometric mean G_N against a high-precision referee, and every
scheme's stream against its closed form at rates near an integer.

G_N(theta) = (1/N) sum_{n<N} e(n theta) is the factor that every closed form
in `exact` multiplies.  The referee evaluates (1 - e(N theta)) /
(N (1 - e(theta))) in mpmath at 60 digits from the exact residues of theta
and N theta, so it shares nothing with the sine form in
`geometric_mean_closed` but the rational it is given.  Budgets are stated
before the runs: REL_BUDGET is relative to |G_N|, STREAM_BUDGET absolute.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import exact
from ergolab.averaging import (FolnerBox, IteratedMap, birkhoff_average,
                               cube_average, cube_eps_index, folner_average,
                               multilinear_average_linear,
                               multilinear_average_square)
from ergolab.observables import Observable
from ergolab.phases import PhaseForm
from ergolab.systems import (GOLDEN, HeisenbergTranslation, Rotation,
                             SkewProduct)

REL_BUDGET = 2e-15
STREAM_BUDGET = 1e-12
DIGITS = 60


def referee(form: PhaseForm, N: int) -> mpmath.mpc:
    """(1 - e(N theta)) / (N (1 - e(theta))) at DIGITS digits, from the
    exact residues of theta and N theta over 2**shift; 1 when theta is an
    integer."""
    mask = (1 << form.shift) - 1
    r1, rn = form.num & mask, N * form.num & mask
    if r1 == 0:
        return mpmath.mpc(1)
    with mpmath.workdps(DIGITS):
        t1 = mpmath.ldexp(mpmath.mpf(r1), -form.shift)
        tn = mpmath.ldexp(mpmath.mpf(rn), -form.shift)
        return (1 - mpmath.expjpi(2 * tn)) / (N * (1 - mpmath.expjpi(2 * t1)))


def relative_error(form: PhaseForm, N: int) -> float:
    """|got - want| / |want|; an exact zero must come out as zero."""
    want = referee(form, N)
    got = exact.geometric_mean_closed(form, N)
    if want == 0:
        return 0.0 if got == 0 else math.inf
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpc(got.real, got.imag) - want) / abs(want))


CENTERS = (0.0, 0.5, 1 / 3, 1.0)
SCAN = [c + s * 10.0 ** -j for c in CENTERS for s in (1, -1)
        for j in range(1, 16)] + list(CENTERS)
SCAN_N = (1, 7, 10 ** 3, 10 ** 6, 2 ** 40 + 3, 2 ** 62)


@pytest.mark.parametrize("N", SCAN_N)
def test_closed_geometric_mean_matches_the_referee_on_the_scan(N):
    worst = max(relative_error(PhaseForm((1,), (theta,)), N) for theta in SCAN)
    assert worst <= REL_BUDGET


@settings(max_examples=400, deadline=None)
@given(q=st.integers(1, 6), data=st.data(), shift=st.integers(20, 120),
       delta=st.integers(-2 ** 16, 2 ** 16),
       N=st.one_of(st.integers(1, 100), st.integers(1, 2 ** 62)))
def test_closed_geometric_mean_matches_the_referee_near_p_over_q(
        q, data, shift, delta, N):
    # theta = (floor(p 2**shift / q) + delta) / 2**shift, exactly
    p = data.draw(st.integers(0, q))
    form = PhaseForm(((p << shift) // q + delta,), (math.ldexp(1.0, -shift),))
    assert relative_error(form, N) <= REL_BUDGET


def test_integral_rates_and_one_term_means_are_exact():
    for theta in (0.0, 1.0, -3.0, 2.0 ** 60):
        assert exact.geometric_mean_closed(PhaseForm((1,), (theta,)), 7) == 1
    for theta in SCAN:
        form = PhaseForm((1,), (theta,))
        assert exact.geometric_mean_closed(form, 1) == 1
    # N theta an integer, theta not: the mean is exactly 0
    assert exact.geometric_mean_closed(PhaseForm((1,), (0.5,)), 4) == 0
    assert exact.geometric_mean_closed(PhaseForm((3,), (0.25,)), 8) == 0


# ---------------------------------------------------------------------------
# Streams against closed forms where a residue lies near an integer
#
# Birkhoff and linear streams run at N = 1,000: a float stream adds u * rate
# for in-window offsets u < CHUNK, and on Rotation(1 - 2**-53) that product
# rounds the same way at every u, so its error grows with N (7.7e-12 at
# N = 1e5, where the closed form is within 6e-16 of mpmath).

def _terms(dim, pairs):
    return Observable.from_dict(dim, dict(pairs))


ROT_F = _terms(1, [((1,), 0.5), ((-2,), 0.25j), ((3,), -0.5)])
ROTATIONS = [Rotation((2.0 ** -40,)), Rotation((1 - 2.0 ** -40,)),
             Rotation((1 - 2.0 ** -53,))]
HEISENBERG = HeisenbergTranslation(1e-9, GOLDEN)
HEIS_F = _terms(2, [((1, 0), 0.5), ((-2, 0), 0.25j), ((1, 1), -0.5)])
# base rotation by 1/2 and slope 2: the C(t,2) term 2 q (1/2) is an integer,
# so every tuple is linear; from y = 1/2 the fiber turns by c = 1 - 2**-40,
# so a rate is q c mod 1 (p even), from y = 1/4 it is q/2 + q c mod 1
SKEW = SkewProduct((0.5,), ((2,),), (1 - 2.0 ** -40,))
SKEW_F = _terms(2, [((0, 1), 0.5), ((2, -1), 0.25j), ((2, 2), -0.5)])

CASES = ([(s, ROT_F, np.array([0.3])) for s in ROTATIONS]
         # e((1, 1)) moves at 0.5 + 0.49999999999999994 = 1 - 2**-53
         + [(Rotation((0.5, 0.49999999999999994)), Observable.character((1, 1)),
             np.array([0.1, 0.2]))]
         + [(HEISENBERG, HEIS_F, np.array([0.3, 0.7, 0.1]))]
         + [(SKEW, SKEW_F, np.array([y, 0.3])) for y in (0.5, 0.25)])
IDS = ["rot-2^-40", "rot-1-2^-40", "rot-1-2^-53", "rot-near-half",
       "heisenberg-1e-9", "skew-c-near-1-y-half", "skew-c-near-1-y-quarter"]


def _partner(f):
    """A second and third factor: f's conjugate frequencies, and one term."""
    return [Observable.from_dict(f.dim, {tuple(-v for v in k): 1.0
                                         for k, _ in f.terms}),
            Observable.character(f.terms[0][0])]


@pytest.mark.parametrize("system,f,x", CASES, ids=IDS)
def test_streams_match_closed_forms_near_integer_rates(system, f, x):
    g, h = _partner(f)
    N = 1000
    pairs = [(birkhoff_average(system, f, x, N),
              exact.birkhoff_closed(system, f, x, N)),
             (multilinear_average_linear(system, [f, g], x, N),
              exact.linear_closed(system, [f, g], x, N))]
    for N in (7, 100):
        for mode in ("direct", "factorized"):
            pairs.append((multilinear_average_square(system, [f, g, h], x, N,
                                                     mode=mode),
                          exact.square_closed(system, [f, g, h], x, N)))
            fs_by_eps = dict(zip(cube_eps_index(2), [f, g, h]))
            pairs.append((cube_average(system, fs_by_eps, x, N, mode=mode),
                          exact.cube_closed(system, fs_by_eps, x, N)))
    if isinstance(system, Rotation):
        box = FolnerBox(300, 200)
        pairs.append((folner_average((IteratedMap(system, 1),
                                      IteratedMap(system, 2)), f, x, box),
                      exact.box_closed(((1, system.alpha), (2, system.alpha)),
                                       f, x, box.n1, box.n2)))
    assert max(abs(a - b) for a, b in pairs) <= STREAM_BUDGET
