"""Rate tables and matrix-power ladders against exact references.

A polynomial kind keeps its real parameters as integers over one power of
two and composes a character with one dot product.  The composition, the
pattern phase (one-term entries of `exact.phase_table`) and the Heisenberg
point step are checked against reference.py's Fraction forms of the same
arithmetic; the bits (and the exact rates) must agree.  The automorphism's
ladder of exact powers is checked against square-and-multiply and plain
repeated products, for the number of products it makes, and under threads
sharing one instance.
"""

import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import exact, systems
from ergolab.errors import FrequencyOverflowError, ValidationError
from ergolab.observables import CompositionRow, Observable
from ergolab.rng import SplitMix64
from ergolab.systems import (GOLDEN, SQRT2_M1, SQRT3_M1,
                             HeisenbergTranslation, Rotation, SkewProduct,
                             ToralAutomorphism, cat_map, default_heisenberg,
                             standard_skew)
from reference import (ref_compose_term, ref_heisenberg_step, ref_mat_mul,
                       ref_mat_pow, ref_pattern_phase)

SYSTEMS = {
    "rot1": Rotation((GOLDEN,)),
    "rot2": Rotation((GOLDEN, SQRT2_M1)),
    "half": Rotation((0.5,)),
    "tiny": Rotation((5e-324,)),
    "below-one": Rotation((1 - 2.0 ** -53,)),
    # 2**-1074 and 2**-53 in one table: the shifts differ by 1,021
    "tiny-and-below-one": Rotation((5e-324, 1 - 2.0 ** -53)),
    "heisenberg": default_heisenberg(),
    "skew": standard_skew(),
    "skew22": SkewProduct((GOLDEN, SQRT3_M1), ((1, -2), (3, 1)),
                          (SQRT2_M1, 0.125)),
}

def _value(form):
    return Fraction(form.num, 1 << form.shift)


# ---------------------------------------------------------------------------
# The rate table and compose_term


@pytest.mark.parametrize("name", SYSTEMS)
def test_rate_table_is_the_parameters_exactly(name):
    system = SYSTEMS[name]
    params = (system.base_alpha + system.const
              if isinstance(system, SkewProduct) else system.phase_basis())
    assert [Fraction(r, 1 << system.shift) for r in system.rates] == \
        [Fraction(v) for v in params]


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=150)
@given(data=st.data())
def test_compose_term_bits_match_frozen_frac_combo_form(name, data):
    system = SYSTEMS[name]
    k = tuple(data.draw(st.lists(st.one_of(st.integers(-3, 3),
                                           st.integers(-2 ** 62, 2 ** 62)),
                                 min_size=system.obs_dim,
                                 max_size=system.obs_dim)))
    n = data.draw(st.one_of(st.integers(-3, 3),
                            st.integers(-10 ** 12, 10 ** 12)))
    got_k, got = system.compose_term(k, n)
    want_k, want = ref_compose_term(system, k, n)
    assert got_k == want_k
    assert (got.real.hex(), got.imag.hex()) == \
        (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("name", SYSTEMS)
def test_pattern_phase_matches_frozen_form(name):
    system = SYSTEMS[name]
    rng = np.random.default_rng(11)
    patterns = ([(1,)], [(1,), (2,)], [(1, 0), (1, 1), (1, 2)],
                [(0, 0), (1, 0), (0, 1), (1, 1)])
    # on a skew product, a tuple is linear when its fiber frequencies
    # vanish (every kappa is 0); other tuples are mostly quadratic
    fiber = system.obs_dim - getattr(system, "base_dim", system.obs_dim)
    checked = 0
    for seed in range(30):
        x = system.haar_block(SplitMix64(seed), 1)[0][:system.obs_dim]
        coeffs = patterns[seed % len(patterns)]
        ks = [tuple(rng.integers(-3, 4, system.obs_dim).tolist())
              for _ in coeffs]
        if seed % 3 and fiber:
            ks = [k[:-fiber] + (0,) * fiber for k in ks]
        chars = [Observable.character(k) for k in ks]
        try:
            want = ref_pattern_phase(system, ks, coeffs, x)
        except ValidationError:
            with pytest.raises(ValidationError, match="quadratic"):
                exact.phase_table(system, chars, coeffs, x)
            continue
        # one character per factor: one entry, coefficient 1
        [(coeff, K, forms)] = exact.phase_table(system, chars, coeffs, x)
        assert coeff == 1
        assert K == want[0]
        assert [_value(f) for f in forms] == want[1]
        checked += 1
    assert checked >= 15


HEISENBERGS = {"default": default_heisenberg(),
               "tiny-and-below-one": HeisenbergTranslation(5e-324,
                                                           1 - 2.0 ** -53)}
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1 - 2.0 ** -53, 0.5]),
    st.integers(0, 2 ** 53 - 1).map(lambda m: m / 2.0 ** 53),
    st.floats(0.0, 1.0, exclude_max=True))


@pytest.mark.parametrize("name", HEISENBERGS)
@settings(max_examples=200)
@given(p=st.tuples(coordinate, coordinate, coordinate),
       n=st.one_of(st.integers(-3, 3), st.integers(-2 ** 62, 2 ** 62)))
def test_heisenberg_step_bits_match_frozen_power_point(name, p, n):
    system = HEISENBERGS[name]
    assert system.step(p, n).tobytes() == \
        ref_heisenberg_step(system, p, n).tobytes()


# ---------------------------------------------------------------------------
# The automorphism's ladder

MATRICES = {"cat": ((2, 1), (1, 1)), "det-1": ((1, 1), (1, 0)),
            "3x3": ((1, 1, 0), (1, 2, 1), (0, 1, 2))}


@pytest.mark.parametrize("name", MATRICES)
def test_ladder_powers_match_references(name):
    m = MATRICES[name]
    A = ToralAutomorphism(m)
    step_by_step = ref_mat_pow(m, 0)
    for n in range(301):
        assert A.power(n) == step_by_step
        step_by_step = ref_mat_mul(step_by_step, m)
    rng = random.Random(3)
    # random order, so the ladder both moves up from its last power and
    # restarts below it; n < 10**5 reaches past its bit bound too
    ns = [rng.randrange(10 ** 5) for _ in range(25)] + \
        [rng.randrange(A._ladder_top) for _ in range(25)]
    for n in ns:
        assert A.power(n) == ref_mat_pow(m, n)
        assert A.power(n, 1 << 64) == ref_mat_pow(m, n, 1 << 64)
    # negative powers: exact powers of the inverse
    for n in (1, 2, 7, 300, rng.randrange(10 ** 4)):
        assert A.power(-n) == ref_mat_pow(m, -n)
        assert A.power(-n, 1 << 64) == ref_mat_pow(m, -n, 1 << 64)


def test_composers_for_h_up_to_H_make_one_product_each(monkeypatch):
    calls = []
    mul = systems._int_mat_mul
    monkeypatch.setattr(systems, "_int_mat_mul",
                        lambda a, b, mod=0: calls.append(mod) or mul(a, b, mod))
    A, H = cat_map(), 40
    rows = [CompositionRow(A, h) for h in range(1, H + 1)]
    got = [row[(1, 0)] for row in rows]
    assert len(calls) <= H and not any(calls)
    monkeypatch.undo()
    for h, (k, mult) in enumerate(got, 1):
        assert k == tuple(ref_mat_pow(MATRICES["cat"], h)[0])
        assert mult == 1.0 + 0.0j


def test_power_past_the_ladder_is_built_once(monkeypatch):
    """Stepping a point at a time at one n past the ladder builds A^n once:
    `power` keeps the last exact power built there."""
    A, n, x = cat_map(), 10 ** 5, [0.3, 0.7]
    assert n > A._ladder_top
    calls = []
    build = systems._int_mat_pow
    monkeypatch.setattr(systems, "_int_mat_pow", lambda a, n, mod=0: (
        calls.append((n, mod)), build(a, n, mod))[1])
    first = A.step(x, n)
    assert A.step(x, n).tobytes() == first.tobytes()
    assert calls == [(n, 0)]
    monkeypatch.undo()
    assert A.power(n) == ref_mat_pow(A.matrix, n)


def test_overflow_past_the_ladder_keeps_nothing():
    A = cat_map()
    with pytest.raises(FrequencyOverflowError):
        A.compose_term((1, 0), 10 ** 9 + 7)
    squares, (n, _) = A._ladder
    assert n == 0 and list(squares) == [0]


def test_threads_sharing_one_ladder_get_exact_powers():
    A = ToralAutomorphism(MATRICES["3x3"])
    ns = list(range(0, 700, 9))
    want = {n: ref_mat_pow(A.matrix, n) for n in ns}
    wrong = []

    def work(seed):
        for n in random.Random(seed).sample(ns, len(ns)):
            if A.power(n) != want[n]:
                wrong.append(n)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
