import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolab.errors import DimensionMismatchError, ValidationError
from ergolab.rng import SplitMix64
from ergolab.systems import (GOLDEN, SQRT2_M1, HeisenbergTranslation,
                             Rotation, SkewProduct, ToralAutomorphism,
                             cat_map, default_heisenberg,
                             ergodicity_certificate, golden_rotation,
                             heisenberg_inv, heisenberg_mul,
                             lattice_translate_witness, orbit_points,
                             reduce_mod_lattice, standard_skew, step,
                             system_from_kv, system_to_kv)
from conftest import circle_dist

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False, width=64)


def all_systems():
    return [golden_rotation(), standard_skew(), cat_map(),
            default_heisenberg(),
            Rotation((GOLDEN, math.sqrt(2) - 1)),
            SkewProduct((0.3,), ((2,),), (0.125,)),
            ToralAutomorphism(((1, 1), (1, 2)))]


def rand_point(system, seed=13):
    return system.haar_block(SplitMix64(seed), 1)[0]


# ---------------------------------------------------------------------------
# step, one step and closed-form powers


def test_rotation_step_examples():
    assert Rotation((0.25,)).step(np.array([0.5]))[0] == 0.75
    assert Rotation((0.75,)).step(np.array([0.5]))[0] == 0.25


def test_heisenberg_step_of_identity():
    h = default_heisenberg()
    # hand evaluation of the group law: (a, b, 0) * (0, 0, 0) = (a, b, 0)
    expected = reduce_mod_lattice(heisenberg_mul((h.alpha, h.beta, 0.0),
                                                 (0.0, 0.0, 0.0)))
    assert circle_dist(h.step(np.zeros(3)), expected) == 0.0


def test_step_pow_identity_at_zero():
    for s in all_systems():
        p = rand_point(s)
        assert np.array_equal(step(s, p, 0), p)


def test_heisenberg_cube_power_closed_form():
    # induction on the group law: t^n = (n a, n b, C(n,2) a b)
    h = default_heisenberg()
    t = (h.alpha, h.beta, 0.0)
    g = t
    for _ in range(2):
        g = heisenberg_mul(t, g)
    expected = reduce_mod_lattice(g)
    got = h.step(np.zeros(3), 3)
    assert circle_dist(got, expected) <= 1e-12
    fa, fb = Fraction(h.alpha), Fraction(h.beta)
    direct = reduce_mod_lattice((3 * h.alpha, 3 * h.beta, float(3 * fa * fb)))
    assert circle_dist(got, direct) <= 1e-12


def test_rotation_pow_example():
    got = Rotation((0.1,)).step(np.array([0.0]), 7)[0]
    assert abs(got - 0.7) <= 1e-12


@pytest.mark.parametrize("system", all_systems(),
                         ids=lambda s: type(s).__name__)
def test_step_pow_consistency_and_inverse(system):
    p = rand_point(system, seed=3)
    for n in range(-15, 16):
        lhs = step(system, p, n + 1)
        rhs = step(system, step(system, p, n))
        assert circle_dist(lhs, rhs) <= 1e-12
    assert circle_dist(step(system, step(system, p, -1)), p) <= 1e-12


@pytest.mark.parametrize("system", all_systems(),
                         ids=lambda s: type(s).__name__)
def test_dimension_mismatch_raises(system):
    with pytest.raises(DimensionMismatchError):
        system.step(np.full(system.dim + 1, 0.1))
    with pytest.raises(DimensionMismatchError):
        system.step(np.full(system.dim - 1, 0.1))
    with pytest.raises(ValidationError):
        system.step(np.full(system.dim, np.nan))


# One constructor per kind with real parameters (an automorphism has
# integer entries only), with a chosen parameter replaced.
_PARAM_SLOTS = {
    "rotation": lambda v: Rotation((GOLDEN, v)),
    "skew_base": lambda v: SkewProduct((v,), ((1,),), (0.0,)),
    "skew_const": lambda v: SkewProduct((GOLDEN,), ((1,),), (v,)),
    "heisenberg_alpha": lambda v: HeisenbergTranslation(v, 0.25),
    "heisenberg_beta": lambda v: HeisenbergTranslation(0.25, v),
}


@pytest.mark.parametrize("slot", sorted(_PARAM_SLOTS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_parameters_rejected(slot, value):
    with pytest.raises(ValidationError):
        _PARAM_SLOTS[slot](value)


# ---------------------------------------------------------------------------
# Heisenberg lattice reduction and group law


def test_reduce_examples():
    assert np.allclose(reduce_mod_lattice((0.3, 0.4, 0.5)), (0.3, 0.4, 0.5))
    assert circle_dist(reduce_mod_lattice((1.3, 0.4, 0.5)),
                       (0.3, 0.4, 0.5)) <= 1e-12
    # b = -1 shifts z by -x, then c = 1 brings it back into range
    assert circle_dist(reduce_mod_lattice((0.5, 1.2, 0.1)),
                       (0.5, 0.2, 0.6)) <= 1e-12


def test_reduce_rejects_nonfinite():
    with pytest.raises(ValidationError):
        reduce_mod_lattice((np.nan, 0.0, 0.0))


@given(st.tuples(unit, unit, unit), st.tuples(unit, unit, unit),
       st.tuples(unit, unit, unit))
def test_heisenberg_associativity(a, b, c):
    lhs = heisenberg_mul(heisenberg_mul(a, b), c)
    rhs = heisenberg_mul(a, heisenberg_mul(b, c))
    assert max(abs(x - y) for x, y in zip(lhs, rhs)) <= 1e-12


@given(st.tuples(unit, unit, unit))
def test_heisenberg_inverse(g):
    e = heisenberg_mul(g, heisenberg_inv(g))
    assert max(abs(v) for v in e) <= 1e-12


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_reduce_is_lattice_translate(x, y, z):
    raw = (x, y, z)
    red = reduce_mod_lattice(raw)
    assert np.all(red >= 0.0) and np.all(red < 1.0)
    gamma = lattice_translate_witness(raw)
    assert all(isinstance(v, int) for v in gamma)
    rebuilt = heisenberg_mul(raw, gamma)
    assert circle_dist(rebuilt, red) <= 1e-9


def test_skew_double_step_matches_power():
    s = standard_skew()
    p = rand_point(s, seed=8)
    assert circle_dist(s.step(s.step(p)), s.step(p, 2)) <= 1e-12


# ---------------------------------------------------------------------------
# Orbits


def test_orbit_floats_are_canonical():
    for s in all_systems():
        x = rand_point(s, seed=21)
        a = orbit_points(s, x, 1, 0, 300)
        b = orbit_points(s, x, 1, 120, 100)
        assert np.array_equal(a[120:220], b)


@pytest.mark.parametrize("system", all_systems(),
                         ids=lambda s: type(s).__name__)
def test_orbit_matches_closed_powers(system):
    x = rand_point(system, seed=5)
    for stride in (1, 2, 3):
        pts = orbit_points(system, x, stride, 7, 20)
        for i, n in enumerate(range(7, 27)):
            assert circle_dist(pts[i], step(system, x, stride * n)) <= 1e-10


def test_rotation_incremental_vs_closed_form_long_orbit():
    # the two long-orbit paths must agree within 1e-9 well past 1e6 steps
    g = golden_rotation()
    x = np.array([0.3])
    n = 2_000_000
    seq = x.copy()
    alpha = g.alpha[0]
    for _ in range(n):
        seq = seq + alpha
        seq -= np.floor(seq)
    closed = step(g, x, n)
    chunked = orbit_points(g, x, 1, n, 1)[0]
    assert circle_dist(seq, closed) <= 1e-9
    assert circle_dist(chunked, closed) <= 1e-11


def test_heisenberg_obs_and_state_columns_agree():
    h = default_heisenberg()
    x = rand_point(h, seed=2)
    full = orbit_points(h, x, 2, 0, 500, coords="state")
    obs = orbit_points(h, x, 2, 0, 500, coords="obs")
    assert np.array_equal(full[:, :2], obs)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_sampling_deterministic():
    s = default_heisenberg()
    a = s.haar_block(SplitMix64(99), 1)[0]
    b = s.haar_block(SplitMix64(99), 1)[0]
    assert np.array_equal(a, b)


def test_haar_equidistribution_torus():
    g = golden_rotation()
    pts = g.haar_block(SplitMix64(123), 100_000)
    m = np.abs(np.mean(np.exp(2j * np.pi * pts[:, 0])))
    assert m < 0.02  # 3/sqrt(N) Monte Carlo envelope


def test_haar_equidistribution_heisenberg():
    h = default_heisenberg()
    pts = h.haar_block(SplitMix64(321), 100_000)
    m = np.abs(np.mean(np.exp(2j * np.pi * (pts[:, 0] + pts[:, 1]))))
    assert m < 0.02


# ---------------------------------------------------------------------------
# Ergodicity certificates


def test_certificate_rational_rotation():
    cert = ergodicity_certificate(Rotation((0.5,)), 10)
    assert cert.verdict == "non-ergodic"
    assert "k=(2,)" in cert.witness


def test_certificate_golden_matches_continued_fractions():
    bound = 2000
    cert = ergodicity_certificate(golden_rotation(), bound)
    assert cert.verdict == "ergodic"
    # independent oracle: best rational approximations of the golden ratio
    # are Fibonacci quotients, so min_k |frac(k a)| over k <= bound equals
    # the distance at the largest Fibonacci number below the bound
    a, b = 1, 1
    while b <= bound:
        a, b = b, a + b
    best_q = a
    alpha = GOLDEN
    dists = np.abs(np.round(np.arange(1, bound + 1) * alpha)
                   - np.arange(1, bound + 1) * alpha)
    assert np.argmin(dists) + 1 == best_q
    assert dists.min() > 1e-9  # far above the certificate tolerance


def test_certificate_heisenberg_defaults():
    cert = ergodicity_certificate(default_heisenberg(), 100)
    assert cert.verdict == "ergodic"
    cert = ergodicity_certificate(HeisenbergTranslation(GOLDEN, GOLDEN), 10)
    assert cert.verdict == "non-ergodic"


def test_certificate_automorphisms():
    assert ergodicity_certificate(cat_map(), 20).verdict == "ergodic"
    rot90 = ToralAutomorphism(((0, -1), (1, 0)))
    cert = ergodicity_certificate(rot90, 10)
    assert cert.verdict == "non-ergodic" and "A^4" in cert.witness
    parabolic = ToralAutomorphism(((1, 1), (0, 1)))
    assert ergodicity_certificate(parabolic, 5).verdict == "non-ergodic"


def test_certificate_skew():
    assert ergodicity_certificate(standard_skew(), 50).verdict == "ergodic"
    assert ergodicity_certificate(SkewProduct((0.5,), ((1,),)),
                                  10).verdict == "non-ergodic"


# (system, search bound, verdict, witness): one row per branch of each kind's
# certify, with the strings the certificate emitted before the per-kind
# methods replaced the type dispatch.
CERTIFICATE_GOLDEN = [
    (Rotation((0.5,)), 10, "non-ergodic", "resonant frequency k=(2,)"),
    (golden_rotation(), 50, "ergodic",
     "no integer relation k.alpha in Z with ||k||inf <= 50"),
    (Rotation((GOLDEN, 1 - GOLDEN)), 3, "non-ergodic",
     "resonant frequency k=(-1, -1)"),
    (Rotation((GOLDEN, SQRT2_M1)), 20, "ergodic",
     "no integer relation k.alpha in Z with ||k||inf <= 20"),
    (default_heisenberg(), 100, "ergodic",
     "base rotation: no integer relation k.alpha in Z with ||k||inf <= 100"),
    (HeisenbergTranslation(GOLDEN, GOLDEN), 10, "non-ergodic",
     "base rotation: resonant frequency k=(-1, 1)"),
    (cat_map(), 20, "ergodic", "no eigenvalue on the unit circle (hyperbolic)"),
    (ToralAutomorphism(((0, -1), (1, 0))), 10, "non-ergodic",
     "A^4 has eigenvalue 1 (root-of-unity spectrum)"),
    (ToralAutomorphism(((1, 1), (0, 1))), 5, "non-ergodic",
     "A^1 has eigenvalue 1 (root-of-unity spectrum)"),
    (ToralAutomorphism(((0, 1), (-1, 1))), 3, "undetermined",
     "unit-modulus eigenvalue but no root of unity of order <= 3"),
    (SkewProduct((0.5,), ((1,),)), 10, "non-ergodic",
     "base rotation: resonant frequency k=(2,)"),
    (standard_skew(), 50, "ergodic",
     "ergodic base rotation with nonzero integer cocycle slope"),
    (SkewProduct((GOLDEN,), ((0,),), (1 - GOLDEN,)), 10, "non-ergodic",
     "product-rotation resonance k=(-1, -1)"),
    (SkewProduct((GOLDEN,), ((0,),), (SQRT2_M1,)), 20, "ergodic",
     "product rotation with no joint resonance found"),
    (SkewProduct((GOLDEN,), ((1,), (2,)), (0.0, 0.0)), 10, "undetermined",
     "cocycle shape outside the certified cases"),
]


@pytest.mark.parametrize("system,bound,verdict,witness", CERTIFICATE_GOLDEN,
                         ids=[f"{type(r[0]).__name__}-{r[2]}-{i}"
                              for i, r in enumerate(CERTIFICATE_GOLDEN)])
def test_certificate_golden(system, bound, verdict, witness):
    cert = ergodicity_certificate(system, bound)
    assert (cert.verdict, cert.witness) == (verdict, witness)
    assert cert.system is system and cert.search_bound == bound


def test_certificate_rejects_bound_below_one():
    with pytest.raises(ValidationError):
        ergodicity_certificate(golden_rotation(), 0)


def test_unimodularity_enforced():
    with pytest.raises(ValidationError):
        ToralAutomorphism(((2, 0), (0, 1)))


# ---------------------------------------------------------------------------
# Serialization


@pytest.mark.parametrize("system", all_systems(),
                         ids=lambda s: type(s).__name__)
def test_system_kv_roundtrip(system):
    kv = system_to_kv(system)
    assert next(iter(kv)) == "kind"
    assert system_from_kv(kv) == system


@pytest.mark.parametrize("system", all_systems(),
                         ids=lambda s: type(s).__name__)
def test_system_from_kv_rejects_unknown_key(system):
    # a key the kind does not read is an error, not silently dropped
    kv = {**system_to_kv(system), "cocycle_cnst": "0.25"}
    with pytest.raises(ValidationError, match="cocycle_cnst"):
        system_from_kv(kv)


def test_system_from_kv_rejects_bad_entries():
    with pytest.raises(ValidationError, match="unknown system kind"):
        system_from_kv({"kind": "torus"})
    with pytest.raises(ValidationError, match="alpha"):
        system_from_kv({"kind": "rotation"})
    with pytest.raises(ValidationError, match="matrix"):
        system_from_kv({"kind": "automorphism", "matrix": "2 1 x 1"})


# ---------------------------------------------------------------------------
# Automorphism orbits on A^n mod 2**K against unreduced powers

AUTOMORPHISMS = {"cat": cat_map(),
                 "3x3": ToralAutomorphism(((2, 1, 1), (1, 1, 0), (1, 0, 0)))}


def _automorphism_starts(system):
    return [np.full(system.dim, v) for v in (0.0, 5e-324, 2.0 ** -12,
                                              1 - 2.0 ** -53)] \
        + [rand_point(system, seed=9)]


@pytest.mark.parametrize("name", AUTOMORPHISMS)
def test_automorphism_orbit_bits_match_unreduced_step(name):
    # every start's orbit_points and its row of one orbit_block call
    system = AUTOMORPHISMS[name]
    starts = np.stack(_automorphism_starts(system))
    for stride in (1, -1, 3, -3):
        for n0 in (0, 7, -25, 10 ** 4):
            block = system.orbit_block(starts, stride, n0, 6)
            for x, row in zip(starts, block):
                ref = np.stack([system.step(x, stride * n)
                                for n in range(n0, n0 + 6)])
                assert row.tobytes() == ref.tobytes()
                assert system.orbit_points(x, stride, n0, 6).tobytes() \
                    == ref.tobytes()


@pytest.mark.parametrize("name", AUTOMORPHISMS)
def test_automorphism_orbit_windows_agree_far_out(monkeypatch, name):
    # at n0 = 10**6 the unreduced powers have ~700,000-bit entries; the
    # orbit carries A^n mod 2**K, whose entries stay below 2**K
    system = AUTOMORPHISMS[name]
    seen = []
    apply_exact = ToralAutomorphism._apply_exact
    monkeypatch.setattr(ToralAutomorphism, "_apply_exact",
                        lambda self, mat, p: seen.append(mat)
                        or apply_exact(self, mat, p))
    for x in _automorphism_starts(system)[1:]:
        K = max(float(v).as_integer_ratio()[1].bit_length() - 1 for v in x)
        for stride in (1, -3):
            a = system.orbit_points(x, stride, 10 ** 6, 100)
            b = system.orbit_points(x, stride, 10 ** 6 + 37, 100)
            assert a[37:].tobytes() == b[:63].tobytes()
        assert len(seen) == 400
        assert all(0 <= v < 1 << K for mat in seen for row in mat
                   for v in row)
        seen.clear()
    monkeypatch.undo()
    # the unreduced reference, as far out as it stays cheap
    x = _automorphism_starts(system)[-1]
    assert system.orbit_points(x, 1, 10 ** 5, 1)[0].tobytes() \
        == system.step(x, 10 ** 5).tobytes()
