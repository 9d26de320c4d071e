import struct

import numpy as np
import pytest

from ergolab.averaging import multilinear_average_linear
from ergolab.errors import (DimensionMismatchError, ResourceCapError,
                            ValidationError)
from ergolab import joinings
from ergolab.joinings import (_cloud_means, ap_fiber_integral,
                              ap_subtorus_integral,
                              decomposition_consistency, dump_cloud,
                              empirical_self_joining, fiber_measure,
                              integrate_tensor, load_cloud,
                              self_joining_tensor_integral)
from ergolab.observables import Observable, evaluate
from ergolab.phases import CHUNK, e, exact_sum
from ergolab.rng import SplitMix64
from ergolab.systems import (GOLDEN, cat_map, default_heisenberg,
                             golden_rotation, orbit_points, standard_skew)
from reference import ref_integrate_tensor, ref_means, ref_tensor_values

G = golden_rotation()


# ---------------------------------------------------------------------------
# Construction


def test_fiber_d1_is_birkhoff_orbit():
    x = np.array([0.3])
    m = fiber_measure(G, x, 1, 40)
    expect = orbit_points(G, x, 1, 0, 40)
    assert np.array_equal(m.points[0, :, 0, :], expect)


def test_self_joining_n1_is_diagonal():
    rng = SplitMix64(10)
    m = empirical_self_joining(G, 3, 25, 1, rng)
    for s in range(25):
        row = m.points[s, 0]
        assert np.all(row == row[0])


def test_cloud_cap():
    with pytest.raises(ResourceCapError):
        empirical_self_joining(G, 2, 10 ** 5, 10 ** 3, SplitMix64(1))


def test_cloud_deterministic_given_seed():
    a = empirical_self_joining(G, 2, 10, 50, SplitMix64(77))
    b = empirical_self_joining(G, 2, 10, 50, SplitMix64(77))
    assert np.array_equal(a.points, b.points)
    assert a.provenance.seed == 77


# ---------------------------------------------------------------------------
# Tensor integration identities


@pytest.mark.parametrize("system", [G, standard_skew(), cat_map(),
                                    default_heisenberg()],
                         ids=lambda s: type(s).__name__)
def test_fiber_integral_equals_streamed_average_bitwise(system):
    dim = system.obs_dim
    fs = [Observable.character((2,) + (0,) * (dim - 1)),
          Observable.character((-1,) * dim)]
    x = system.haar_block(SplitMix64(12), 1)[0]
    m = fiber_measure(system, x, 2, 3000)
    assert integrate_tensor(m, fs) == \
        multilinear_average_linear(system, fs, x, 3000)


def test_integrate_all_ones():
    m = empirical_self_joining(G, 2, 7, 11, SplitMix64(3))
    fs = [Observable.constant(1.0, 1)] * 2
    assert integrate_tensor(m, fs) == 1.0 + 0.0j


def test_integrate_arity_mismatch():
    m = empirical_self_joining(G, 2, 3, 5, SplitMix64(3))
    with pytest.raises(DimensionMismatchError):
        integrate_tensor(m, [Observable.character(1)])


def test_streaming_integral_matches_materialized():
    fs = [Observable.character(1), Observable.character(-2)]
    v1 = integrate_tensor(empirical_self_joining(G, 2, 30, 200,
                                                 SplitMix64(55)), fs)
    v2 = self_joining_tensor_integral(G, 2, 30, 200, SplitMix64(55), fs)
    assert v1 == v2


# ---------------------------------------------------------------------------
# The progression-subtorus oracle


def test_oracle_trivial_and_constrained():
    assert ap_subtorus_integral([0, 0, 0]) == 1.0
    assert ap_subtorus_integral([1, -1]) == 0.0       # sum (j-1)k_j = -1
    assert ap_subtorus_integral([1, -2, 1]) == 1.0
    assert ap_subtorus_integral([(1, 0), (-2, 0), (1, 0)]) == 1.0
    assert ap_subtorus_integral([(1, 1), (-2, 0), (1, -1)]) == 0.0


def test_oracle_by_double_haar_integral():
    # independent check: Monte Carlo over the (y, b) parametrization
    rng = SplitMix64(91)
    u = rng.unit_block(200_000).reshape(-1, 2)
    for ks in ([1, -1], [1, -2, 1], [2, 0, -1], [0, 3, -3]):
        vals = np.ones(u.shape[0], dtype=complex)
        for j, k in enumerate(ks):
            vals *= np.exp(2j * np.pi * k * (u[:, 0] + j * u[:, 1]))
        mc = vals.mean()
        assert abs(mc - ap_subtorus_integral(ks)) <= 0.02


def test_fiber_oracle_phase_rule():
    # sum j k_j = 0 configurations give the start-dependent phase exactly
    assert abs(ap_fiber_integral([-2, 1], 0.3) - e(-0.3)) <= 1e-15
    assert ap_fiber_integral([1, 1], 0.3) == 0.0
    assert abs(ap_fiber_integral([1, -2, 1], 0.25) - 1.0) <= 1e-15


def test_fiber_cancellation_at_every_n():
    x = np.array([0.0])
    fs = [Observable.character(-2), Observable.character(1)]
    for n in (1, 10, 500):
        m = fiber_measure(G, x, 2, n)
        assert abs(integrate_tensor(m, fs) - 1.0) <= 1e-11


def test_empirical_joining_near_oracle():
    cloud = empirical_self_joining(G, 2, 400, 120, SplitMix64(20251007))
    for ks in ([1, -1], [1, -2], [2, -1], [0, 2]):
        v = integrate_tensor(cloud, [Observable.character(k) for k in ks])
        assert abs(v - ap_subtorus_integral(ks)) <= 0.08


# ---------------------------------------------------------------------------
# Marginals


def test_self_joining_d1_collapses_to_orbit_segments():
    rng = SplitMix64(30)
    m = empirical_self_joining(G, 1, 200, 50, rng)
    # marginal of the d=1 cloud is Haar-like: characters average out
    for k in (1, 2):
        v = integrate_tensor(m, [Observable.character(k)])
        assert abs(v) <= 0.1
    # and each block is literally a Birkhoff orbit segment
    starts = G.haar_block(SplitMix64(30), 200)
    assert np.array_equal(m.points[7, :, 0, :],
                          orbit_points(G, starts[7], 1, 0, 50))


def test_marginal_close_to_haar():
    cloud = empirical_self_joining(G, 3, 500, 100, SplitMix64(20251007))
    for j in range(3):
        for k in (1, 2, 3):
            v = exact_sum(evaluate(Observable.character(k),
                                   cloud.points[:, :, j])) / cloud.tuple_count
            assert abs(v) <= 0.05


def test_fiber_marginal_is_orbit():
    x = np.array([0.41])
    m = fiber_measure(G, x, 3, 64)
    for j in (1, 2, 3):
        assert np.array_equal(m.points[0, :, j - 1, :],
                              orbit_points(G, x, j, 0, 64))


# ---------------------------------------------------------------------------
# Decomposition consistency


def test_barycenter_identity_exact_and_dispersion():
    fs = [Observable.character(-2), Observable.character(1)]
    rep = decomposition_consistency(G, 60, 2, 150, fs, SplitMix64(42))
    assert rep.exact_match
    # fiber values are modulus-one phases e(-x_s): dispersion near 1,
    # barycenter near 0
    assert rep.dispersion > 0.8
    assert abs(rep.barycenter) < 0.3


def test_barycenter_check_fails_if_pooled_side_drops_a_start(monkeypatch):
    fs = [Observable.character(-2), Observable.character(1)]
    rep = decomposition_consistency(G, 40, 2, 256, fs, SplitMix64(8))
    assert rep.exact_match and rep.gap <= rep.bound < 1e-14
    # mutation: the pooled sum skips start 0 (the (S, N) array's first row)
    monkeypatch.setattr(joinings, "exact_sum",
                        lambda x: exact_sum(np.asarray(x)[1:]))
    bad = decomposition_consistency(G, 40, 2, 256, fs, SplitMix64(8))
    assert bad.barycenter == rep.barycenter
    assert not bad.exact_match
    assert bad.gap > 1e6 * bad.bound


@pytest.mark.parametrize("S,N", [(1, 1), (7, 100), (3, CHUNK + 37)])
def test_barycenter_gap_within_bound(S, N):
    fs = [Observable.from_dict(1, {(1,): 0.5 + 0.25j, (-3,): 1.0}),
          Observable.from_dict(1, {(2,): 1.0 - 1.0j, (0,): 0.75})]
    rep = decomposition_consistency(G, S, 2, N, fs, SplitMix64(S + N))
    assert rep.exact_match and 0.0 < rep.bound < 1e-14
    assert rep.barycenter == integrate_tensor(
        empirical_self_joining(G, 2, S, N, SplitMix64(S + N)), fs)


def test_barycenter_fibers_match_phase_rule():
    fs = [Observable.character(-2), Observable.character(1)]
    rng = SplitMix64(42)
    starts = G.haar_block(rng, 60)
    rep = decomposition_consistency(G, 60, 2, 150, fs, SplitMix64(42))
    for x, v in zip(starts[:, 0], rep.fiber_values):
        assert abs(v - ap_fiber_integral([-2, 1], x)) <= 1e-10


def test_dispersion_vanishes_for_constants():
    fs = [Observable.constant(1.0, 1)] * 2
    rep = decomposition_consistency(G, 20, 2, 50, fs, SplitMix64(4))
    assert rep.dispersion == 0.0
    assert rep.barycenter == 1.0 + 0.0j


def test_d1_dispersion_is_monte_carlo_small():
    fs = [Observable.character(1)]
    rep = decomposition_consistency(G, 20, 1, 50_000, fs, SplitMix64(5))
    # Birkhoff limits are start-independent; finite-N fibers differ by the
    # geometric tail only
    assert rep.dispersion <= 4 / (50_000 * abs(1 - e(GOLDEN)))


# ---------------------------------------------------------------------------
# Binary dumps


def test_dump_load_roundtrip(tmp_path):
    m = empirical_self_joining(default_heisenberg(), 2, 6, 20, SplitMix64(8))
    path = tmp_path / "cloud.bin"
    dump_cloud(m, path)
    pts, meta = load_cloud(path)
    assert meta == {"d": 2, "n": 20, "count": 120, "seed": 8}
    assert np.array_equal(pts, m.points.reshape(120, 2, 3))
    raw = path.read_bytes()
    assert len(raw) == 32 + 120 * 2 * 3 * 8


@pytest.mark.parametrize("data", [
    struct.pack("<4Q", 2, 3, 3, 0),                      # header, no body
    struct.pack("<4Q", 0, 3, 3, 0) + bytes(48),          # d = 0
    struct.pack("<3Q", 2, 3, 3),                         # short header
    struct.pack("<4Q", 2, 3, 3, 0) + bytes(48 + 4),      # partial double
    struct.pack("<4Q", 2, 3, 3, 0) + bytes(40),          # dim not whole
    struct.pack("<4Q", 2, 3, 0, 0) + bytes(48),          # count = 0
], ids=["no-body", "d-zero", "short-header", "partial-double",
        "ragged-dim", "count-zero"])
def test_load_cloud_rejects_corrupt_dumps(tmp_path, data):
    path = tmp_path / "cloud.bin"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match="corrupt cloud dump"):
        load_cloud(path)
    # the same header with a whole body loads
    good = tmp_path / "good.bin"
    good.write_bytes(struct.pack("<4Q", 2, 3, 3, 0) + bytes(48))
    assert load_cloud(good)[0].shape == (3, 2, 1)


# ---------------------------------------------------------------------------
# Slab integration against the plain mean walk


def _tensor_factors(d, dim):
    """d multi-term observables with complex coefficients, distinct per
    factor, reading every coordinate."""
    out = []
    for j in range(d):
        k1 = (j + 1,) + (0,) * (dim - 1)
        k2 = tuple(-(j + 2) if c % 2 else j - 1 for c in range(dim))
        k3 = (0,) * (dim - 1) + (2 * j - 3,)
        out.append(Observable.from_dict(dim, {k1: 0.75 - 0.5j,
                                              k2: -0.3 + 1.1j,
                                              k3: 0.2j}))
    return out


_SLAB_SYSTEMS = [G, standard_skew(), cat_map(), default_heisenberg()]


@pytest.mark.parametrize("S,N", [(1, 1), (7, 100), (200, 100),
                                 (3, CHUNK + 37)])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("system", _SLAB_SYSTEMS,
                         ids=lambda s: type(s).__name__)
def test_slab_integration_matches_per_start_reference(system, d, S, N):
    fs = _tensor_factors(d, system.obs_dim)
    seed = 1000 * S + 10 * d + system.obs_dim
    cloud = empirical_self_joining(system, d, S, N, SplitMix64(seed))
    ref = ref_means(ref_tensor_values(fs, cloud.points), [N])[0]
    assert _cloud_means(cloud, [fs])[0].tolist() == ref.tolist()
    want = ref_integrate_tensor(cloud.points, fs)
    assert integrate_tensor(cloud, fs) == want
    assert self_joining_tensor_integral(system, d, S, N, SplitMix64(seed),
                                        fs) == want
