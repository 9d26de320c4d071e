"""phases.chunk_means, the one kernel that turns streamed values into means,
against the plain references in reference.py, bit for bit.

A stream's mean at N is `ref_means` of its values (math.fsum per
CHUNK-anchored piece of [0, N), math.fsum over the pieces), the values
being the product of `evaluate` over each factor's orbit; the streamed geometric sum
is `ref_geometric_mean`.  Means are compared by float.hex of each part.
"""

import numpy as np
import pytest

from ergolab.averaging import (birkhoff_average, geometric_mean_streamed,
                               linear_trajectory, multilinear_average_linear,
                               multilinear_average_square, square_trajectory)
from ergolab.errors import ValidationError
from ergolab.joinings import _streamed_start_means
from ergolab.observables import Observable
from ergolab.phases import CHUNK, PhaseForm, chunk_means, chunk_ranges
from ergolab.rng import SplitMix64
from ergolab.systems import (GOLDEN, SQRT2_M1, Rotation, cat_map,
                             default_heisenberg, golden_rotation, orbit_points,
                             standard_skew)
from reference import ref_geometric_mean, ref_means, ref_tensor_values


def _stream_means(system, fs, x, checkpoints):
    """ref_means of prod_j f_j(T^{j n} x)."""
    pts = np.stack([orbit_points(system, x, j, 0, checkpoints[-1], "obs")
                    for j in range(1, len(fs) + 1)], axis=1)
    return ref_means(ref_tensor_values(fs, pts), checkpoints)[:, 0]


def _hex(v: complex) -> tuple[str, str]:
    v = complex(v)
    return v.real.hex(), v.imag.hex()


# ---------------------------------------------------------------------------
# Streams of every kind against the plain mean walk

KINDS = {"rotation": golden_rotation(), "rotation-2d": Rotation((GOLDEN, SQRT2_M1)),
         "skew": standard_skew(), "automorphism": cat_map(),
         "heisenberg": default_heisenberg()}
CHECKPOINT_SETS = [(1, 2, 3), (1000, CHUNK, CHUNK + 5, 2 * CHUNK + 1),
                   (17, 5000, 40000, 100000)]
LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1)


def _factors(d, dim):
    """d multi-term observables with complex coefficients, reading every
    coordinate."""
    out = []
    for j in range(d):
        k1 = (j + 1,) + (0,) * (dim - 1)
        k2 = tuple(-(j + 2) if c % 2 else j - 1 for c in range(dim))
        out.append(Observable.from_dict(dim, {k1: 0.75 - 0.5j,
                                              k2: -0.3 + 1.1j}))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("name", KINDS)
def test_streams_match_frozen_loop_bitwise(name, d):
    system = KINDS[name]
    x = system.haar_block(SplitMix64(40 + d), 1)[0]
    fs = _factors(d, system.obs_dim)
    for cps in CHECKPOINT_SETS:
        traj = linear_trajectory(system, fs, x, cps)
        ref = _stream_means(system, fs, x, cps)
        assert [n for n, _ in traj.checkpoints] == list(cps)
        assert [_hex(v) for _, v in traj.checkpoints] == [_hex(v) for v in ref]
    for N in LENGTHS:
        want = _hex(_stream_means(system, fs, x, [N])[0])
        assert _hex(multilinear_average_linear(system, fs, x, N)) == want
        if d == 1:
            assert _hex(birkhoff_average(system, fs[0], x, N)) == want


@pytest.mark.parametrize("coeffs,basis", [((1,), (GOLDEN,)),
                                          ((3, -2), (GOLDEN, SQRT2_M1)),
                                          ((7,), (5e-324,)), ((2,), (0.5,))],
                         ids=["golden", "combo", "subnormal", "resonant"])
def test_geometric_mean_streamed_matches_frozen_loop_bitwise(coeffs, basis):
    form = PhaseForm(coeffs, basis)
    for cps in CHECKPOINT_SETS + [(N,) for N in LENGTHS] + [
            (100, 5000), (CHUNK, CHUNK + 1, 3 * CHUNK + 17)]:
        got = geometric_mean_streamed(form, cps)
        ref = ref_geometric_mean(coeffs, basis, cps)
        assert list(got) == list(ref)
        assert [_hex(got[cp]) for cp in cps] == [_hex(ref[cp]) for cp in cps]


# ---------------------------------------------------------------------------
# One number per N: no checkpoint moves another's value

def test_a_mean_at_n_is_the_one_checkpoint_run_whatever_else_is_asked():
    # random checkpoint sets around the first two anchors: every value, of
    # streams, clouds, geometric streams and the factorized square average
    # they feed, is the run asked for its N alone, bit for bit
    rng = np.random.default_rng(36)
    anchors = {CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1}

    def draw():
        extra = rng.integers(1, 2 * CHUNK + 40, 3).tolist()
        return sorted(anchors | set(extra))

    for name in ("rotation", "skew", "heisenberg"):
        system = KINDS[name]
        x = system.haar_block(SplitMix64(7), 1)[0]
        for d in (1, 2, 3):
            fs = _factors(d, system.obs_dim)
            cps = draw()
            traj = linear_trajectory(system, fs, x, cps)
            assert [_hex(v) for _, v in traj.checkpoints] == [
                _hex(multilinear_average_linear(system, fs, x, n))
                for n in cps]
        starts = system.haar_block(SplitMix64(8), 3)[:, None]
        fs, cps = _factors(2, system.obs_dim), draw()
        got = _streamed_start_means(system, starts, fs, cps)
        for n, row in zip(cps, got):
            one = _streamed_start_means(system, starts, fs, [n])[0]
            assert row.tobytes() == one.tobytes()
    form, cps = PhaseForm((3, -2), (GOLDEN, SQRT2_M1)), draw()
    got = geometric_mean_streamed(form, cps)
    assert [_hex(got[n]) for n in cps] == [
        _hex(geometric_mean_streamed(form, [n])[n]) for n in cps]
    G, x = golden_rotation(), np.array([0.25])
    fs, cps = [Observable.character(1), Observable.character(-1)], draw()
    traj = square_trajectory(G, fs, x, cps, mode="factorized")
    assert [_hex(v) for _, v in traj.checkpoints] == [
        _hex(multilinear_average_square(G, fs, x, n, mode="factorized"))
        for n in cps]


# ---------------------------------------------------------------------------
# The kernel itself


@pytest.mark.parametrize("rows,checkpoints", [
    (1, (1,)), (1, (CHUNK - 1, CHUNK, CHUNK + 1)), (5, (3, 100)),
    (300, (100, CHUNK + 3)), (3, (CHUNK + 37,)), (40, (17, 5000, 40000)),
    (100, (256, CHUNK))])
def test_chunk_means_slabs_spans_and_bits(rows, checkpoints):
    rng = np.random.default_rng(rows)
    N = checkpoints[-1]
    v = rng.standard_normal((rows, N)) + 1j * rng.standard_normal((rows, N))
    v[0, :5] = [-0.0, 1e300, -1e300, 5e-324, 0.0][:N]
    calls = []

    def values_at(r0, r1, n0, cnt):
        calls.append((r0, r1, n0, cnt))
        return v[r0:r1, n0:n0 + cnt]

    means = chunk_means(values_at, rows, checkpoints)
    assert means.shape == (len(checkpoints), rows)
    seen = np.zeros((rows, N), dtype=int)
    for r0, r1, n0, cnt in calls:
        assert 1 <= r1 - r0 <= max(1, (CHUNK - 1) // cnt)
        seen[r0:r1, n0:n0 + cnt] += 1
    assert (seen == 1).all()
    # the spans are the CHUNK-anchored chunks, whatever the checkpoints
    assert sorted({call[2:] for call in calls}) == list(chunk_ranges(0, N))
    want = ref_means(v, checkpoints)
    assert [_hex(m) for m in means.ravel()] == [_hex(m) for m in want.ravel()]


@pytest.mark.parametrize("checkpoints", [(5, 5), (10, 3), (0, 4), (-1,)])
def test_non_increasing_checkpoints_raise(checkpoints):
    with pytest.raises(ValidationError):
        chunk_means(lambda r0, r1, n0, cnt: np.zeros((r1 - r0, cnt)), 1,
                    checkpoints)
    G = golden_rotation()
    f = Observable.character(1)
    with pytest.raises(ValidationError):
        linear_trajectory(G, [f, f], np.array([0.3]), checkpoints)
    with pytest.raises(ValidationError):
        square_trajectory(G, [f, f], np.array([0.3]), checkpoints,
                          mode="factorized")
