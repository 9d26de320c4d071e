"""The cloud tensor kernel against the plain references in reference.py.

`joinings._TensorPlan` builds the products prod_j f_j(x_j) of a batch of
tuples from one table per distinct non-unit (position, observable) and
slab, skips unit factors (e(0 . x) with coefficient == 1), and multiplies
in place where a slab holds more than one value; `integrate_tensors` walks
a cloud once per batch of tuples.  The references are the one-tuple
product (a ones buffer times every factor in turn, each product fresh) and
the plain mean over it.  Finite products may differ from
the reference only in the sign of a zero part, which no exact sum sees;
integrals, and products that are not all finite, must match bit for bit
(or raise the same exception).
"""

import math
import tracemalloc

import numpy as np
import pytest

from ergolab import joinings
from ergolab.joinings import (EmpiricalMeasure, _tensor_values,
                              _cloud_means, character_box,
                              empirical_self_joining, integrate_tensor,
                              integrate_tensors)
from ergolab.observables import Observable, evaluate
from ergolab.phases import CHUNK
from ergolab.rng import SplitMix64
from ergolab.suites import SEED_JOINING
from ergolab.systems import default_heisenberg, golden_rotation, standard_skew
from reference import ref_integrate_tensor, ref_means, ref_tensor_values


def _bits(v, zero_sign=False):
    """Raw bytes of a complex array; with zero_sign, -0.0 parts read +0.0."""
    return ((v + 0.0) if zero_sign else v).tobytes()


def _hex(v):
    return v.real.hex(), v.imag.hex()


def _outcome(fn, *args):
    try:
        return _hex(complex(fn(*args)))
    except (ValueError, OverflowError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# _tensor_values: the one-tuple product

UNIT = Observable.constant(1.0, 1)
UNIT_NEG_ZERO = Observable.from_dict(1, {(0,): 1 - 0j})
E1, E2, E3 = (Observable.character(k) for k in (1, -2, 3))
MIXED = Observable.from_dict(1, {(2,): 0.75 - 0.5j, (-1,): 1.0, (0,): 1.0})
ZERO = Observable.from_dict(1, {})

FINITE_TUPLES = {
    "unit first": [UNIT, E1, E2],
    "unit middle": [E1, UNIT, E2],
    "unit last": [E1, E2, UNIT],
    "two units": [UNIT, E3, UNIT],
    "one non-unit": [UNIT, UNIT, MIXED],
    "1-0j units": [UNIT_NEG_ZERO, E1, UNIT_NEG_ZERO],
    "all units": [UNIT, UNIT_NEG_ZERO, UNIT],
    "constants": [Observable.constant(2.5, 1), Observable.constant(-1.0, 1),
                  Observable.constant(1j, 1)],
    "constant and units": [Observable.constant(-0.5 - 0.0j, 1), UNIT, E1],
    "zero observable": [E1, ZERO, UNIT],
    "no units": [E1, MIXED, E3],
}

BIG = Observable.character(1, 1e200)
NONFINITE_TUPLES = {
    "overflowing product": [Observable.constant(1e200, 1), BIG, UNIT],
    "overflow past a unit": [BIG, UNIT, BIG],
    "inf coefficient": [UNIT, Observable.character(2, complex(math.inf, 0)),
                        E1],
    "nan coefficient": [Observable.character(1, complex(math.nan, 1)),
                        UNIT, UNIT],
}


def _block(seed=3, S=7, count=13, d=3):
    return np.random.default_rng(seed).random((S, count, d, 1))


@pytest.mark.parametrize("name", sorted(FINITE_TUPLES))
def test_tensor_values_match_frozen_product_up_to_zero_signs(name):
    fs = FINITE_TUPLES[name]
    pts = _block()
    got, want = _tensor_values(fs, pts), ref_tensor_values(fs, pts)
    assert np.isfinite(want).all()
    assert _bits(got, zero_sign=True) == _bits(want, zero_sign=True)


@pytest.mark.parametrize("name", sorted(NONFINITE_TUPLES))
def test_tensor_values_keep_unit_multiplies_when_not_finite(name):
    fs = NONFINITE_TUPLES[name]
    pts = _block()
    want = ref_tensor_values(fs, pts)
    assert not np.isfinite(want).all()
    assert _bits(_tensor_values(fs, pts)) == _bits(want)


def test_tensor_values_nonfinite_coordinates_under_a_unit():
    # a unit factor reads its coordinate: e(0 * nan) is nan, so the product
    # keeps every factor where a skipped unit sits on a non-finite point
    pts = _block()
    pts[2, 5, 0, 0] = math.nan
    pts[4, 1, 0, 0] = math.inf
    for fs in ([UNIT, E1, E2], [UNIT, UNIT, UNIT], [E1, E2, E3]):
        want = ref_tensor_values(fs, pts)
        assert _bits(_tensor_values(fs, pts)) == _bits(want)


def test_tensor_values_unit_wider_than_the_points_raises():
    with pytest.raises(joinings.DimensionMismatchError):
        _tensor_values([Observable.constant(1.0, 2), E1, E2], _block())


@pytest.mark.parametrize("name", sorted(FINITE_TUPLES)
                         + sorted(NONFINITE_TUPLES))
def test_integrals_match_frozen_reference(name):
    fs = {**FINITE_TUPLES, **NONFINITE_TUPLES}[name]
    cloud = empirical_self_joining(golden_rotation(), 3, 300, 70,
                                   SplitMix64(11))
    want = _outcome(ref_integrate_tensor, cloud.points, fs)
    assert _outcome(integrate_tensor, cloud, fs) == want
    assert _outcome(lambda: integrate_tensors(cloud, [fs, fs])[1]) == want


def test_integral_with_nonfinite_coordinates_matches_frozen_reference():
    cloud = empirical_self_joining(golden_rotation(), 3, 40, 30,
                                   SplitMix64(5))
    pts = cloud.points.copy()
    pts[3, 7, 1, 0] = math.nan
    m = EmpiricalMeasure(pts, cloud.provenance)
    for fs in ([E1, UNIT, E2], [E1, E2, E3]):
        assert _outcome(integrate_tensor, m, fs) == \
            _outcome(ref_integrate_tensor, m.points, fs)


# ---------------------------------------------------------------------------
# integrate_tensors: one walk per batch, bit for bit


def _box(d, kmax, dim=1):
    return [[Observable.character(k) for k in ks]
            for ks in character_box(d, kmax, dim)]


@pytest.mark.parametrize("d", [2, 3])
def test_criterion_7_boxes_match_per_tuple_integrals(d):
    # criterion 7's clouds and boxes (kmax = 3), measured under tracemalloc:
    # the d = 3 box (343 tuples) holds its row sums and 21 slab tables,
    # within the batch bound plus one slab's product and sums
    cloud = empirical_self_joining(golden_rotation(), d, 1000, 100,
                                   SplitMix64(SEED_JOINING))
    box = _box(d, 3)
    tracemalloc.start()
    try:
        got = integrate_tensors(cloud, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < joinings._BATCH_BYTES + (2 << 20)
    assert [_hex(v) for v in got] == \
        [_hex(integrate_tensor(cloud, fs)) for fs in box]
    step = 7 if d == 3 else 1             # the plain walk is slower
    assert [_hex(v) for v in got[::step]] == \
        [_hex(ref_integrate_tensor(cloud.points, fs)) for fs in box[::step]]


@pytest.mark.parametrize("system", [default_heisenberg(), standard_skew()],
                         ids=lambda s: type(s).__name__)
def test_dim2_box_matches_frozen_reference(system):
    cloud = empirical_self_joining(system, 2, 200, 60, SplitMix64(17))
    box = _box(2, 1, dim=system.obs_dim)
    assert len(box) == 81
    assert [_hex(v) for v in integrate_tensors(cloud, box)] == \
        [_hex(ref_integrate_tensor(cloud.points, fs)) for fs in box]


def test_each_distinct_factor_is_evaluated_once_per_slab(monkeypatch):
    cloud = empirical_self_joining(golden_rotation(), 2, 1000, 100,
                                   SplitMix64(SEED_JOINING))
    box = _box(2, 3)
    calls = []
    monkeypatch.setattr(joinings, "evaluate",
                        lambda f, p: calls.append(f) or evaluate(f, p))
    integrate_tensors(cloud, box)
    slabs = -(-1000 // ((CHUNK - 1) // 100))
    assert len(calls) == slabs * 2 * 6          # k = 0 is a unit factor
    assert UNIT not in calls


def test_small_batches_give_the_same_bits(monkeypatch):
    cloud = empirical_self_joining(golden_rotation(), 3, 500, 40,
                                   SplitMix64(23))
    box = _box(3, 1) + [[UNIT, UNIT, UNIT], [MIXED, UNIT, E2]]
    want = integrate_tensors(cloud, box)
    walks = []
    means = joinings._cloud_means
    monkeypatch.setattr(joinings, "_cloud_means",
                        lambda m, fs_list: walks.append(len(fs_list))
                        or means(m, fs_list))
    monkeypatch.setattr(joinings, "_BATCH_BYTES", 1 << 20)
    assert integrate_tensors(cloud, box) == want
    assert len(walks) > 1 and sum(walks) == len(box)
    monkeypatch.setattr(joinings, "_BATCH_BYTES", 0)     # one tuple a walk
    walks.clear()
    assert integrate_tensors(cloud, box) == want
    assert walks == [1] * len(box)
    assert integrate_tensors(cloud, []) == []


def test_fiber_integrals_and_arity_check():
    cloud = empirical_self_joining(golden_rotation(), 2, 30, 50,
                                   SplitMix64(2))
    fs = [E1, UNIT]
    assert _cloud_means(cloud, [fs])[0].tolist() == ref_means(
        ref_tensor_values(fs, cloud.points), [50])[0].tolist()
    with pytest.raises(joinings.DimensionMismatchError):
        integrate_tensors(cloud, [[E1, E2], [E1]])
