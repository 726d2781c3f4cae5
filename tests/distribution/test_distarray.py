"""Tests for DistArray and Decomposition."""

import numpy as np
import pytest

from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    Decomposition,
    DistArray,
    IrregularDistribution,
)
from repro.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


class TestDistArray:
    def test_from_global_round_trip(self, m4):
        vals = np.arange(10.0)
        d = BlockDistribution(10, 4)
        arr = DistArray.from_global(m4, d, vals)
        assert np.array_equal(arr.to_global(), vals)

    def test_local_segments_match_distribution(self, m4):
        vals = np.arange(10.0)
        arr = DistArray.from_global(m4, CyclicDistribution(10, 4), vals)
        assert arr.local(1).tolist() == [1.0, 5.0, 9.0]

    def test_fill_constructor(self, m4):
        arr = DistArray(m4, BlockDistribution(8, 4), dtype=np.int64, fill=7)
        assert np.array_equal(arr.to_global(), np.full(8, 7))

    def test_machine_size_mismatch(self, m4):
        with pytest.raises(ValueError, match="spans 8 processors"):
            DistArray(m4, BlockDistribution(8, 8))

    def test_size_mismatch(self, m4):
        with pytest.raises(ValueError, match="value count"):
            DistArray.from_global(m4, BlockDistribution(8, 4), np.arange(9.0))

    def test_2d_rejected(self, m4):
        with pytest.raises(ValueError, match="1-D"):
            DistArray.from_global(m4, BlockDistribution(4, 4), np.ones((2, 2)))

    def test_global_get(self, m4):
        vals = np.arange(10.0) * 3
        arr = DistArray.from_global(m4, CyclicDistribution(10, 4), vals)
        got = arr.global_get([9, 0, 4])
        assert got.tolist() == [27.0, 0.0, 12.0]

    def test_global_set(self, m4):
        arr = DistArray(m4, BlockDistribution(10, 4))
        arr.global_set([2, 7], [5.0, 9.0])
        g = arr.to_global()
        assert g[2] == 5.0 and g[7] == 9.0 and g.sum() == 14.0

    def test_accessors_charge_nothing(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(10, 4), np.arange(10.0))
        arr.global_get([1, 2])
        arr.to_global()
        assert m4.elapsed() == 0.0

    def test_local_view_is_live(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(8, 4), np.zeros(8))
        arr.local(0)[:] = 5.0
        assert arr.to_global()[:2].tolist() == [5.0, 5.0]

    def test_unique_uids_and_default_names(self, m4):
        a = DistArray(m4, BlockDistribution(4, 4))
        b = DistArray(m4, BlockDistribution(4, 4))
        assert a.uid != b.uid
        assert a.name != b.name

    def test_local_rank_checked(self, m4):
        arr = DistArray(m4, BlockDistribution(4, 4))
        with pytest.raises(ValueError, match="out of range"):
            arr.local(4)


class TestRebind:
    def test_rebind_swaps_distribution(self, m4):
        vals = np.arange(8.0)
        arr = DistArray.from_global(m4, BlockDistribution(8, 4), vals)
        new = IrregularDistribution([3, 3, 2, 2, 1, 1, 0, 0], 4)
        segs = [vals[new.local_indices(p)] for p in range(4)]
        arr.rebind_flat(new, np.concatenate(segs))
        assert arr.distribution is new
        assert np.array_equal(arr.to_global(), vals)

    def test_rebind_checks_segment_shapes(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(8, 4), np.arange(8.0))
        new = BlockDistribution(8, 4)
        bad = np.concatenate([np.zeros(3)] * 4)
        with pytest.raises(ValueError, match=r"flat backing has shape \(12,\)"):
            arr.rebind_flat(new, bad)

    def test_rebind_rejects_size_change(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(8, 4), np.arange(8.0))
        with pytest.raises(ValueError, match="changed array size"):
            arr.rebind_flat(BlockDistribution(9, 4), np.zeros(9))


class TestDecomposition:
    def test_distribute_then_align(self, m4):
        dec = Decomposition("reg", 10)
        dist = BlockDistribution(10, 4)
        dec.distribute(dist)
        arr = DistArray(m4, dist, name="x")
        dec.align(arr)
        assert arr in dec.arrays
        assert dec.arrays == [arr]

    def test_align_before_distribute_fails(self, m4):
        dec = Decomposition("reg", 10)
        arr = DistArray(m4, BlockDistribution(10, 4))
        with pytest.raises(ValueError, match="no distribution"):
            dec.align(arr)

    def test_align_size_mismatch(self, m4):
        dec = Decomposition("reg", 10)
        dec.distribute(BlockDistribution(10, 4))
        arr = DistArray(m4, BlockDistribution(8, 4))
        with pytest.raises(ValueError, match="has size 8"):
            dec.align(arr)

    def test_align_distribution_mismatch(self, m4):
        dec = Decomposition("reg", 10)
        dec.distribute(BlockDistribution(10, 4))
        arr = DistArray(m4, CyclicDistribution(10, 4))
        with pytest.raises(ValueError, match="differs"):
            dec.align(arr)

    def test_distribute_size_mismatch(self):
        dec = Decomposition("reg", 10)
        with pytest.raises(ValueError, match="size 8"):
            dec.distribute(BlockDistribution(8, 4))

    def test_align_idempotent(self, m4):
        dec = Decomposition("reg", 10)
        dist = BlockDistribution(10, 4)
        dec.distribute(dist)
        arr = DistArray(m4, dist)
        dec.align(arr)
        dec.align(arr)
        assert dec.arrays == [arr]
