"""Tests for dirty-range kernels and the region-aware registry."""

import numpy as np
import pytest

from repro.adapt.diff import expand_ranges, ranges_from_positions
from repro.core.dad import DAD
from repro.core.timestamps import (
    ModificationRegistry,
    merge_ranges,
    normalize_ranges,
)
from repro.distribution import BlockDistribution, DistArray
from repro.machine import Machine


def dad(size=100, n=4, m=None):
    arr = DistArray(m or Machine(n), BlockDistribution(size, n))
    return DAD.of(arr)


class TestRangeKernels:
    def test_merge_overlapping_and_adjacent(self):
        out = merge_ranges(np.array([[5, 10], [0, 3], [9, 12], [3, 4]]))
        assert out.tolist() == [[0, 4], [5, 12]]

    def test_merge_empty_and_degenerate(self):
        assert merge_ranges(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)
        # zero-length ranges vanish
        assert merge_ranges(np.array([[4, 4], [7, 9]])).tolist() == [[7, 9]]

    def test_normalize_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            normalize_ranges(np.array([[5, 3]]))
        with pytest.raises(ValueError, match="exceeds"):
            normalize_ranges(np.array([[0, 11]]), size=10)
        with pytest.raises(ValueError, match="shape"):
            normalize_ranges(np.array([1, 2, 3]))

    def test_expand_ranges(self):
        out = expand_ranges(np.array([[2, 5], [9, 11], [3, 6]]))
        assert out.tolist() == [2, 3, 4, 5, 9, 10]

    def test_ranges_from_positions_roundtrip(self):
        rng = np.random.default_rng(0)
        pos = np.unique(rng.integers(0, 500, 120))
        ranges = ranges_from_positions(pos)
        assert np.array_equal(expand_ranges(ranges), pos)
        # consecutive runs collapse
        assert ranges_from_positions(np.array([4, 5, 6, 9])).tolist() == [[4, 7], [9, 10]]
        assert ranges_from_positions(np.array([], dtype=np.int64)).shape == (0, 2)


class TestRegistryRegions:
    def test_dirty_ranges_since_stamp(self):
        reg = ModificationRegistry()
        d = dad()
        reg.record_block_write([d], regions=[np.array([[0, 10]])])
        s1 = reg.nmod
        reg.record_block_write([d], regions=[np.array([[50, 60]])])
        assert reg.dirty_ranges(d, since=0).tolist() == [[0, 10], [50, 60]]
        assert reg.dirty_ranges(d, since=s1).tolist() == [[50, 60]]
        assert reg.dirty_ranges(d, since=reg.nmod).shape == (0, 2)

    def test_regionless_write_means_unknown(self):
        reg = ModificationRegistry()
        d = dad()
        reg.record_block_write([d], regions=[np.array([[0, 5]])])
        reg.record_block_write([d])  # the paper's way: no region info
        assert reg.dirty_ranges(d, since=0) is None
        # but a query window past the unknown write is precise again
        s = reg.nmod
        reg.record_block_write([d], regions=[np.array([[7, 9]])])
        assert reg.dirty_ranges(d, since=s).tolist() == [[7, 9]]

    def test_remap_voids_region_info(self):
        reg = ModificationRegistry()
        d = dad()
        reg.record_remap(d)
        assert reg.dirty_ranges(d, since=0) is None

    def test_regions_alignment_enforced(self):
        reg = ModificationRegistry()
        with pytest.raises(ValueError, match="region entries"):
            reg.record_block_write([dad()], regions=[])

    def test_event_log_coalescing_stays_conservative(self):
        """Past the event cap, old events merge: queries inside the
        coalesced window may widen but never miss a range."""
        reg = ModificationRegistry()
        d = dad(size=1000)
        for i in range(100):
            reg.record_block_write([d], regions=[np.array([[i * 10, i * 10 + 3]])])
        # query from the very beginning still covers every write
        full = reg.dirty_ranges(d, since=0)
        got = expand_ranges(full)
        want = np.concatenate([np.arange(i * 10, i * 10 + 3) for i in range(100)])
        assert set(want.tolist()) <= set(got.tolist())
        # recent window is exact (recent events are kept uncoalesced)
        s = reg.nmod - 2
        assert reg.dirty_ranges(d, since=s).tolist() == [[980, 983], [990, 993]]

    def test_coalescing_never_drops_post_since_writes(self):
        """Regression: a `since` *inside* a later-coalesced window must
        still see every write after it.  (The merged event must carry
        the newest stamp of the folded half, not the oldest.)"""
        reg = ModificationRegistry()
        d = dad(size=2000)
        reg.record_block_write([d], regions=[np.array([[0, 1]])])
        since = reg.nmod  # a record taken here...
        for i in range(120):  # ...followed by enough writes to coalesce
            reg.record_block_write(
                [d], regions=[np.array([[i * 10 + 5, i * 10 + 7]])]
            )
        got = set(expand_ranges(reg.dirty_ranges(d, since=since)).tolist())
        want = {
            p for i in range(120) for p in range(i * 10 + 5, i * 10 + 7)
        }
        assert want <= got
        # and the pre-since write may not leak *requirements*: it is
        # allowed to appear (conservative) but everything after must
        missing = want - got
        assert not missing


class TestRegistryEdges:
    """Satellite coverage: ordering and never-seen-DAD edge cases."""

    def test_last_mod_of_never_seen_dad_is_zero(self):
        reg = ModificationRegistry()
        assert reg.last_mod(dad(size=77)) == 0
        reg.record_block_write([dad(size=10)])
        assert reg.last_mod(dad(size=77)) == 0  # still never stamped

    def test_remap_then_write_ordering(self):
        """A remap followed by a write stamps the *new* DAD twice and
        leaves the old DAD's stamp frozen at its pre-remap value."""
        m = Machine(4)
        from repro.distribution import IrregularDistribution

        arr = DistArray(m, BlockDistribution(8, 4), name="a")
        reg = ModificationRegistry()
        old_dad = DAD.of(arr)
        reg.record_block_write([old_dad])  # nmod 1
        new = IrregularDistribution([0, 1, 2, 3] * 2, 4)
        arr.rebind_flat(new, np.zeros(new.size))
        new_dad = DAD.of(arr)
        reg.record_remap(new_dad)  # nmod 2
        reg.record_block_write([new_dad])  # nmod 3
        assert reg.last_mod(old_dad) == 1
        assert reg.last_mod(new_dad) == 3
        assert reg.nmod == 3

    def test_write_then_remap_back_does_not_revive_stamp(self):
        """Remapping back to an identical distribution yields the same
        DAD signature, so its stamp reflects the latest event -- the
        reuse check correctly refuses a record taken before the cycle."""
        reg = ModificationRegistry()
        d = dad(size=30)
        reg.record_block_write([d])
        saved = reg.last_mod(d)
        reg.record_remap(d)  # away-and-back ends at the same signature
        assert reg.last_mod(d) == reg.nmod != saved
