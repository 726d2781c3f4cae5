"""Tests for DADs and the nmod/last_mod registry."""

import numpy as np
import pytest

from repro.core import DAD, ModificationRegistry
from repro.distribution import (
    BlockDistribution,
    DistArray,
    IrregularDistribution,
)
from repro.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


class TestDAD:
    def test_same_distribution_same_dad(self, m4):
        d = BlockDistribution(10, 4)
        a = DistArray(m4, d, name="a")
        b = DistArray(m4, d, name="b")
        assert DAD.of(a) == DAD.of(b)
        assert hash(DAD.of(a)) == hash(DAD.of(b))

    def test_kind_and_size_exposed(self, m4):
        arr = DistArray(m4, BlockDistribution(10, 4))
        dad = DAD.of(arr)
        assert dad.kind == "block" and dad.size == 10

    def test_remap_changes_dad(self, m4):
        arr = DistArray(m4, BlockDistribution(8, 4))
        before = DAD.of(arr)
        new = IrregularDistribution([3, 2, 1, 0, 3, 2, 1, 0], 4)
        arr.rebind_flat(new, np.zeros(new.size))
        assert DAD.of(arr) != before

    def test_equal_irregular_maps_share_dad(self, m4):
        a = DistArray(m4, IrregularDistribution([0, 1, 2, 3], 4))
        b = DistArray(m4, IrregularDistribution([0, 1, 2, 3], 4))
        assert DAD.of(a) == DAD.of(b)


class TestRegistry:
    def test_initially_zero(self):
        reg = ModificationRegistry()
        assert reg.nmod == 0

    def test_block_write_increments_once(self, m4):
        reg = ModificationRegistry()
        a = DistArray(m4, BlockDistribution(10, 4), name="a")
        b = DistArray(m4, BlockDistribution(12, 4), name="b")
        reg.record_block_write([DAD.of(a), DAD.of(b)])
        assert reg.nmod == 1  # one block, one increment
        assert reg.last_mod(DAD.of(a)) == 1
        assert reg.last_mod(DAD.of(b)) == 1

    def test_never_written_dad_is_zero(self, m4):
        reg = ModificationRegistry()
        arr = DistArray(m4, BlockDistribution(10, 4))
        assert reg.last_mod(DAD.of(arr)) == 0

    def test_shared_dad_arrays_stamp_together(self, m4):
        """Writing any array with a given DAD stamps that DAD -- the
        source of the check's conservatism."""
        reg = ModificationRegistry()
        d = BlockDistribution(10, 4)
        a = DistArray(m4, d, name="a")
        b = DistArray(m4, d, name="b")
        reg.record_block_write([DAD.of(a)])
        assert reg.last_mod(DAD.of(b)) == 1  # b shares a's descriptor

    def test_remap_bumps_nmod_and_stamps_new_dad(self, m4):
        reg = ModificationRegistry()
        arr = DistArray(m4, BlockDistribution(8, 4))
        reg.record_block_write([DAD.of(arr)])
        new = IrregularDistribution([0, 1, 2, 3] * 2, 4)
        arr.rebind_flat(new, np.zeros(new.size))
        reg.record_remap(DAD.of(arr))
        assert reg.nmod == 2
        assert reg.last_mod(DAD.of(arr)) == 2

    def test_monotone_nmod(self, m4):
        reg = ModificationRegistry()
        arr = DistArray(m4, BlockDistribution(4, 4))
        stamps = [reg.record_block_write([DAD.of(arr)]) for _ in range(5)]
        assert stamps == [1, 2, 3, 4, 5]
