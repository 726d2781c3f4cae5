"""Tests for array remapping between distributions."""

import numpy as np
import pytest

from repro.chaos.remap import build_remap_schedule, remap_arrays
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    DistArray,
    IrregularDistribution,
)
from repro.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


class TestRemapArray:
    def test_block_to_cyclic_preserves_content(self, m4):
        vals = np.arange(10.0)
        arr = DistArray.from_global(m4, BlockDistribution(10, 4), vals)
        remap_arrays([arr], CyclicDistribution(10, 4))
        assert arr.distribution.kind == "cyclic"
        assert np.array_equal(arr.to_global(), vals)

    def test_block_to_irregular(self, m4):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=20)
        arr = DistArray.from_global(m4, BlockDistribution(20, 4), vals)
        new = IrregularDistribution(rng.integers(0, 4, size=20), 4)
        remap_arrays([arr], new)
        assert np.allclose(arr.to_global(), vals)
        assert arr.local(2).size == new.local_size(2)

    def test_identity_remap_moves_nothing_off_proc(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(10, 4), np.arange(10.0))
        sched = build_remap_schedule(m4, arr.distribution, BlockDistribution(10, 4))
        assert sched.element_count() == 0

    def test_remap_charges_machine(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(10, 4), np.arange(10.0))
        remap_arrays([arr], CyclicDistribution(10, 4))
        assert m4.elapsed() > 0
        assert m4.counters.messages_sent.sum() > 0

    def test_size_mismatch_rejected(self, m4):
        with pytest.raises(ValueError, match="sizes 10 and 8"):
            build_remap_schedule(m4, BlockDistribution(10, 4), BlockDistribution(8, 4))

    def test_stale_schedule_rejected(self, m4):
        arr = DistArray.from_global(m4, BlockDistribution(10, 4), np.arange(10.0))
        sched = build_remap_schedule(m4, CyclicDistribution(10, 4), BlockDistribution(10, 4))
        with pytest.raises(ValueError, match="stale"):
            sched.apply(arr)


class TestRemapArrays:
    def test_shared_schedule_applies_to_all(self, m4):
        dist = BlockDistribution(12, 4)
        a = DistArray.from_global(m4, dist, np.arange(12.0), name="x")
        b = DistArray.from_global(m4, dist, np.arange(12.0) * 2, name="y")
        new = IrregularDistribution([3] * 6 + [0] * 6, 4)
        remap_arrays([a, b], new)
        assert np.array_equal(a.to_global(), np.arange(12.0))
        assert np.array_equal(b.to_global(), np.arange(12.0) * 2)
        assert a.distribution is new and b.distribution is new

    def test_mixed_distributions_rejected(self, m4):
        a = DistArray.from_global(m4, BlockDistribution(12, 4), np.arange(12.0))
        b = DistArray.from_global(m4, CyclicDistribution(12, 4), np.arange(12.0))
        with pytest.raises(ValueError, match="different"):
            remap_arrays([a, b], BlockDistribution(12, 4))

    def test_empty_list_rejected(self, m4):
        with pytest.raises(ValueError, match="no arrays"):
            remap_arrays([], BlockDistribution(4, 4))

    def test_int_dtype_preserved(self, m4):
        arr = DistArray.from_global(
            m4, BlockDistribution(8, 4), np.arange(8, dtype=np.int64)
        )
        remap_arrays([arr], CyclicDistribution(8, 4))
        assert arr.dtype == np.int64
        assert np.array_equal(arr.to_global(), np.arange(8))
