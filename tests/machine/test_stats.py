"""Direct tests for the stats module (records, deltas, aggregates)."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.stats import (
    COUNTER_FIELDS,
    CounterBlock,
    MachineStats,
    PhaseRecord,
)


def block_of(**columns):
    """CounterBlock with the given per-processor counter columns."""
    (n,) = {len(col) for col in columns.values()}
    block = CounterBlock(n)
    for name, col in columns.items():
        getattr(block, name)[:] = col
    return block


class TestCounterBlock:
    def test_copy_is_independent(self):
        block = block_of(clock=[1.0], flops=[10.0])
        snap = block.copy()
        block.clock[0] = 5.0
        block.flops += 89.0
        assert snap.clock[0] == 1.0 and snap.flops[0] == 10.0

    def test_delta(self):
        a = block_of(clock=[1.0], messages_sent=[2], bytes_sent=[100], flops=[5.0])
        b = block_of(clock=[3.5], messages_sent=[7], bytes_sent=[350], flops=[9.0])
        d = b.delta(a)
        assert d.clock[0] == pytest.approx(2.5)
        assert d.messages_sent[0] == 5
        assert d.bytes_sent[0] == 250
        assert d.flops[0] == pytest.approx(4.0)
        assert d.messages_sent.dtype == np.int64  # counts stay integers

    def test_default_zeroes(self):
        block = CounterBlock(3)
        for name in COUNTER_FIELDS:
            assert not getattr(block, name).any() and getattr(block, name).shape == (3,)


class TestMachineStats:
    def test_phase_time_sums_same_name(self):
        ms = MachineStats()
        ms.add(PhaseRecord("a", 1.0, CounterBlock(0)))
        ms.add(PhaseRecord("b", 2.0, CounterBlock(0)))
        ms.add(PhaseRecord("a", 3.0, CounterBlock(0)))
        assert ms.phase_time("a") == pytest.approx(4.0)
        assert ms.phase_time("missing") == 0.0

    def test_clear(self):
        ms = MachineStats()
        ms.add(PhaseRecord("a", 1.5, CounterBlock(0)))
        ms.clear()
        assert ms.phases == [] and ms.phase_time("a") == 0.0


class TestIntegrationWithMachine:
    def test_nested_phases_record_independently(self):
        m = Machine(2)
        with m.phase("outer"):
            m.charge_compute(0, flops=1e5)
            with m.phase("inner"):
                m.charge_compute(1, flops=2e5)
        names = [p.name for p in m.stats.phases]
        assert names == ["inner", "outer"]  # inner closes first
        inner, outer = m.stats.phases
        assert outer.elapsed >= inner.elapsed

    def test_phase_elapsed_counts_barrier_cost(self):
        m = Machine(8)
        with m.phase("empty"):
            pass
        # even an empty phase pays the closing barrier
        assert m.stats.phases[0].elapsed >= 0.0
        assert m.elapsed() > 0.0
