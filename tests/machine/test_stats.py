"""Direct tests for the stats module (records, deltas, aggregates)."""

import pytest

from repro.machine import Machine
from repro.machine.stats import (
    COUNTER_FIELDS,
    CounterBlock,
    MachineStats,
    PhaseRecord,
    ProcessorStats,
)


def block_of(per_proc):
    """CounterBlock holding a list of scalar ProcessorStats."""
    block = CounterBlock(len(per_proc))
    for p, st in enumerate(per_proc):
        for name in COUNTER_FIELDS:
            getattr(block, name)[p] = getattr(st, name)
    return block


class TestProcessorStats:
    def test_snapshot_is_independent_copy(self):
        st = ProcessorStats(clock=1.0, flops=10.0)
        snap = st.snapshot()
        st.clock = 5.0
        st.flops = 99.0
        assert snap.clock == 1.0 and snap.flops == 10.0

    def test_delta(self):
        a = ProcessorStats(clock=1.0, messages_sent=2, bytes_sent=100, flops=5.0)
        b = ProcessorStats(clock=3.5, messages_sent=7, bytes_sent=350, flops=9.0)
        d = b.delta(a)
        assert d.clock == pytest.approx(2.5)
        assert d.messages_sent == 5
        assert d.bytes_sent == 250
        assert d.flops == pytest.approx(4.0)

    def test_default_zeroes(self):
        st = ProcessorStats()
        assert st.clock == 0.0 and st.iops == 0.0 and st.mem_ops == 0.0


class TestPhaseRecord:
    def make(self):
        per_proc = [
            ProcessorStats(clock=1.0, messages_sent=3, bytes_sent=300, flops=10.0),
            ProcessorStats(clock=2.0, messages_sent=1, bytes_sent=50, flops=20.0),
        ]
        rec = PhaseRecord(name="p", elapsed=2.0, arrays=block_of(per_proc))
        assert rec.per_proc == per_proc  # the scalar snapshots round-trip
        return rec

    def test_aggregates(self):
        rec = self.make()
        assert rec.total_messages == 4
        assert rec.total_bytes == 350
        assert rec.total_flops == pytest.approx(30.0)
        assert rec.max_clock == pytest.approx(2.0)

    def test_empty_per_proc(self):
        rec = PhaseRecord(name="e", elapsed=0.0, arrays=CounterBlock(0))
        assert rec.max_clock == 0.0
        assert rec.total_messages == 0


class TestMachineStats:
    def test_phase_time_sums_same_name(self):
        ms = MachineStats()
        ms.add(PhaseRecord("a", 1.0, CounterBlock(0)))
        ms.add(PhaseRecord("b", 2.0, CounterBlock(0)))
        ms.add(PhaseRecord("a", 3.0, CounterBlock(0)))
        assert ms.phase_time("a") == pytest.approx(4.0)
        assert ms.phase_time("missing") == 0.0

    def test_phase_names_first_appearance_order(self):
        ms = MachineStats()
        for name in ("z", "a", "z", "m"):
            ms.add(PhaseRecord(name, 1.0, CounterBlock(0)))
        assert ms.phase_names() == ["z", "a", "m"]

    def test_total_and_clear(self):
        ms = MachineStats()
        ms.add(PhaseRecord("a", 1.5, CounterBlock(0)))
        ms.add(PhaseRecord("b", 0.5, CounterBlock(0)))
        assert ms.total_time() == pytest.approx(2.0)
        ms.clear()
        assert ms.phases == [] and ms.total_time() == 0.0


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
