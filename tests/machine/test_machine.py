"""Tests for the Machine simulation core."""

import pytest

from repro.machine import Machine, IPSC860
from repro.machine.topology import FullyConnectedTopology
from tests.chaos.pairs import exchange_pairs


@pytest.fixture
def m4():
    return Machine(4)


class TestConstruction:
    def test_default_topology_is_hypercube(self, m4):
        assert type(m4.topology).__name__ == "HypercubeTopology"

    def test_non_power_of_two_rejected_on_hypercube(self):
        with pytest.raises(ValueError, match="power-of-two"):
            Machine(6)

    def test_explicit_topology(self):
        m = Machine(6, topology="full")
        assert m.topology.n_procs == 6

    def test_topology_instance_size_mismatch(self):
        with pytest.raises(ValueError, match="topology is for"):
            Machine(4, topology=FullyConnectedTopology(8))

    def test_zero_procs(self):
        with pytest.raises(ValueError, match="at least one"):
            Machine(0)


class TestClocks:
    def test_initially_zero(self, m4):
        assert m4.elapsed() == 0.0
        assert all(m4.clock(p) == 0.0 for p in range(4))

    def test_charge_compute_advances_one_clock(self, m4):
        dt = m4.charge_compute(1, flops=2e6)
        assert dt == pytest.approx(2e6 * IPSC860.flop_time)
        assert m4.clock(1) == pytest.approx(dt)
        assert m4.clock(0) == 0.0

    def test_charge_compute_all_scalar(self, m4):
        m4.charge_compute_all(flops=1000.0)
        assert all(m4.clock(p) > 0 for p in range(4))

    def test_charge_compute_all_vector(self, m4):
        m4.charge_compute_all(flops=[0.0, 1000.0, 2000.0, 3000.0])
        assert m4.clock(0) == 0.0
        assert m4.clock(3) == pytest.approx(3 * m4.clock(1))

    def test_rank_range_checked(self, m4):
        with pytest.raises(ValueError, match="out of range"):
            m4.clock(9)


class TestSend:
    def test_send_charges_both_ends(self, m4):
        m4.send(0, 1, 800)
        assert m4.clock(0) == m4.clock(1) > 0
        assert m4.clock(2) == 0.0
        c = m4.counters
        assert c.messages_sent[0] == 1 and c.bytes_sent[0] == 800
        assert c.messages_received[1] == 1 and c.bytes_received[1] == 800

    def test_send_to_self_is_memcpy(self, m4):
        m4.send(2, 2, 800)
        assert m4.counters.messages_sent[2] == 0
        assert m4.clock(2) == pytest.approx(100 * IPSC860.mem_time)

    def test_farther_costs_more(self):
        m = Machine(8)
        t1 = m.send(0, 1, 100)  # 1 hop
        t3 = m.send(0, 7, 100)  # 3 hops
        assert t3 > t1

    def test_negative_size_rejected(self, m4):
        with pytest.raises(ValueError, match="negative message size"):
            m4.send(0, 1, -5)


class TestExchange:
    def test_exchange_sums_per_processor(self, m4):
        exchange_pairs(m4, {(0, 1): 100, (0, 2): 100, (3, 0): 100})
        # proc 0 sends twice and receives once
        assert m4.counters.messages_sent[0] == 2
        assert m4.counters.messages_received[0] == 1
        assert m4.clock(0) > m4.clock(3)

    def test_zero_byte_messages_skipped(self, m4):
        exchange_pairs(m4, {(0, 1): 0})
        assert m4.counters.messages_sent[0] == 0
        assert m4.elapsed() == 0.0

    def test_self_entry_is_local_copy(self, m4):
        exchange_pairs(m4, {(1, 1): 160})
        assert m4.counters.messages_sent[1] == 0
        assert m4.clock(1) > 0


class TestBarrierAndPhases:
    def test_barrier_levels_clocks(self, m4):
        m4.charge_compute(2, flops=1e6)
        t = m4.barrier()
        assert all(m4.clock(p) == pytest.approx(t) for p in range(4))
        assert t > 1e6 * IPSC860.flop_time  # includes sync cost

    def test_single_proc_barrier_free(self):
        m = Machine(1)
        m.charge_compute(0, flops=100)
        before = m.elapsed()
        assert m.barrier() == pytest.approx(before)

    def test_phase_records_elapsed_max(self, m4):
        with m4.phase("compute"):
            m4.charge_compute(0, flops=1e6)
            m4.charge_compute(1, flops=3e6)
        rec = m4.stats.phases[-1]
        assert rec.name == "compute"
        # slowest processor dominates
        assert rec.elapsed >= 3e6 * IPSC860.flop_time

    def test_phase_time_sums_by_name(self, m4):
        for _ in range(3):
            with m4.phase("exec"):
                m4.charge_compute_all(flops=1000.0)
        with m4.phase("other"):
            m4.charge_compute_all(flops=1000.0)
        assert m4.phase_time("exec") == pytest.approx(
            sum(p.elapsed for p in m4.stats.phases[:3])
        )

    def test_phase_per_proc_deltas(self, m4):
        m4.charge_compute(0, flops=5e5)  # pre-phase work must not leak in
        with m4.phase("w"):
            m4.charge_compute(1, flops=1e6)
        rec = m4.stats.phases[-1]
        assert rec.arrays.flops[1] == pytest.approx(1e6)
        assert rec.arrays.flops[0] == 0.0

    def test_phase_record_aggregates(self, m4):
        with m4.phase("comm"):
            m4.send(0, 1, 1000)
            m4.send(2, 3, 500)
        rec = m4.stats.phases[-1]
        assert rec.arrays.messages_sent.sum() == 2
        assert rec.arrays.bytes_sent.sum() == 1500

    def test_reset(self, m4):
        with m4.phase("x"):
            m4.charge_compute_all(flops=10.0)
        m4.reset()
        assert m4.elapsed() == 0.0
        assert m4.stats.phases == []


class TestCostModelSwap:
    def test_faster_cost_model_gives_faster_machine(self):
        fast_model = IPSC860.scaled(alpha=0.01, beta=0.01, hop_cost=0.0)
        slow, fast = Machine(4), Machine(4, cost_model=fast_model)
        for m in (slow, fast):
            m.send(0, 1, 10_000)
        assert fast.elapsed() < slow.elapsed() / 10
