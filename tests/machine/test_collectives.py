"""Tests for the modeled all-gather."""

import pytest

from repro.machine import Machine
from repro.machine.collectives import allgather_cost


class TestAllgather:
    def test_single_proc_free(self):
        assert allgather_cost(Machine(1), 100) == 0.0

    def test_counters_track_recursive_doubling(self):
        m = Machine(4)
        allgather_cost(m, 100)
        assert m.counters.messages_sent[0] == 2  # log2(4) rounds
        assert m.counters.bytes_sent[0] == 300  # (2^2 - 1) * 100

    @pytest.mark.parametrize("n_procs, rounds", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (12, 4)])
    def test_rounds_are_ceil_log2(self, n_procs, rounds):
        # a count that is not a power of two pays a whole extra doubling
        # round (the "full" network accepts any count)
        m = Machine(n_procs, topology="full")
        dt = allgather_cost(m, 100)
        assert m.counters.messages_sent.tolist() == [rounds] * n_procs
        assert m.counters.bytes_received.tolist() == [(2**rounds - 1) * 100] * n_procs
        assert dt == sum(m.cost.message_time(100 * 2**r) for r in range(rounds))

    def test_zero_bytes_costs_only_startups(self):
        m = Machine(8)
        assert allgather_cost(m, 0) == pytest.approx(3 * m.cost.alpha)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative allgather"):
            allgather_cost(Machine(2), -1)

    def test_clocks_synchronized_after(self):
        m = Machine(8)
        m.charge_compute(3, flops=1e3)
        allgather_cost(m, 256)
        clocks = [m.clock(p) for p in range(8)]
        assert max(clocks) == pytest.approx(min(clocks))
