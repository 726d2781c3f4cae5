"""Tests for modeled collective operations."""

import pytest

from repro.machine import Machine
from repro.machine.collectives import (
    allgather_cost,
    allreduce_cost,
    alltoallv_cost,
    barrier_cost,
    broadcast_cost,
    reduce_cost,
)


class TestBroadcast:
    def test_single_proc_free(self):
        m = Machine(1)
        assert broadcast_cost(m, 1000) == 0.0

    def test_log_scaling(self):
        t2 = broadcast_cost(Machine(2), 1000)
        t16 = broadcast_cost(Machine(16), 1000)
        assert t16 == pytest.approx(4 * t2)

    def test_clocks_synchronized_after(self):
        m = Machine(8)
        broadcast_cost(m, 256)
        clocks = [m.clock(p) for p in range(8)]
        assert max(clocks) == pytest.approx(min(clocks))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative broadcast"):
            broadcast_cost(Machine(2), -1)

    def test_root_counters(self):
        m = Machine(4)
        broadcast_cost(m, 100, root=2)
        assert m.counters.messages_sent[2] == 3
        assert m.counters.messages_received[0] == 1


class TestReduceAllreduce:
    def test_reduce_beats_nothing_on_one_proc(self):
        assert reduce_cost(Machine(1), 64) == 0.0

    def test_allreduce_is_reduce_plus_bcast(self):
        m1, m2 = Machine(8), Machine(8)
        t = allreduce_cost(m1, 64)
        tr = reduce_cost(m2, 64)
        tb = broadcast_cost(m2, 64)
        assert t == pytest.approx(tr + tb)

    def test_reduce_includes_combine_flops(self):
        m = Machine(2)
        t_small = reduce_cost(m, 8)
        m2 = Machine(2)
        t_big = reduce_cost(m2, 8 * 1024)
        assert t_big > t_small


class TestAllgather:
    def test_single_proc_free(self):
        assert allgather_cost(Machine(1), 100) == 0.0

    def test_counters_track_recursive_doubling(self):
        m = Machine(4)
        allgather_cost(m, 100)
        assert m.counters.messages_sent[0] == 2  # log2(4) rounds
        assert m.counters.bytes_sent[0] == 300  # (2^2 - 1) * 100


class TestAlltoallv:
    def test_shape_checked(self):
        m = Machine(4)
        with pytest.raises(ValueError, match="4x4"):
            alltoallv_cost(m, [[0] * 3] * 4)

    def test_empty_matrix_near_free(self):
        m = Machine(4)
        t = alltoallv_cost(m, [[0] * 4 for _ in range(4)])
        # only the barrier cost
        assert t < 10 * m.cost.alpha

    def test_busy_processor_dominates(self):
        m = Machine(4)
        mat = [[0] * 4 for _ in range(4)]
        mat[0][1] = mat[0][2] = mat[0][3] = 10_000
        t = alltoallv_cost(m, mat)
        assert t >= 3 * m.cost.message_time(10_000)


def test_barrier_cost_returns_synced_time():
    m = Machine(4)
    m.charge_compute(3, flops=1e6)
    t = barrier_cost(m)
    assert all(m.clock(p) == pytest.approx(t) for p in range(4))
