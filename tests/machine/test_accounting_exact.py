"""Exact time-accounting checks: simulated clocks must equal hand-derived
alpha-beta arithmetic for small, fully-analyzable scenarios.  Every table
the golden fixtures (``tests/bench/fixtures``) pin rests on this
bookkeeping."""

import numpy as np
import pytest

from repro.chaos import build_translation_table, localize
from repro.chaos.costs import DEFAULT_COSTS
from repro.distribution import BlockDistribution, DistArray
from repro.machine import Machine
from repro.machine.costmodel import CostModel
from tests.chaos.pairs import exchange_pairs


def flat_model(**kw):
    """A cost model where every term is separately controllable."""
    defaults = dict(
        alpha=1.0, beta=0.0, hop_cost=0.0, flop_time=0.0, iop_time=0.0, mem_time=0.0
    )
    defaults.update(kw)
    return CostModel(**defaults)


class TestPointToPoint:
    def test_single_message_exact(self):
        m = Machine(2, cost_model=flat_model(alpha=2.0, beta=0.5))
        m.send(0, 1, 10)
        # t = alpha + beta*bytes = 2 + 5
        assert m.clock(0) == pytest.approx(7.0)
        assert m.clock(1) == pytest.approx(7.0)

    def test_hop_surcharge_exact(self):
        m = Machine(8, cost_model=flat_model(alpha=1.0, hop_cost=0.25))
        m.send(0, 7, 0)  # 3 hops on the hypercube
        assert m.clock(0) == pytest.approx(1.0 + 2 * 0.25)

    def test_exchange_sums_per_endpoint(self):
        m = Machine(4, cost_model=flat_model(alpha=1.0))
        exchange_pairs(m, {(0, 1): 4, (0, 2): 4, (3, 0): 4})
        # proc 0: two sends + one receive = 3 message times
        assert m.clock(0) == pytest.approx(3.0)
        # proc 3: one send
        assert m.clock(3) == pytest.approx(1.0)

    def test_compute_charges_exact(self):
        m = Machine(2, cost_model=flat_model(flop_time=0.1, iop_time=0.01, mem_time=0.001))
        m.charge_compute(1, flops=10, iops=20, mem=30)
        assert m.clock(1) == pytest.approx(10 * 0.1 + 20 * 0.01 + 30 * 0.001)


class TestBarrierExact:
    def test_tree_barrier_cost(self):
        m = Machine(8, cost_model=flat_model(alpha=1.0))
        m.charge_compute(5, flops=0)  # clocks all zero
        t = m.barrier()
        # depth = ceil(log2(8)) = 3; up+down sweeps = 2*3 alphas
        assert t == pytest.approx(6.0)

    def test_barrier_from_skewed_clocks(self):
        m = Machine(2, cost_model=flat_model(alpha=1.0, flop_time=1.0))
        m.charge_compute(1, flops=5)
        t = m.barrier()
        assert t == pytest.approx(5 + 2 * 1.0)


class TestGatherAccountingExact:
    def test_one_ghost_element_full_story(self):
        """One off-processor reference: the gather must cost exactly one
        message of itemsize bytes plus the pack/unpack memory walk."""
        model = flat_model(alpha=1.0, beta=0.5, mem_time=0.25)
        m = Machine(2, cost_model=model)
        dist = BlockDistribution(4, 2)
        tt = build_translation_table(m, dist)
        res = localize(
            m, tt, [np.array([3], dtype=np.int64), np.empty(0, dtype=np.int64)]
        )
        arr = DistArray.from_global(m, dist, np.arange(4.0))
        ghosts = np.zeros(res.schedule.ghost_total())
        m.reset()
        res.schedule.gather(arr, ghosts)
        # pack on proc 1: pack_unpack_mem * 1 mem ops; message 8 bytes;
        # unpack on proc 0: pack_unpack_mem * 1
        msg = 1.0 + 0.5 * 8
        memwalk = DEFAULT_COSTS.pack_unpack_mem * 0.25
        assert m.clock(0) == pytest.approx(msg + memwalk)
        assert m.clock(1) == pytest.approx(msg + memwalk)
        assert ghosts.tolist() == [3.0]  # processor 0's one ghost slot

    def test_empty_schedule_costs_nothing(self):
        m = Machine(2, cost_model=flat_model(alpha=1.0))
        dist = BlockDistribution(4, 2)
        tt = build_translation_table(m, dist)
        res = localize(
            m,
            tt,
            [np.array([0], dtype=np.int64), np.array([2], dtype=np.int64)],
        )  # all local
        arr = DistArray.from_global(m, dist, np.arange(4.0))
        ghosts = np.zeros(res.schedule.ghost_total())
        m.reset()
        res.schedule.gather(arr, ghosts)
        assert m.elapsed() == 0.0


class TestDeterministicTotals:
    def test_clock_equals_sum_of_charged_terms(self):
        """Counters and clock stay consistent under a mixed workload."""
        model = CostModel(
            alpha=1e-4, beta=1e-6, hop_cost=0.0, flop_time=1e-6,
            iop_time=1e-7, mem_time=1e-8,
        )
        m = Machine(4, cost_model=model)
        m.charge_compute(0, flops=100, iops=200, mem=300)
        m.send(0, 1, 50)
        c = m.counters
        expected = (
            100 * 1e-6 + 200 * 1e-7 + 300 * 1e-8 + (1e-4 + 50 * 1e-6)
        )
        assert c.clock[0] == pytest.approx(expected)
        assert c.flops[0] == 100 and c.iops[0] == 200 and c.mem_ops[0] == 300
        assert c.bytes_sent[0] == 50
