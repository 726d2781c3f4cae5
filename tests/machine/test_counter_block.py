"""Struct-of-arrays counter block vs the seed-era object store.

``Machine`` keeps all per-processor counters in one
:class:`~repro.machine.stats.CounterBlock` (one ndarray per counter) and
updates them with whole-array operations.  These tests keep a reference
machine whose counters are genuine per-processor objects (``RefStats``,
local to this file) updated by the historical Python folds (the
seed-era semantics), drive both through randomized operation sequences
-- compute charges, sends, dict- and array-form exchanges, barriers,
nested phases, and the all-gather -- and assert *bit-identical*
clocks, counters and phase records.
"""

import dataclasses

import numpy as np
import pytest

from repro.machine import Machine
from repro.machine.collectives import allgather_cost
from repro.machine.costmodel import IPSC860
from repro.machine.stats import COUNTER_FIELDS
from repro.machine.topology import make_topology
from tests.chaos.pairs import exchange_pairs


# ----------------------------------------------------------------------
# reference implementation: per-processor RefStats objects and the
# historical Python folds (seed-era object-store semantics)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RefStats:
    """Counters of one virtual processor, as plain scalars."""

    clock: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    flops: float = 0.0
    iops: float = 0.0
    mem_ops: float = 0.0

    def snapshot(self) -> "RefStats":
        return dataclasses.replace(self)

    def delta(self, earlier: "RefStats") -> "RefStats":
        return RefStats(
            **{f: getattr(self, f) - getattr(earlier, f) for f in COUNTER_FIELDS}
        )


def assert_block_matches(block, per_proc):
    """Every counter of every processor bit-equal to the object store."""
    assert block.n_procs == len(per_proc)
    for p, st in enumerate(per_proc):
        for f in COUNTER_FIELDS:
            assert getattr(block, f)[p] == getattr(st, f), (p, f)


class RefMachine:
    def __init__(self, n_procs, cost_model=IPSC860, topology="hypercube"):
        self.n_procs = n_procs
        self.cost = cost_model
        self.topology = make_topology(topology, n_procs)
        self.stats_objs = [RefStats() for _ in range(n_procs)]
        self.phases = []

    def elapsed(self):
        return max(st.clock for st in self.stats_objs)

    def charge_compute(self, p, flops=0.0, iops=0.0, mem=0.0):
        dt = self.cost.compute_time(flops=flops, iops=iops, mem=mem)
        st = self.stats_objs[p]
        st.clock += dt
        st.flops += flops
        st.iops += iops
        st.mem_ops += mem
        return dt

    def charge_compute_all(self, flops=0.0, iops=0.0, mem=0.0):
        n = self.n_procs
        fl = np.broadcast_to(np.asarray(flops, dtype=np.float64), (n,))
        io = np.broadcast_to(np.asarray(iops, dtype=np.float64), (n,))
        me = np.broadcast_to(np.asarray(mem, dtype=np.float64), (n,))
        dt = self.cost.compute_time_array(flops=fl, iops=io, mem=me)
        for p in range(n):
            st = self.stats_objs[p]
            st.clock += dt[p]
            st.flops += fl[p]
            st.iops += io[p]
            st.mem_ops += me[p]

    def send(self, src, dst, nbytes):
        if src == dst:
            return self.charge_compute(src, mem=nbytes / 8.0)
        hops = self.topology.hops(src, dst)
        dt = self.cost.message_time(nbytes, hops)
        s, d = self.stats_objs[src], self.stats_objs[dst]
        s.clock += dt
        s.messages_sent += 1
        s.bytes_sent += nbytes
        d.clock += dt
        d.messages_received += 1
        d.bytes_received += nbytes
        return dt

    def exchange(self, bytes_matrix=None, *, src=None, dst=None, nbytes=None):
        if bytes_matrix is not None:
            count = len(bytes_matrix)
            src = np.empty(count, dtype=np.int64)
            dst = np.empty(count, dtype=np.int64)
            nbytes = np.empty(count, dtype=np.int64)
            for i, ((s, d), nb) in enumerate(bytes_matrix.items()):
                src[i] = s
                dst[i] = d
                nbytes[i] = nb
        else:
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            nbytes = np.asarray(nbytes, dtype=np.int64)
        if src.size == 0:
            return
        n = self.n_procs
        live = nbytes != 0
        if not live.all():
            src, dst, nbytes = src[live], dst[live], nbytes[live]
            if src.size == 0:
                return
        self_mask = src == dst
        clock_add = np.zeros(n)
        mem_add = np.zeros(n)
        if self_mask.any():
            words = nbytes[self_mask] / 8.0
            np.add.at(clock_add, src[self_mask], self.cost.compute_time_array(mem=words))
            np.add.at(mem_add, src[self_mask], words)
        cross = ~self_mask
        xsrc, xdst, xbytes = src[cross], dst[cross], nbytes[cross]
        send_time = np.zeros(n)
        recv_time = np.zeros(n)
        msg_sent = np.zeros(n, dtype=np.int64)
        msg_recv = np.zeros(n, dtype=np.int64)
        bytes_sent = np.zeros(n, dtype=np.int64)
        bytes_recv = np.zeros(n, dtype=np.int64)
        if xsrc.size:
            hops = self.topology.hops_array(xsrc, xdst)
            dt = self.cost.message_time_array(xbytes, hops)
            np.add.at(send_time, xsrc, dt)
            np.add.at(recv_time, xdst, dt)
            msg_sent = np.bincount(xsrc, minlength=n)
            msg_recv = np.bincount(xdst, minlength=n)
            bytes_sent = np.bincount(xsrc, weights=xbytes, minlength=n).astype(np.int64)
            bytes_recv = np.bincount(xdst, weights=xbytes, minlength=n).astype(np.int64)
        # the seed-era O(P) Python fold over stats objects
        for p in range(n):
            st = self.stats_objs[p]
            st.clock += clock_add[p]
            st.mem_ops += mem_add[p]
            st.messages_sent += int(msg_sent[p])
            st.bytes_sent += int(bytes_sent[p])
            st.messages_received += int(msg_recv[p])
            st.bytes_received += int(bytes_recv[p])
            st.clock += send_time[p] + recv_time[p]

    def barrier(self):
        t = self.elapsed()
        if self.n_procs > 1:
            depth = max(1, (self.n_procs - 1).bit_length())
            t += 2 * depth * self.cost.alpha
        for st in self.stats_objs:
            st.clock = t
        return t

    def phase_open(self):
        self.barrier()
        return self.elapsed(), [st.snapshot() for st in self.stats_objs]

    def phase_close(self, name, opened):
        start, before = opened
        self.barrier()
        end = self.elapsed()
        per_proc = [st.delta(before[p]) for p, st in enumerate(self.stats_objs)]
        self.phases.append((name, end - start, per_proc))


# the seed-era all-gather: a per-processor loop over the stats objects
def ref_allgather(ref, nbytes_per_proc):
    n = ref.n_procs
    if n == 1:
        return
    dt = 0.0
    chunk = nbytes_per_proc
    rounds = max(1, (n - 1).bit_length())
    for _ in range(rounds):
        dt += ref.cost.message_time(chunk)
        chunk *= 2
    for st in ref.stats_objs:
        st.clock += dt
        st.messages_sent += rounds
        st.messages_received += rounds
        st.bytes_sent += (2**rounds - 1) * nbytes_per_proc
        st.bytes_received += (2**rounds - 1) * nbytes_per_proc
    ref.barrier()


# ----------------------------------------------------------------------
# randomized operation sequences
# ----------------------------------------------------------------------
def random_ops(rng, n_procs, count):
    ops = []
    for _ in range(count):
        kind = rng.choice(
            ["compute", "compute_all", "send", "exchange_dict",
             "exchange_arrays", "barrier", "allgather"]
        )
        if kind == "compute":
            ops.append((kind, int(rng.integers(n_procs)),
                        float(rng.integers(0, 50)), float(rng.integers(0, 50)),
                        float(rng.integers(0, 50))))
        elif kind == "compute_all":
            ops.append((kind, rng.integers(0, 40, n_procs).astype(float),
                        rng.integers(0, 40, n_procs).astype(float),
                        float(rng.integers(0, 40))))
        elif kind == "send":
            ops.append((kind, int(rng.integers(n_procs)), int(rng.integers(n_procs)),
                        int(rng.integers(0, 2000))))
        elif kind in ("exchange_dict", "exchange_arrays"):
            k = int(rng.integers(0, 3 * n_procs))
            src = rng.integers(0, n_procs, k)
            dst = rng.integers(0, n_procs, k)
            # duplicates and zero-byte entries deliberately included
            nb = rng.integers(0, 500, k)
            ops.append((kind, src, dst, nb))
        elif kind == "allgather":
            ops.append((kind, int(rng.integers(0, 1024))))
        else:
            ops.append((kind,))
    return ops


def apply_op(machine, ref, op):
    kind = op[0]
    if kind == "compute":
        _, p, fl, io, me = op
        machine.charge_compute(p, flops=fl, iops=io, mem=me)
        ref.charge_compute(p, flops=fl, iops=io, mem=me)
    elif kind == "compute_all":
        _, fl, io, me = op
        machine.charge_compute_all(flops=fl, iops=io, mem=me)
        ref.charge_compute_all(flops=fl, iops=io, mem=me)
    elif kind == "send":
        _, s, d, nb = op
        machine.send(s, d, nb)
        ref.send(s, d, nb)
    elif kind == "exchange_dict":
        _, src, dst, nb = op
        mat = {}
        for s, d, v in zip(src, dst, nb):
            mat[(int(s), int(d))] = int(v)
        exchange_pairs(machine, mat)
        ref.exchange(dict(mat))
    elif kind == "exchange_arrays":
        _, src, dst, nb = op
        machine.exchange(src=src, dst=dst, nbytes=nb)
        ref.exchange(src=src, dst=dst, nbytes=nb)
    elif kind == "barrier":
        machine.barrier()
        ref.barrier()
    elif kind == "allgather":
        _, nb = op
        allgather_cost(machine, nb)
        ref_allgather(ref, nb)


def assert_identical(machine, ref):
    assert_block_matches(machine.counters, ref.stats_objs)
    assert machine.elapsed() == ref.elapsed()
    # per-counter machine totals straight off the array block
    assert int(machine.counters.messages_sent.sum()) == sum(
        st.messages_sent for st in ref.stats_objs
    )
    assert int(machine.counters.bytes_received.sum()) == sum(
        st.bytes_received for st in ref.stats_objs
    )
    assert float(machine.counters.flops.sum()) == sum(st.flops for st in ref.stats_objs)


CASES = [(1, 0), (2, 1), (3, 2), (4, 3), (8, 4), (16, 5)]


@pytest.mark.parametrize("n_procs,seed", CASES)
def test_randomized_sequences_match_object_store(n_procs, seed):
    rng = np.random.default_rng(seed)
    topo = "hypercube" if n_procs & (n_procs - 1) == 0 else "full"
    machine = Machine(n_procs, topology=topo)
    ref = RefMachine(n_procs, topology=topo)
    for op in random_ops(rng, n_procs, 60):
        apply_op(machine, ref, op)
    assert_identical(machine, ref)


@pytest.mark.parametrize("n_procs,seed", [(4, 10), (8, 11)])
def test_phases_match_object_store(n_procs, seed):
    """Nested phases produce identical elapsed times and per-proc deltas."""
    rng = np.random.default_rng(seed)
    machine = Machine(n_procs)
    ref = RefMachine(n_procs)
    with machine.phase("outer"):
        opened_outer = ref.phase_open()
        for op in random_ops(rng.spawn(1)[0], n_procs, 15):
            apply_op(machine, ref, op)
        with machine.phase("inner"):
            opened_inner = ref.phase_open()
            for op in random_ops(rng.spawn(2)[1], n_procs, 15):
                apply_op(machine, ref, op)
            ref.phase_close("inner", opened_inner)
        ref.phase_close("outer", opened_outer)
    assert [p.name for p in machine.stats.phases] == [n for n, _, _ in ref.phases]
    for rec, (_, elapsed, per_proc) in zip(machine.stats.phases, ref.phases):
        assert rec.elapsed == elapsed
        assert_block_matches(rec.arrays, per_proc)
    assert_identical(machine, ref)


class TestViewSemantics:
    def test_snapshot_is_decoupled(self):
        """``counters.copy()`` -- what a phase opens with -- does not
        follow later charges."""
        m = Machine(2)
        m.charge_compute(0, flops=10.0)
        snap = m.counters.copy()
        m.charge_compute(0, flops=10.0)
        assert snap.flops[0] == 10.0
        assert m.counters.flops[0] == 20.0

    def test_reset_zeroes_block(self):
        m = Machine(4)
        m.send(0, 1, 100)
        with m.phase("x"):
            m.charge_compute(0, flops=1.0)
        m.reset()
        assert m.elapsed() == 0.0
        assert int(m.counters.messages_sent.sum()) == 0
        assert m.stats.phases == []
