"""Flattened remap schedules vs the naive per-move-pair loop.

``RemapSchedule.apply`` and ``build_remap_schedule`` historically looped
over every (src, dst) move pair in Python.  These tests keep that naive
implementation as a reference oracle (mirroring
``tests/chaos/test_schedule_flat.py``) and check, over randomized
partitions, that the flattened CSR-style path produces *identical*
remapped array contents and *bit-identical* per-processor simulated
clocks and counters.
"""

import numpy as np
import pytest

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.remap import build_remap_schedule
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    DistArray,
    IrregularDistribution,
)
from repro.machine.machine import Machine


# ----------------------------------------------------------------------
# naive reference: the historical per-pair implementation
# ----------------------------------------------------------------------
def naive_build(machine, old_dist, new_dist, costs=DEFAULT_COSTS):
    n = machine.n_procs
    size = old_dist.size
    g = np.arange(size, dtype=np.int64)
    old_owner = np.asarray(old_dist.owner(g), dtype=np.int64) if size else g
    new_owner = np.asarray(new_dist.owner(g), dtype=np.int64) if size else g
    old_lidx = np.asarray(old_dist.local_index(g), dtype=np.int64) if size else g
    new_lidx = np.asarray(new_dist.local_index(g), dtype=np.int64) if size else g

    moves = {}
    counts = np.zeros((n, n), dtype=np.int64)
    if size:
        pair_key = old_owner * n + new_owner
        order = np.argsort(pair_key, kind="stable")
        sorted_keys = pair_key[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate(([0], boundaries, [size]))
        for i in range(len(starts) - 1):
            lo, hi = starts[i], starts[i + 1]
            key = int(sorted_keys[lo])
            p, q = divmod(key, n)
            idx = order[lo:hi]
            moves[(p, q)] = (old_lidx[idx], new_lidx[idx])
            counts[p, q] = hi - lo

    per_proc = counts.sum(axis=1).astype(float)
    machine.charge_compute_all(iops=costs.remap_build * per_proc)
    off_diag = counts.copy()
    np.fill_diagonal(off_diag, 0)
    move_p, move_q = np.nonzero(off_diag)
    machine.exchange(
        src=move_p,
        dst=move_q,
        nbytes=off_diag[move_p, move_q] * 2 * costs.index_bytes,
    )
    machine.barrier()
    return moves


def naive_apply(machine, moves, new_dist, arr, costs=DEFAULT_COSTS):
    n = machine.n_procs
    new_locals = [
        np.empty(new_dist.local_size(p), dtype=arr.dtype) for p in range(n)
    ]
    pack = np.zeros(n)
    unpack = np.zeros(n)
    pair_p = []
    pair_q = []
    pair_bytes = []
    for (p, q), (src_l, dst_l) in moves.items():
        if not len(src_l):
            continue
        new_locals[q][dst_l] = arr.local(p)[src_l]
        pack[p] += costs.pack_unpack_mem * len(src_l)
        unpack[q] += costs.pack_unpack_mem * len(src_l)
        pair_p.append(p)
        pair_q.append(q)
        pair_bytes.append(len(src_l) * arr.itemsize)
    machine.charge_compute_all(mem=pack)
    machine.exchange(
        src=np.asarray(pair_p, dtype=np.int64),
        dst=np.asarray(pair_q, dtype=np.int64),
        nbytes=np.asarray(pair_bytes, dtype=np.int64),
    )
    machine.charge_compute_all(mem=unpack)
    arr.rebind_flat(new_dist, np.concatenate(new_locals))


# ----------------------------------------------------------------------
# randomized distribution pairs
# ----------------------------------------------------------------------
def random_dist(rng, size, n_procs):
    kind = rng.choice(["block", "cyclic", "irregular"])
    if kind == "block":
        return BlockDistribution(size, n_procs)
    if kind == "cyclic":
        return CyclicDistribution(size, n_procs)
    return IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)


def clocks(machine):
    return machine.counters.clock.tolist()


def counters(machine):
    return [
        getattr(machine.counters, name).tolist()
        for name in (
            "messages_sent",
            "messages_received",
            "bytes_sent",
            "bytes_received",
            "iops",
            "mem_ops",
        )
    ]


CASES = [(2, 13, 0), (3, 29, 1), (4, 50, 2), (4, 64, 3), (8, 97, 4), (8, 200, 5)]


@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_remap_matches_naive(n_procs, size, seed):
    rng = np.random.default_rng(seed)
    topo = "full" if n_procs & (n_procs - 1) else "hypercube"
    m_flat = Machine(n_procs, topology=topo)
    m_ref = Machine(n_procs, topology=topo)
    old_dist = random_dist(rng, size, n_procs)
    new_dist = random_dist(rng, size, n_procs)
    vals = rng.normal(size=size)

    arr_flat = DistArray.from_global(m_flat, old_dist, vals, name="x")
    arr_ref = DistArray.from_global(m_ref, old_dist, vals, name="x")

    sched = build_remap_schedule(m_flat, old_dist, new_dist)
    moves = naive_build(m_ref, old_dist, new_dist)
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)

    sched.apply(arr_flat)
    naive_apply(m_ref, moves, new_dist, arr_ref)
    for p in range(n_procs):
        np.testing.assert_array_equal(arr_flat.local(p), arr_ref.local(p))
    np.testing.assert_array_equal(arr_flat.to_global(), vals)
    # simulated time and every per-processor counter are bit-identical
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)
    assert m_flat.elapsed() == m_ref.elapsed()

    # the naive move dict and the schedule's flat pair segments agree
    keys = list(zip(sched.pair_p.tolist(), sched.pair_q.tolist()))
    assert len(keys) == len(set(keys)) and set(keys) == set(moves)
    starts = np.concatenate(([0], np.cumsum(sched.pair_counts)))
    for i, key in enumerate(keys):
        seg = slice(starts[i], starts[i + 1])
        np.testing.assert_array_equal(sched.src_index[seg], moves[key][0])
        # the values the pair moved landed at the naive move's offsets
        p, q = key
        sent = vals[old_dist.global_index(p, sched.src_index[seg])]
        np.testing.assert_array_equal(arr_flat.local(q)[moves[key][1]], sent)


@pytest.mark.parametrize("n_procs,size,seed", [(4, 40, 7), (8, 120, 8)])
def test_shared_schedule_reapplication_matches(n_procs, size, seed):
    """Applying one schedule to several arrays matches the naive loop."""
    rng = np.random.default_rng(seed)
    topo = "full" if n_procs & (n_procs - 1) else "hypercube"
    m_flat = Machine(n_procs, topology=topo)
    m_ref = Machine(n_procs, topology=topo)
    old_dist = BlockDistribution(size, n_procs)
    new_dist = IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)
    vals_a = rng.normal(size=size)
    vals_b = rng.integers(0, 1000, size=size).astype(np.int64)

    a_flat = DistArray.from_global(m_flat, old_dist, vals_a, name="a")
    b_flat = DistArray.from_global(m_flat, old_dist, vals_b, name="b")
    a_ref = DistArray.from_global(m_ref, old_dist, vals_a, name="a")
    b_ref = DistArray.from_global(m_ref, old_dist, vals_b, name="b")

    # a third array with another itemsize: the schedule plans its move
    # charge per itemsize on first use and must still charge each
    # application like the loop
    vals_c = rng.integers(0, 1000, size=size).astype(np.int32)
    c_flat = DistArray.from_global(m_flat, old_dist, vals_c, name="c")
    c_ref = DistArray.from_global(m_ref, old_dist, vals_c, name="c")

    sched = build_remap_schedule(m_flat, old_dist, new_dist)
    moves = naive_build(m_ref, old_dist, new_dist)
    sched.apply(a_flat)
    sched.apply(b_flat)
    sched.apply(c_flat)
    naive_apply(m_ref, moves, new_dist, a_ref)
    naive_apply(m_ref, moves, new_dist, b_ref)
    naive_apply(m_ref, moves, new_dist, c_ref)

    np.testing.assert_array_equal(a_flat.to_global(), vals_a)
    np.testing.assert_array_equal(b_flat.to_global(), vals_b)
    np.testing.assert_array_equal(c_flat.to_global(), vals_c)
    assert b_flat.dtype == np.int64
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)
    assert set(sched._charges) == {"pack", ("move", 8), ("move", 4)}

