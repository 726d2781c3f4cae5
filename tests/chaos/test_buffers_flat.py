"""Flat ghost data equivalence: one backing array vs the seed per-proc lists.

A schedule moves ghost data through one flat array in its CSR layout
(processor ``p``'s buffer at ``ghost_offset[p]:ghost_offset[p+1]``) with
single fancy-indexes.  These tests keep the seed semantics as a naive
reference (``NaiveGhostBuffers``: one zero array per processor, and the
per-pair loop over per-processor buffer lists from
``tests/chaos/pairs.py``, fed from the test's own pair dicts) and check
over randomized schedules that

* the flat layout splits into exactly the seed's per-processor buffers,
* gather / scatter / scatter_op through the flat array match the
  per-proc-list reference in contents, clocks and counters (including
  the order-sensitive duplicate-slot cases), and
* the localize dedup kernel (`sorted_unique_inverse`) honors the
  ``np.unique(..., return_inverse=True)`` contract exactly, so ghost
  slot order is unchanged from the seed.
"""

import numpy as np
import pytest

from repro.chaos import build_translation_table, localize
from repro.chaos.kernels import sorted_unique_inverse
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine
from tests.chaos.pairs import (
    ghost_regions,
    naive_gather,
    naive_reverse,
    schedule_from_pairs,
    segment,
)


# ----------------------------------------------------------------------
# naive reference: the seed's per-processor ghost buffers
# ----------------------------------------------------------------------
class NaiveGhostBuffers:
    """Seed layout: one zero array per processor."""

    def __init__(self, schedule, dtype=np.float64):
        self.bufs = [np.zeros(s, dtype=dtype) for s in schedule.ghost_sizes]


def random_pairs(rng, machine, arr, max_ghost=10):
    """Random pair dicts + ghost sizes against ``arr`` (duplicate slots
    allowed; each slot has one random send offset)."""
    n = machine.n_procs
    min_local = min(arr.distribution.local_size(p) for p in range(n))
    ghost_sizes = [int(rng.integers(0, max_ghost + 1)) for _ in range(n)]
    slot_send = [rng.integers(0, max(min_local, 1), size=g) for g in ghost_sizes]
    send, recv = {}, {}
    for q in range(n):
        for p in range(n):
            if rng.random() < 0.5:
                continue
            count = 0 if ghost_sizes[p] == 0 else int(rng.integers(0, 2 * ghost_sizes[p]))
            recv[(q, p)] = rng.integers(0, max(ghost_sizes[p], 1), size=count)
            send[(q, p)] = slot_send[p][recv[(q, p)]]
    return send, recv, ghost_sizes


def random_schedule(rng, machine, arr, max_ghost=10):
    """Random schedule against ``arr`` (duplicate slots allowed)."""
    return schedule_from_pairs(
        machine, arr.distribution.signature(), *random_pairs(rng, machine, arr, max_ghost)
    )


def make_world(n_procs, size, seed):
    machine = Machine(
        n_procs, topology="full" if n_procs & (n_procs - 1) else "hypercube"
    )
    dist = BlockDistribution(size, n_procs)
    rng = np.random.default_rng(seed)
    arr = DistArray.from_global(machine, dist, rng.normal(size=size), name="x")
    return machine, arr


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
            "flops",
            "iops",
            "mem_ops",
        )
    ]


CASES = [(2, 16, 0), (3, 27, 1), (4, 48, 2), (8, 96, 3)]


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_flat_layout_matches_seed(n_procs, size, seed):
    m, arr = make_world(n_procs, size, seed)
    sched = random_schedule(np.random.default_rng(seed), m, arr)
    flat = np.zeros(sched.ghost_total())
    ref = NaiveGhostBuffers(sched)
    assert flat.size == sum(b.size for b in ref.bufs)
    regions = ghost_regions(sched, flat)
    assert len(regions) == n_procs
    for p in range(n_procs):
        np.testing.assert_array_equal(regions[p], ref.bufs[p])


# ----------------------------------------------------------------------
# gather / scatter / scatter_op: flat backing vs per-proc list reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_gather_flat_matches_list_path(n_procs, size, seed):
    rng = np.random.default_rng(seed + 50)
    m_flat, arr_flat = make_world(n_procs, size, seed)
    m_ref, arr_ref = make_world(n_procs, size, seed)
    send, recv, gsizes = random_pairs(rng, m_flat, arr_flat)
    sched_flat = schedule_from_pairs(
        m_flat, arr_flat.distribution.signature(), send, recv, gsizes
    )

    flat = np.zeros(sched_flat.ghost_total())
    ref_bufs = NaiveGhostBuffers(sched_flat).bufs

    sched_flat.gather(arr_flat, flat)
    naive_gather(m_ref, send, recv, arr_ref, ref_bufs)

    for p, region in enumerate(ghost_regions(sched_flat, flat)):
        np.testing.assert_array_equal(region, ref_bufs[p])
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


@pytest.mark.parametrize("n_procs,size,seed", CASES)
@pytest.mark.parametrize("opname", ["assign", "add", "max", "multiply"])
def test_reverse_flat_matches_list_path(n_procs, size, seed, opname):
    rng = np.random.default_rng(seed + 90)
    m_flat, arr_flat = make_world(n_procs, size, seed)
    m_ref, arr_ref = make_world(n_procs, size, seed)
    send, recv, gsizes = random_pairs(rng, m_flat, arr_flat)
    sched_flat = schedule_from_pairs(
        m_flat, arr_flat.distribution.signature(), send, recv, gsizes
    )

    contrib = np.random.default_rng(seed).normal(size=sched_flat.ghost_total())
    ref_bufs = [r.copy() for r in ghost_regions(sched_flat, contrib)]

    op = {"assign": None, "add": np.add, "max": np.maximum, "multiply": np.multiply}[
        opname
    ]
    if op is None:
        sched_flat.scatter(contrib, arr_flat)
    else:
        sched_flat.scatter_op(contrib, arr_flat, op)
    naive_reverse(m_ref, send, recv, ref_bufs, arr_ref, op)

    np.testing.assert_array_equal(arr_flat.to_global(), arr_ref.to_global())
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


def test_wrong_flat_size_raises():
    m, arr = make_world(2, 8, 3)
    rng = np.random.default_rng(3)
    sched = random_schedule(rng, m, arr)
    with pytest.raises(ValueError, match="flat ghost array"):
        sched.gather(arr, np.zeros(sum(sched.ghost_sizes) + 1))


# ----------------------------------------------------------------------
# localize dedup kernel vs np.unique
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_sorted_unique_inverse_matches_np_unique(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 5000))
    keys = rng.integers(0, max(1, n // 3), size=n).astype(np.int64)
    uniq, inv = sorted_unique_inverse(keys)
    want_uniq, want_inv = np.unique(keys, return_inverse=True)
    np.testing.assert_array_equal(uniq, want_uniq)
    np.testing.assert_array_equal(uniq[inv], keys)
    np.testing.assert_array_equal(inv, want_inv)


def test_sorted_unique_inverse_empty_and_single():
    uniq, inv = sorted_unique_inverse(np.empty(0, dtype=np.int64))
    assert uniq.size == 0 and inv.size == 0
    uniq, inv = sorted_unique_inverse(np.array([42, 42, 42]))
    assert uniq.tolist() == [42]
    assert inv.tolist() == [0, 0, 0]


@pytest.mark.parametrize("seed", range(4))
def test_localize_ghost_order_matches_np_unique(seed):
    """Ghost slot order must stay np.unique's per-processor sorted order."""
    rng = np.random.default_rng(seed)
    n_procs, size = 4, 40
    m = Machine(n_procs)
    owner_map = rng.integers(0, n_procs, size=size)
    dist = IrregularDistribution(owner_map, n_procs)
    tt = build_translation_table(m, dist)
    refs = [
        rng.integers(0, size, size=int(rng.integers(0, 60)))
        for _ in range(n_procs)
    ]
    res = localize(m, tt, [np.asarray(r, dtype=np.int64) for r in refs])
    owners = np.asarray(dist.owner(np.arange(size)))
    for p in range(n_procs):
        ghost_globals = segment(res.slots.keys, res.slots.slot_bounds, p)
        off = np.asarray(refs[p])[owners[np.asarray(refs[p], dtype=np.int64)] != p]
        np.testing.assert_array_equal(ghost_globals, np.unique(off))
        # localized indices reproduce the reference stream
        g = np.arange(size, dtype=np.float64) * 3
        combined = np.concatenate(
            [g[dist.local_indices(p)], g[ghost_globals]]
        )
        np.testing.assert_array_equal(
            combined[segment(res.refs_flat, res.ref_bounds, p)],
            g[np.asarray(refs[p], dtype=np.int64)],
        )
