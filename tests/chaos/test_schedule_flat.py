"""Flattened-schedule equivalence: CSR apply path vs the naive pair loop.

``CommSchedule`` stores and applies flat CSR arrays only: its pairs, its
slot order and its slot state's ``lidx``.  These tests
keep a small naive reference implementation (a loop over per-pair send /
recv lists and per-processor ghost buffers, ``tests/chaos/pairs.py``),
feed it from the test's own pair dicts, and check, over randomized
schedules, that gather / scatter / scatter_op produce *identical* array
contents and *bit-identical* per-processor machine clocks and counters
-- including the order-sensitive cases: duplicate recv slots (last
writer wins) and floating-point reduction accumulation order.  A slot
holds one send offset (a layout has one per slot), so every pair
fetching a slot names that offset; pairs of different owners still
move different elements into it.
"""

import numpy as np
import pytest

from repro.chaos.merge import gather_merged, scatter_op_merged
from repro.chaos.schedule import CommSchedule, SlotState
from repro.distribution.distarray import DistArray
from repro.distribution.regular import BlockDistribution
from repro.guard.faults import FaultPlan
from repro.machine.machine import Machine
from tests.chaos import schedule_oracle as oracle
from tests.chaos.pairs import (
    flatten_pairs,
    ghost_regions,
    naive_gather,
    naive_reverse,
    schedule_from_pairs,
)


# ----------------------------------------------------------------------
# randomized schedule construction
# ----------------------------------------------------------------------
def random_schedule_parts(rng, n_procs, local_size, max_ghost=12):
    """Random send/recv pair dicts (duplicates allowed) + ghost sizes;
    each ghost slot has one random send offset."""
    ghost_sizes = [int(rng.integers(0, max_ghost + 1)) for _ in range(n_procs)]
    slot_send = [rng.integers(0, local_size, size=g) for g in ghost_sizes]
    send_lists = {}
    recv_slots = {}
    pairs = [
        (q, p)
        for q in range(n_procs)
        for p in range(n_procs)
        if rng.random() < 0.6
    ]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    for q, p in pairs:
        if ghost_sizes[p] == 0:
            count = 0
        else:
            count = int(rng.integers(0, 2 * ghost_sizes[p] + 1))
        # duplicate send offsets and recv slots are deliberately allowed:
        # they exercise last-writer-wins and accumulation-order semantics
        recv_slots[(q, p)] = rng.integers(0, max(ghost_sizes[p], 1), size=count)
        send_lists[(q, p)] = slot_send[p][recv_slots[(q, p)]]
    return send_lists, recv_slots, ghost_sizes


def make_world(n_procs, size, seed):
    machine = Machine(n_procs, topology="full" if n_procs & (n_procs - 1) else "hypercube")
    dist = BlockDistribution(size, n_procs)
    rng = np.random.default_rng(seed)
    arr = DistArray.from_global(machine, dist, rng.normal(size=size), name="x")
    min_local = min(dist.local_size(p) for p in range(n_procs))
    return machine, arr, min_local


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
            "mem_ops",
        )
    ]


CASES = [(2, 17, 0), (3, 23, 1), (4, 40, 2), (4, 64, 3), (8, 61, 4), (8, 128, 5)]


@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_gather_matches_naive(n_procs, size, seed):
    rng = np.random.default_rng(seed)
    m_flat, arr_flat, min_local = make_world(n_procs, size, seed)
    m_ref, arr_ref, _ = make_world(n_procs, size, seed)
    send, recv, gsizes = random_schedule_parts(rng, n_procs, min_local)

    sched = schedule_from_pairs(
        m_flat, arr_flat.distribution.signature(), send, recv, gsizes
    )
    g_flat = np.zeros(sum(gsizes))
    g_ref = [np.zeros(s) for s in gsizes]

    sched.gather(arr_flat, g_flat)
    naive_gather(m_ref, send, recv, arr_ref, g_ref)

    np.testing.assert_array_equal(g_flat, np.concatenate(g_ref))
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


@pytest.mark.parametrize("n_procs,size,seed", CASES)
@pytest.mark.parametrize("opname", ["assign", "add", "max"])
def test_reverse_matches_naive(n_procs, size, seed, opname):
    rng = np.random.default_rng(seed + 100)
    m_flat, arr_flat, min_local = make_world(n_procs, size, seed)
    m_ref, arr_ref, _ = make_world(n_procs, size, seed)
    send, recv, gsizes = random_schedule_parts(rng, n_procs, min_local)

    sched = schedule_from_pairs(
        m_flat, arr_flat.distribution.signature(), send, recv, gsizes
    )
    contrib = [rng.normal(size=s) for s in gsizes]
    g_flat = np.concatenate(contrib)
    g_ref = [c.copy() for c in contrib]

    op = {"assign": None, "add": np.add, "max": np.maximum}[opname]
    if op is None:
        sched.scatter(g_flat, arr_flat)
    else:
        sched.scatter_op(g_flat, arr_flat, op)
    naive_reverse(m_ref, send, recv, g_ref, arr_ref, op)

    for p in range(n_procs):
        np.testing.assert_array_equal(arr_flat.local(p), arr_ref.local(p))
    assert clocks(m_flat) == clocks(m_ref)
    assert counters(m_flat) == counters(m_ref)


def test_empty_and_self_pairs():
    """Self-messages and empty pairs survive flattening unchanged."""
    m_flat, arr_flat, _ = make_world(2, 10, 7)
    m_ref, arr_ref, _ = make_world(2, 10, 7)
    send = {
        (0, 0): np.array([1, 2]),  # self pair: local memory copy
        (1, 0): np.array([], dtype=np.int64),  # empty: skipped entirely
        (0, 1): np.array([3, 3]),  # duplicate sends of one element
    }
    recv = {
        (0, 0): np.array([0, 1]),
        (1, 0): np.array([], dtype=np.int64),
        (0, 1): np.array([1, 0]),
    }
    gsizes = [2, 2]
    sched = schedule_from_pairs(
        m_flat, arr_flat.distribution.signature(), send, recv, gsizes
    )
    g_flat = np.zeros(4)
    g_ref = [np.zeros(2), np.zeros(2)]
    sched.gather(arr_flat, g_flat)
    naive_gather(m_ref, send, recv, arr_ref, g_ref)
    np.testing.assert_array_equal(g_flat, np.concatenate(g_ref))
    assert clocks(m_flat) == clocks(m_ref)
    # the empty pair must not produce a message
    assert m_flat.counters.messages_sent[1] == 0


def small_schedule(seed=21):
    rng = np.random.default_rng(seed)
    machine, arr, min_local = make_world(4, 40, seed)
    send, recv, gsizes = random_schedule_parts(rng, 4, min_local)
    return schedule_from_pairs(machine, arr.distribution.signature(), send, recv, gsizes)


class TestSlotOrder:
    """A schedule stores its slot order and reads send offsets off the
    slot state's ``lidx``; :func:`oracle.entries` derives the rest."""

    def test_slot_order_is_the_unpack_positions(self):
        sched = small_schedule()
        q, p, send, recv = oracle.entries(sched)
        assert q.size  # a trivially empty schedule would prove nothing
        np.testing.assert_array_equal(sched._unpack_pos, sched._ghost_off[p] + recv)
        np.testing.assert_array_equal(send, sched._lidx[sched._unpack_pos])
        with pytest.raises(ValueError, match="read-only"):
            sched._unpack_pos[0] = 99
        assert not hasattr(sched, "_flat_send") and not hasattr(sched, "_flat_recv")

    def test_the_layouts_arrays_are_held_not_copied(self):
        # a schedule holds its slot state's lidx and bounds themselves,
        # and must not change the flags of arrays it was handed
        machine, arr, _ = make_world(4, 40, 21)
        slots = SlotState(
            np.array([0, 2, 3, 3, 5]),
            np.array([30, 35, 1, 12, 13]),
            np.array([3, 3, 0, 1, 1]),
            np.array([0, 5, 1, 2, 3]),
        )
        sched = slots.schedule(machine, arr.distribution.signature(), np.arange(5))
        assert sched._lidx is slots.lidx
        assert sched._ghost_off.base is slots.slot_bounds
        assert slots.slot_bounds.flags.writeable and not sched._ghost_off.flags.writeable
        assert sched.ghost_sizes == [2, 1, 0, 2]
        assert list(zip(*(a.tolist() for a in oracle.entries(sched)))) == [
            (3, 0, 0, 0), (3, 0, 5, 1), (0, 1, 1, 0), (1, 3, 2, 0), (1, 3, 3, 1),
        ]

    def test_read_only_bounds_are_kept_as_is(self):
        # a checkpoint restore hands in frozen arrays: schedules built
        # from one slot state keep sharing that very object
        machine, arr, _ = make_world(4, 40, 21)
        bounds = np.array([0, 1, 1, 1, 1])
        bounds.flags.writeable = False
        slots = SlotState(bounds, np.array([20]), np.array([2]), np.array([0]))
        sig = arr.distribution.signature()
        a, b = (slots.schedule(machine, sig, np.arange(1)) for _ in range(2))
        assert a._ghost_off is b._ghost_off is bounds


class TestResolvedOnce:
    def test_pack_positions_resolved_on_first_use_then_kept(self):
        machine, arr, min_local = make_world(4, 40, 21)
        send, recv, gsizes = random_schedule_parts(np.random.default_rng(21), 4, min_local)
        sched = schedule_from_pairs(machine, arr.distribution.signature(), send, recv, gsizes)
        assert sched._pack_pos is None
        sched.gather(arr, np.zeros(sched.ghost_total()))
        pos = sched._pack_pos
        assert pos is not None and not pos.flags.writeable
        assert sched._pack_positions(arr) is pos

    def test_exchange_plans_built_once_and_equal_to_naive(self):
        # the gather / reverse exchange and the combine flops are planned
        # on first use, then held: repeated applications == the naive
        # loop repeated, bit for bit
        rng = np.random.default_rng(33)
        m_flat, arr_flat, min_local = make_world(8, 61, 4)
        m_ref, arr_ref, _ = make_world(8, 61, 4)
        send, recv, gsizes = random_schedule_parts(rng, 8, min_local)
        sched = schedule_from_pairs(
            m_flat, arr_flat.distribution.signature(), send, recv, gsizes
        )
        assert sched._exchange_charges == {} and sched._combine_flops == {}
        g_flat = np.zeros(sum(gsizes))
        g_ref = [np.zeros(s) for s in gsizes]
        for _ in range(3):
            sched.gather(arr_flat, g_flat)
            naive_gather(m_ref, send, recv, arr_ref, g_ref)
            sched.scatter_op(g_flat, arr_flat, np.add)
            naive_reverse(m_ref, send, recv, g_ref, arr_ref, np.add)
        assert clocks(m_flat) == clocks(m_ref)
        assert counters(m_flat) == counters(m_ref)
        assert sorted(sched._exchange_charges) == [(False, 8), (True, 8)]
        assert list(sched._combine_flops) == [1.0]


# ----------------------------------------------------------------------
# the one constructor states its contract
# ----------------------------------------------------------------------
#: a slot space of two slots per processor, with their send offsets
BOUNDS, LIDX = [0, 2, 4, 6, 8], np.zeros(8, dtype=np.int64)


@pytest.mark.parametrize(
    "args, exc, match",
    [
        # a processor id outside [0, n_procs) names the offending pair
        (([0], [-1], [1], [0], LIDX, BOUNDS), ValueError, r"pair \(0, -1\) out of range"),
        (([4], [1], [1], [2], LIDX, BOUNDS), ValueError, r"pair \(4, 1\) out of range"),
        (([0], [1], [-1], [], LIDX, BOUNDS), ValueError, "negative pair length -1"),
        # pair lengths must add up to the slot order
        (([0], [1], [3], [2, 3], LIDX, BOUNDS), ValueError, "sum to 3"),
        # every slot lies in its requester's region
        (([0], [1], [2], [2, 4], LIDX, BOUNDS), ValueError, r"pair \(0, 1\): slot out of range \[2, 4\)"),
        (([0], [1], [1], [2], LIDX, [0, 2, 1, 6, 8]), ValueError, "not monotone"),
        (([0], [1], [1], [2], LIDX[:7], BOUNDS), ValueError, "send offsets for 8 slots"),
    ],
)
def test_constructor_rejects_malformed_input_by_name(args, exc, match):
    machine, arr, _ = make_world(4, 40, 0)
    with pytest.raises(exc, match=match):
        CommSchedule(machine, arr.distribution.signature(), *args)


@pytest.mark.parametrize("offset", [2, -1], ids=["local_size", "negative"])
@pytest.mark.parametrize("apply", ["gather", "scatter", "scatter_op"])
def test_out_of_range_send_offset_is_rejected_on_first_use(apply, offset):
    """Owner 0 of ``BlockDistribution(8, 4)`` holds 2 elements: offset 2
    would resolve to global 2 (processor 1's) and -1 to global 7.  The
    first application refuses, naming the pair, before it moves or
    charges anything."""
    machine = Machine(4)
    dist = BlockDistribution(8, 4)
    arr = DistArray.from_global(machine, dist, np.arange(8.0), name="x")
    sched = CommSchedule(machine, dist.signature(), [0], [3], [1], [0], np.array([offset]), [0, 0, 0, 0, 1])
    ghosts = np.full(1, -5.0)
    clock = clocks(machine)
    with pytest.raises(ValueError, match=rf"pair \(0, 3\): send offset {offset} out of range \[0, 2\)"):
        if apply == "gather":
            sched.gather(arr, ghosts)
        elif apply == "scatter":
            sched.scatter(ghosts, arr)
        else:
            sched.scatter_op(ghosts, arr, np.add)
    np.testing.assert_array_equal(arr.to_global(), np.arange(8.0))
    np.testing.assert_array_equal(ghosts, [-5.0])
    assert clocks(machine) == clock
    assert sched._pack_pos is None



@pytest.mark.parametrize("seed", range(6))
def test_out_of_range_send_offset_names_the_pair_the_wire_oracle_names(seed):
    """Several bad offsets in several pairs, pairs in any order: the
    flat range check names the same pair and offset as a check over the
    owner-grouped wire (the lowest owner's first bad element)."""
    rng = np.random.default_rng(seed)
    machine, arr, min_local = make_world(4, 40, seed)
    send, recv, gsizes = random_schedule_parts(rng, 4, min_local)
    for key in [k for k in send if len(send[k])][::2]:
        # a bad offset for one slot: every pair fetching it names it
        slot, bad = recv[key][rng.integers(len(send[key]))], rng.choice([-1, 10**6])
        for q, p in send:
            if p == key[1]:
                send[q, p] = np.where(recv[q, p] == slot, bad, send[q, p])
    parts = flatten_pairs(send, recv)
    sig = arr.distribution.signature()
    messages = []
    for make in (oracle.schedule_from_flat, oracle.wire_schedule):
        with pytest.raises(ValueError, match="send offset") as err:
            make(machine, sig, *parts, gsizes).gather(arr, np.zeros(sum(gsizes)))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_send_offsets_in_range_on_every_owner_pass():
    """The range check sees every owner's segment: the last valid offset
    of each owner moves exactly that element."""
    machine = Machine(4)
    dist = BlockDistribution(10, 4)  # local sizes 3, 3, 3, 1
    arr = DistArray.from_global(machine, dist, np.arange(10.0), name="x")
    sizes = dist.local_sizes()
    sched = CommSchedule(
        machine, dist.signature(), [1, 2, 3, 0], [0, 0, 0, 1],
        [1, 1, 1, 1], [0, 1, 2, 3], sizes[[1, 2, 3, 0]] - 1, [0, 3, 4, 4, 4],
    )
    ghosts = np.zeros(4)
    sched.gather(arr, ghosts)
    np.testing.assert_array_equal(ghosts, [5.0, 8.0, 9.0, 2.0])


def test_per_processor_ghost_lists_are_rejected():
    sched = small_schedule()
    arr = DistArray(sched.machine, BlockDistribution(40, 4), name="x")
    lists = [np.zeros(s) for s in sched.ghost_sizes]
    with pytest.raises(TypeError, match="flat 1-D array"):
        sched.gather(arr, lists)
    with pytest.raises(TypeError, match="flat 1-D array"):
        sched.scatter_op(lists, arr, np.add)


# ----------------------------------------------------------------------
# the constructor vs the merge patcher's independent derivation
# ----------------------------------------------------------------------
def canonical_variants(n_procs, size, seed, monkeypatch):
    """One random schedule, canonicalized four ways, each on its own world.

    The oracle's ``from_entries`` and the constructor fed canonical pair
    arrays (both through ``schedule_from_flat``) read the slot order off
    the flat input; the oracle's ``patched(keep=all)`` of a canonical
    schedule merges it
    and derives every apply array itself (``schedule_oracle.build``);
    ``patched`` of the non-canonical original falls back to
    ``from_entries``.
    """
    out = {}
    no_add = np.empty(0, dtype=np.int64)
    for name in ("from_entries", "constructor", "merge", "fallback"):
        machine, arr, min_local = make_world(n_procs, size, seed)
        send, recv, gsizes = random_schedule_parts(
            np.random.default_rng(seed + 300), n_procs, min_local
        )
        sig = arr.distribution.signature()
        raw = schedule_from_pairs(machine, sig, send, recv, gsizes)
        keep = np.ones(raw._n_elements, dtype=bool)
        if name == "fallback":
            sched = oracle.patched(raw, keep, no_add, no_add, no_add, no_add, gsizes)
        else:
            sched = oracle.from_entries(machine, sig, *oracle.entries(raw), gsizes)
        if name == "constructor":
            sched = oracle.schedule_from_flat(
                machine,
                sig,
                sched._pair_q,
                sched._pair_p,
                sched._pair_len,
                *oracle.entries(sched)[2:],
                gsizes,
            )
        elif name == "merge":
            with monkeypatch.context() as mp:
                # the merge entry must not fall back to the lexsort path
                mp.setattr(oracle, "from_entries", None)
                sched = oracle.patched(sched, keep, no_add, no_add, no_add, no_add, gsizes)
        out[name] = (machine, arr, sched)
    return out


@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_constructor_agrees_with_merge_oracle(n_procs, size, seed, monkeypatch):
    variants = canonical_variants(n_procs, size, seed, monkeypatch)
    _, _, ref = variants["from_entries"]
    assert ref._n_elements  # an empty schedule would prove nothing
    contrib = np.random.default_rng(seed).normal(size=sum(ref.ghost_sizes))
    results = {}
    for name, (machine, arr, sched) in variants.items():
        oracle.assert_schedules_equal(sched, ref, context=name)
        gathered = np.zeros(sched.ghost_total())
        sched.gather(arr, gathered)
        sched.scatter_op(contrib, arr, np.add)
        sched.scatter(contrib, arr)
        results[name] = (gathered, arr.to_global(), clocks(machine), counters(machine))
    want = results["from_entries"]
    for name, got in results.items():
        np.testing.assert_array_equal(got[0], want[0], err_msg=name)
        np.testing.assert_array_equal(got[1], want[1], err_msg=name)
        assert got[2:] == want[2:], name


def test_noncanonical_schedule_differs_from_its_canonical_form():
    """The differential test above would be vacuous if the random
    schedules were already canonical."""
    machine, arr, min_local = make_world(4, 40, 2)
    send, recv, gsizes = random_schedule_parts(np.random.default_rng(302), 4, min_local)
    sig = arr.distribution.signature()
    raw = schedule_from_pairs(machine, sig, send, recv, gsizes)
    canon = oracle.from_entries(machine, sig, *oracle.entries(raw), gsizes)
    assert not np.array_equal(raw._pair_p, canon._pair_p)


def test_duplicate_slot_last_writer_is_the_last_pair():
    """Two owners send to the *same* ghost slot of requester 1 (the
    slot's one offset, 9: different elements), with other requesters'
    pairs interleaved and the later pair's owner *first* in wire order:
    the naive per-pair loop's last writer must win."""
    m_flat, arr_flat, _ = make_world(4, 40, 5)
    m_ref, arr_ref, _ = make_world(4, 40, 5)
    send = {
        (2, 1): np.array([9]),
        (1, 0): np.array([3, 4]),
        (3, 2): np.array([1]),
        (0, 1): np.array([9]),  # same slot as (2, 1): this one must stick
        (2, 3): np.array([0]),
    }
    recv = {
        (2, 1): np.array([0]),
        (1, 0): np.array([1, 0]),
        (3, 2): np.array([0]),
        (0, 1): np.array([0]),
        (2, 3): np.array([1]),
    }
    gsizes = [2, 1, 1, 2]
    sched = schedule_from_pairs(
        m_flat, arr_flat.distribution.signature(), send, recv, gsizes
    )
    g_flat = np.zeros(sched.ghost_total())
    g_ref = [np.zeros(s) for s in gsizes]
    sched.gather(arr_flat, g_flat)
    naive_gather(m_ref, send, recv, arr_ref, g_ref)
    np.testing.assert_array_equal(g_flat, np.concatenate(g_ref))
    assert ghost_regions(sched, g_flat)[1][0] == arr_flat.local(0)[9] != arr_flat.local(2)[9]
    assert clocks(m_flat) == clocks(m_ref)


def test_flatten_pairs_keeps_insertion_order():
    q, p, n, s, r = flatten_pairs(
        {(2, 1): [5, 6], (0, 3): [], (1, 0): [4]}, {(2, 1): [0, 1], (0, 3): [], (1, 0): [2]}
    )
    assert (q.tolist(), p.tolist(), n.tolist()) == ([2, 0, 1], [1, 3, 0], [2, 0, 1])
    assert (s.tolist(), r.tolist()) == ([5, 6, 4], [0, 1, 2])


# ----------------------------------------------------------------------
# flat-order moves vs the wire-order oracle
# ----------------------------------------------------------------------
#: every wire fault a gather can suffer, and none
WIRE_FAULTS = {
    "none": lambda plan: plan,
    "corrupt": lambda plan: plan.corrupt_gather(nth=0),
    "drop": lambda plan: plan.drop_gather(nth=0, count=3),
    "duplicate": lambda plan: plan.duplicate_gather(nth=0),
}


def wire_oracle_run(make, n_procs, size, seed, fault, merged):
    """Two random schedules over one array (pairs in random order,
    duplicate recv slots), built by ``make``, driven through a gather,
    a ``scatter_op`` and a ``scatter`` each -- merged or one by one --
    under a fault plan; returns everything the moves left behind."""
    machine, arr, min_local = make_world(n_procs, size, seed)
    rng = np.random.default_rng(seed + 500)
    sig = arr.distribution.signature()
    scheds = []
    for _ in range(2):
        send, recv, gsizes = random_schedule_parts(rng, n_procs, min_local)
        scheds.append(make(machine, sig, *flatten_pairs(send, recv), gsizes))
    contribs = [rng.normal(size=s.ghost_total()) for s in scheds]
    plan = WIRE_FAULTS[fault](FaultPlan(seed=seed)).install(machine)
    # stale values in the ghost arrays, so a dropped slot's 0 shows
    gathered = [np.full(s.ghost_total(), -3.0) for s in scheds]
    if merged:
        gather_merged([(s, arr, g) for s, g in zip(scheds, gathered)])
        scatter_op_merged([(s, c, arr, np.maximum) for s, c in zip(scheds, contribs)])
    else:
        for s, g in zip(scheds, gathered):
            s.gather(arr, g)
        for s, c in zip(scheds, contribs):
            s.scatter_op(c, arr, np.add)
    for s, c in zip(scheds, contribs):
        s.scatter(c, arr)
    return gathered, arr.to_global(), clocks(machine), counters(machine), plan.fired


@pytest.mark.parametrize("merged", [False, True], ids=["single", "merged"])
@pytest.mark.parametrize("fault", list(WIRE_FAULTS))
@pytest.mark.parametrize("n_procs,size,seed", CASES)
def test_flat_moves_are_bit_identical_to_the_wire_oracle(n_procs, size, seed, fault, merged):
    got = wire_oracle_run(oracle.schedule_from_flat, n_procs, size, seed, fault, merged)
    want = wire_oracle_run(oracle.wire_schedule, n_procs, size, seed, fault, merged)
    for a, b in zip(got[0], want[0]):
        assert a.tobytes() == b.tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2:] == want[2:]
    # each fault fired, on the same wire element(s) of both
    assert len(got[4]) == (fault != "none")
