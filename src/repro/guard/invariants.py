"""Structural and content invariant checkers for runtime products.

Every product the reuse machinery saves -- communication schedules,
localized references, iteration partitions, adapt slot bookkeeping --
obeys a layout contract documented where the structure is defined
(``chaos/schedule.py``, ``core/inspector.py``, ``adapt/__init__.py``).
This module machine-checks those contracts at three levels:

``off``
    No checking (the default; zero overhead).
``cheap``
    Linear vectorized scans: CSR bounds monotone and agreeing across
    structures, ids and slots in range, unpack positions unique per
    gather, schedule occupancy consistent with live slot counts (hole
    accounting), schedule entries consistent with the saved slot map.
    Fast enough to run after every incremental patch.
``full``
    Everything in ``cheap`` plus order and content checks that need
    sorts or distribution dereferences: requester-major/owner-minor
    pair order, key-sorted elements within each pair, ghost-key
    uniqueness per requester, owner/local-offset recomputation against
    the live distribution, iteration-partition permutation, reference
    counts recomputed from the localized reference lists, and the home
    map against the partition.

All checkers are **host-level**: they never charge the simulated
machine, never bump an array's content version (read-only access only),
and raise :class:`~repro.guard.errors.InvariantViolation` with a
description of the first violated contract.  :func:`gather_divergence`
is the executor-side content check (gathered ghost values vs. the
owners' current values).
"""

from __future__ import annotations

import numpy as np

from repro.chaos.kernels import first_segment_outside, sorted_unique
from repro.core.inspector import group_members
from repro.guard.errors import InvariantViolation

#: recognised guard levels, weakest to strongest
LEVELS = ("off", "cheap", "full")


def check_level(level: str) -> str:
    """Validate a guard level string and return it."""
    if level not in LEVELS:
        raise ValueError(
            f"unknown guard level {level!r}; choose " + " | ".join(LEVELS)
        )
    return level


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


# ----------------------------------------------------------------------
# structure-level checkers
# ----------------------------------------------------------------------
def verify_schedule(schedule, level: str = "cheap") -> None:
    """Check a ``CommSchedule``'s structural contract.

    Pairs must be in requester-major / owner-minor order -- the order
    ``localize`` and the patch rung produce.  Send offsets are checked
    against the distribution by the schedule itself, on first
    application.
    """
    if check_level(level) == "off":
        return
    n = schedule.n_procs
    sizes = np.asarray(schedule.ghost_sizes, dtype=np.int64)
    if sizes.size != n or (sizes < 0).any():
        _fail(f"schedule ghost_sizes invalid: {sizes.size} entries for {n} procs")
    off = schedule._ghost_off
    if off[0] != 0 or not np.array_equal(np.diff(off), sizes):
        _fail("schedule ghost offsets disagree with ghost_sizes")
    pq, pp, plen = schedule._pair_q, schedule._pair_p, schedule._pair_len
    if pq.size:
        if pq.min() < 0 or pq.max() >= n or pp.min() < 0 or pp.max() >= n:
            _fail("schedule pair processor id out of range")
        if (plen <= 0).any():
            _fail("schedule stores an empty pair (contract: live pairs only)")
        if (np.diff(pp * n + pq) <= 0).any():
            _fail(
                "schedule pairs are not requester-major/owner-minor "
                "ordered (canonical pair order)"
            )
    n_el = int(plen.sum())
    send, recv = schedule._flat_send, schedule._flat_recv
    if send.size != n_el or recv.size != n_el or schedule._n_elements != n_el:
        _fail("schedule flat arrays disagree with pair lengths")
    if n_el:
        if send.min() < 0:
            _fail("schedule send offset is negative")
        starts = np.concatenate(([0], np.cumsum(plen)))
        k = first_segment_outside(recv, starts, sizes[pp])
        if k is not None:
            seg = recv[starts[k] : starts[k + 1]]
            bad = seg[(seg < 0) | (seg >= sizes[pp[k]])][0]
            _fail(
                f"schedule recv slot {int(bad)} out of range "
                f"[0, {int(sizes[pp[k]])}) for requester {int(pp[k])}"
            )
        # each ghost backing position is written at most once per gather
        occ = np.bincount(schedule._unpack_pos, minlength=int(off[-1]))
        if occ.size and occ.max() > 1:
            s = int(np.argmax(occ))
            _fail(f"ghost backing position {s} unpacked {int(occ[s])} times per gather")


def verify_partition(partition, n_iterations: int | None = None, level: str = "cheap") -> None:
    """Check an ``IterationPartition``'s CSR layout (and, at ``full``,
    that it is a permutation of the iteration space)."""
    if check_level(level) == "off":
        return
    flat, bounds = partition.iters_flat()
    if bounds[0] != 0 or (np.diff(bounds) < 0).any():
        _fail("iteration partition bounds are not a monotone CSR")
    if int(bounds[-1]) != flat.size:
        _fail("iteration partition bounds disagree with flat size")
    total = partition.n_iterations if n_iterations is None else n_iterations
    if flat.size != total:
        _fail(f"iteration partition covers {flat.size} of {total} iterations")
    if flat.size and (flat.min() < 0 or flat.max() >= total):
        _fail("iteration id out of range in partition")
    if level == "full" and flat.size:
        if (np.bincount(flat, minlength=total) != 1).any():
            _fail("iteration partition is not a permutation (lost/duplicated iteration)")


# ----------------------------------------------------------------------
# product-level checkers
# ----------------------------------------------------------------------
def _schedule_entry_slots(schedule, ghost_bounds) -> tuple:
    """Per-entry (q, p, send, global slot id) arrays of a schedule."""
    q, p, send, recv = schedule.entries()
    return q, p, send, ghost_bounds[p] + recv


def _verify_slot_space(pat, arr, level: str) -> None:
    """Ghost slot space of one pattern group vs. its schedule and array."""
    loc = pat.localized
    sched = loc.schedule
    gb = np.asarray(loc.ghost_bounds, dtype=np.int64)
    if not np.array_equal(gb, sched._ghost_off):
        _fail(f"pattern {pat.array!r} ghost bounds disagree with its schedule")
    keys = np.asarray(loc.ghost_flat, dtype=np.int64)
    if keys.size != int(gb[-1]):
        _fail(f"pattern {pat.array!r} ghost key array does not cover the slot space")
    if keys.size and (keys < -1).any():
        _fail(f"pattern {pat.array!r} has a ghost key below -1")
    live = keys >= 0
    if live.any() and keys[live].max() >= arr.size:
        _fail(f"pattern {pat.array!r} ghost key out of range [0, {arr.size})")
    q, p, send, slot = _schedule_entry_slots(sched, gb)
    if slot.size:
        ek = keys[slot]
        if (ek < 0).any():
            s = int(slot[np.flatnonzero(ek < 0)[0]])
            _fail(f"schedule of {pat.array!r} references retired ghost slot {s}")
        if level == "full":
            # within each pair, elements sorted by ghost key
            pair_rep = np.repeat(
                np.arange(sched._pair_q.size, dtype=np.int64), sched._pair_len
            )
            same = pair_rep[1:] == pair_rep[:-1]
            if (np.diff(ek)[same] <= 0).any():
                _fail(f"schedule of {pat.array!r} is not key-sorted within a pair")
            # live keys unique per requester
            comp = p * max(arr.size, 1) + ek
            if sorted_unique(comp).size != comp.size:
                _fail(f"schedule of {pat.array!r} fetches a ghost key twice for one requester")
            # owner / local offset recomputation against the distribution
            dist = arr.distribution
            if not np.array_equal(np.asarray(dist.owner(ek), dtype=np.int64), q):
                _fail(f"schedule of {pat.array!r}: entry owner disagrees with distribution")
            if not np.array_equal(np.asarray(dist.local_index(ek), dtype=np.int64), send):
                _fail(f"schedule of {pat.array!r}: send offset disagrees with distribution")


def _verify_refs(pat, iter_bounds: np.ndarray, level: str) -> None:
    """Localized reference list of one pattern vs. the combined space."""
    loc = pat.localized
    rb = np.asarray(loc.ref_bounds, dtype=np.int64)
    if not np.array_equal(rb, iter_bounds):
        _fail(f"pattern ({pat.array!r}, {pat.index!r}) reference bounds disagree with the iteration partition")
    refs = loc.refs_flat
    if refs.size != int(rb[-1]):
        _fail(f"pattern ({pat.array!r}, {pat.index!r}) reference list does not cover its bounds")
    local = np.asarray(loc.local_sizes, dtype=np.int64)
    ghost = np.diff(np.asarray(loc.ghost_bounds, dtype=np.int64))
    if first_segment_outside(refs, rb, local + ghost) is not None:
        _fail(
            f"pattern ({pat.array!r}, {pat.index!r}) localized reference "
            "out of the combined local+ghost space"
        )


def _unseen(seen: set, *inputs) -> bool:
    """Whether these very objects are new to this pass (and mark them):
    a checker is a pure function of the objects it reads, so one verdict
    per distinct inputs covers every group holding them -- groups with
    one layout (``InspectorProduct.layout_key``) are checked once.
    Layout keys and lists (``local_sizes``) count by value."""
    key = tuple(
        x if isinstance(x, tuple) else tuple(x) if isinstance(x, list) else id(x)
        for x in inputs
    )
    new = key not in seen
    seen.add(key)
    return new


def verify_product(product, arrays, level: str = "cheap", state=None) -> None:
    """Check a whole ``InspectorProduct`` (and optionally its adapt state).

    Covers the iteration partition, distribution-signature freshness,
    every distinct schedule + ghost-buffer pair, every pattern's
    localized references, and -- when ``state`` (a ``LoopAdaptState``)
    is given -- the saved slot bookkeeping via
    :func:`verify_adapt_state`.
    """
    if check_level(level) == "off":
        return
    verify_partition(product.iteration_partition, product.loop.n_iterations, level)
    for name, sig in product.dist_signatures.items():
        arr = arrays.get(name)
        if arr is None:
            _fail(f"product of loop {product.loop.name!r}: array {name!r} is unbound")
        if arr.distribution.signature() != sig:
            _fail(
                f"product of loop {product.loop.name!r}: array {name!r} was "
                "redistributed since inspection (stale distribution signature)"
            )
    _, iter_bounds = product.iteration_partition.iters_flat()
    seen: set = set()
    for group in product.groups:
        members = [product.patterns[key] for key in group_members(group)]
        loc, arr = members[0].localized, arrays[group[0]]
        layout = product.layout_key(group)
        if _unseen(seen, layout, loc.ghost_bounds, arr.distribution):
            verify_schedule(loc.schedule, level)
            _verify_slot_space(members[0], arr, level)
        for pat in members:
            m = pat.localized
            if _unseen(seen, m.refs_flat, m.ref_bounds, m.ghost_bounds, m.local_sizes):
                _verify_refs(pat, iter_bounds, level)
    if state is not None:
        verify_adapt_state(product, state, arrays, level)


def verify_adapt_state(product, state, arrays, level: str = "cheap") -> None:
    """Cross-check saved adapt bookkeeping against the product it describes.

    The cheap pass is the hole-accounting contract: every live slot
    (reference count > 0) appears exactly once as a schedule recv slot,
    holes never appear, and each schedule entry's (owner, send offset,
    key) triple matches the saved per-slot map.  The full pass also
    recomputes reference counts from the localized reference lists,
    re-derives owners/offsets from the live distribution, and compares
    the home map against the iteration partition.
    """
    if check_level(level) == "off":
        return
    n_iter = product.loop.n_iterations
    home = state.home
    if home.size != n_iter:
        _fail(f"adapt home map covers {home.size} of {n_iter} iterations")
    if level == "full" and not np.array_equal(home, product.iteration_partition.owner_of()):
        _fail("adapt home map disagrees with the iteration partition")
    seen: set = set()
    for gkey in product.groups:
        members = group_members(gkey)
        gstate = state.groups.get(gkey)
        if gstate is None:
            _fail(f"adapt state has no slot bookkeeping for group {gkey}")
        loc = product.patterns[members[0]].localized
        inputs = [product.layout_key(gkey), loc.ghost_bounds, loc.local_sizes]
        inputs += [gstate.slot_bounds, gstate.keys, gstate.owners, gstate.lidx, gstate.counts]
        if not _unseen(seen, getattr(arrays.get(gstate.array), "distribution", None), *inputs):
            continue  # a group over these very objects is checked
        gb = np.asarray(loc.ghost_bounds, dtype=np.int64)
        if not np.array_equal(gstate.slot_bounds, gb):
            _fail(f"group {gkey}: saved slot bounds disagree with the product")
        S = int(gb[-1])
        for aname, a in (
            ("keys", gstate.keys),
            ("owners", gstate.owners),
            ("lidx", gstate.lidx),
            ("counts", gstate.counts),
        ):
            if a.size != S:
                _fail(f"group {gkey}: {aname} covers {a.size} of {S} slots")
        if gstate.counts.size and gstate.counts.min() < 0:
            _fail(f"group {gkey}: negative ghost reference count")
        q, p, send, slot = _schedule_entry_slots(loc.schedule, gb)
        occ = np.bincount(slot, minlength=S) if slot.size else np.zeros(S, dtype=np.int64)
        live = gstate.counts > 0
        if not np.array_equal(occ.astype(bool), live):
            _fail(
                f"group {gkey}: hole accounting broken -- schedule occupancy "
                "disagrees with live slot counts"
            )
        if slot.size:
            if not np.array_equal(gstate.owners[slot], q):
                _fail(f"group {gkey}: schedule entry owner disagrees with slot map")
            if not np.array_equal(gstate.lidx[slot], send):
                _fail(f"group {gkey}: schedule send offset disagrees with slot map")
            keys = np.asarray(loc.ghost_flat, dtype=np.int64)
            if not np.array_equal(gstate.keys[slot], keys[slot]):
                _fail(f"group {gkey}: schedule ghost keys disagree with slot map")
        if level == "full":
            dist = arrays[gstate.array].distribution
            if live.any():
                lk = gstate.keys[live]
                if not np.array_equal(
                    np.asarray(dist.owner(lk), dtype=np.int64), gstate.owners[live]
                ):
                    _fail(f"group {gkey}: saved slot owners disagree with distribution")
                if not np.array_equal(
                    np.asarray(dist.local_index(lk), dtype=np.int64), gstate.lidx[live]
                ):
                    _fail(f"group {gkey}: saved slot offsets disagree with distribution")
            # recompute reference counts from the localized reference lists
            counts = np.zeros(S, dtype=np.int64)
            local_sizes = np.asarray(loc.local_sizes, dtype=np.int64)
            pid = product.iteration_partition.proc_of_position()
            for key in members:
                refs = product.patterns[key].localized.refs_flat
                ghost = refs >= local_sizes[pid]
                if ghost.any():
                    gslot = gb[pid[ghost]] + (refs[ghost] - local_sizes[pid[ghost]])
                    np.add.at(counts, gslot, 1)
            if not np.array_equal(counts, gstate.counts):
                _fail(f"group {gkey}: reference counts drifted from the reference lists")


# ----------------------------------------------------------------------
# executor-side content check
# ----------------------------------------------------------------------
def gather_divergence(pat, arr, ghosts: np.ndarray) -> np.ndarray:
    """Ghost backing positions whose contents differ from the owners'.

    ``ghosts`` is the flat ghost array a gather over ``pat``'s schedule
    just filled.  Ghost slot ``s`` of a live key ``k`` must hold the
    owner's current value of global element ``k`` bit for bit.  Returns
    the flat ghost backing positions that do not (empty when the gather
    is consistent).  Holes (key ``-1``) are never gathered and are
    skipped.  Read-only: does not touch versions or charge anything.
    """
    keys = np.asarray(pat.localized.ghost_flat, dtype=np.int64)
    if not keys.size:
        return np.empty(0, dtype=np.int64)
    valid = np.flatnonzero(keys >= 0)
    if not valid.size:
        return np.empty(0, dtype=np.int64)
    want = np.asarray(arr.global_view())[keys[valid]]
    return valid[ghosts[valid] != want]
