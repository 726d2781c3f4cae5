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
    accounting), each schedule element's owner its slot's owner.
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
    order = schedule._unpack_pos
    if order.size != n_el or schedule._n_elements != n_el:
        _fail("schedule slot order disagrees with pair lengths")
    if n_el:
        starts = np.concatenate(([0], np.cumsum(plen)))
        k = first_segment_outside(order, starts, off[pp + 1], off[pp])
        if k is not None:
            _fail(
                f"schedule slot out of range [{int(off[pp[k]])}, "
                f"{int(off[pp[k] + 1])}) for requester {int(pp[k])}"
            )
        if schedule._lidx[order].min() < 0:
            _fail("schedule send offset is negative")
        # each ghost backing position is written at most once per gather
        occ = np.bincount(order, minlength=int(off[-1]))
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
def _verify_slot_space(pat, arr, level: str) -> None:
    """Slot state of one pattern group vs. its schedule and array: the
    live slots (the schedule's slot order) hold keys in range, and at
    ``full`` the keys are sorted within each pair, unique per requester,
    and owned where the distribution says."""
    loc = pat.localized
    sched, slots = loc.schedule, loc.slots
    gb = slots.slot_bounds
    if not np.array_equal(gb, sched._ghost_off):
        _fail(f"pattern {pat.array!r} slot bounds disagree with its schedule")
    S = int(gb[-1])
    if not slots.keys.size == slots.owners.size == slots.lidx.size == S:
        _fail(f"pattern {pat.array!r} slot state does not cover the slot space")
    slot = sched._unpack_pos
    if not slot.size:
        return
    ek = slots.keys[slot]
    if ek.min() < 0 or ek.max() >= arr.size:
        _fail(f"pattern {pat.array!r} ghost key out of range [0, {arr.size})")
    if level == "full":
        # within each pair, elements sorted by ghost key
        pair_rep = np.repeat(np.arange(sched._pair_q.size, dtype=np.int64), sched._pair_len)
        same = pair_rep[1:] == pair_rep[:-1]
        if (np.diff(ek)[same] <= 0).any():
            _fail(f"schedule of {pat.array!r} is not key-sorted within a pair")
        # live keys unique per requester
        p = np.repeat(sched._pair_p, sched._pair_len)
        comp = p * max(arr.size, 1) + ek
        if sorted_unique(comp).size != comp.size:
            _fail(f"schedule of {pat.array!r} fetches a ghost key twice for one requester")
        # owner / local offset recomputation against the distribution
        dist = arr.distribution
        q = np.repeat(sched._pair_q, sched._pair_len)
        if not np.array_equal(np.asarray(dist.owner(ek), dtype=np.int64), q):
            _fail(f"schedule of {pat.array!r}: entry owner disagrees with distribution")
        if not np.array_equal(np.asarray(dist.local_index(ek), dtype=np.int64), slots.lidx[slot]):
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
    ghost = np.diff(loc.slots.slot_bounds)
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


def verify_product(product, arrays, level: str = "cheap") -> None:
    """Check a whole ``InspectorProduct`` (and its adapt state, if any).

    Covers the iteration partition, distribution-signature freshness,
    every distinct schedule + ghost-buffer pair, every pattern's
    localized references, and -- when the product carries an
    ``adapt_state`` -- the saved slot bookkeeping via
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
        if _unseen(seen, layout, arr.distribution):
            verify_schedule(loc.schedule, level)
            _verify_slot_space(members[0], arr, level)
        for pat in members:
            m = pat.localized
            if _unseen(seen, m.refs_flat, m.ref_bounds, m.slots, m.local_sizes):
                _verify_refs(pat, iter_bounds, level)
    if product.adapt_state is not None:
        verify_adapt_state(product, arrays, level)


def verify_adapt_state(product, arrays, level: str = "cheap") -> None:
    """Cross-check a product's adapt state against the product itself.

    The cheap pass is the hole-accounting contract: every live slot
    (reference count > 0) appears exactly once in the schedule's slot
    order, holes never appear, and each element's pair owner is its
    slot's owner.  The full pass also recounts references from the
    localized reference lists, re-derives the live slots' owners and
    offsets from the live distribution, and compares the home map
    against the iteration partition.
    """
    if check_level(level) == "off":
        return
    # deferred: repro.adapt imports this module
    from repro.adapt.state import build_group_state

    state = product.adapt_state
    if state is None:
        _fail(f"product of loop {product.loop.name!r} carries no adapt state")
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
        dist = getattr(arrays.get(gstate.array), "distribution", None)
        if not _unseen(seen, dist, product.layout_key(gkey), loc.local_sizes, gstate.counts):
            continue  # a group over these very objects is checked
        slots, counts = loc.slots, gstate.counts
        S = slots.keys.size
        if counts.size != S:
            _fail(f"group {gkey}: counts cover {counts.size} of {S} slots")
        if S and counts.min() < 0:
            _fail(f"group {gkey}: negative ghost reference count")
        slot = loc.schedule._unpack_pos
        occ = np.bincount(slot, minlength=S) if slot.size else np.zeros(S, dtype=np.int64)
        live = counts > 0
        if not np.array_equal(occ.astype(bool), live):
            _fail(
                f"group {gkey}: hole accounting broken -- schedule occupancy "
                "disagrees with live slot counts"
            )
        q = np.repeat(loc.schedule._pair_q, loc.schedule._pair_len)
        if not np.array_equal(slots.owners[slot], q):
            _fail(f"group {gkey}: schedule entry owner disagrees with slot map")
        if level == "full":
            if live.any():
                lk = slots.keys[live]
                if not np.array_equal(np.asarray(dist.owner(lk), dtype=np.int64), slots.owners[live]):
                    _fail(f"group {gkey}: saved slot owners disagree with distribution")
                if not np.array_equal(
                    np.asarray(dist.local_index(lk), dtype=np.int64), slots.lidx[live]
                ):
                    _fail(f"group {gkey}: saved slot offsets disagree with distribution")
            if not np.array_equal(build_group_state(product, members).counts, counts):
                _fail(f"group {gkey}: reference counts drifted from the reference lists")


# ----------------------------------------------------------------------
# executor-side content check
# ----------------------------------------------------------------------
def gather_divergence(pat, arr, ghosts: np.ndarray) -> np.ndarray:
    """Ghost backing positions whose contents differ from the owners'.

    ``ghosts`` is the flat ghost array a gather over ``pat``'s schedule
    just filled.  Every slot the schedule fetches (its slot order) must
    hold the owner's current value of its key bit for bit.  Returns the
    flat ghost backing positions that do not, ascending (empty when the
    gather is consistent).  Holes are never gathered and are skipped.
    Read-only: does not touch versions or charge anything.
    """
    loc = pat.localized
    fetched = np.zeros(ghosts.size, dtype=bool)
    fetched[loc.schedule._unpack_pos] = True
    valid = np.flatnonzero(fetched)
    if not valid.size:
        return valid
    want = np.asarray(arr.global_view())[loc.slots.keys[valid]]
    return valid[ghosts[valid] != want]
