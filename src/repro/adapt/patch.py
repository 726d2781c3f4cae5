"""Patch a saved InspectorProduct instead of re-running the inspector.

Given the positions whose indirection values actually changed (from
``adapt.diff``), :func:`patch_product` produces an
:class:`~repro.core.inspector.InspectorProduct` equivalent to a fresh
inspection of the current arrays while charging the simulated machine
only for delta-proportional work.  It re-votes the changed iterations
(``_revote``: one compute charge, one exchange of the *moved* iteration
records) and starts the *order task* (:func:`_order`) on the strip pool
(:func:`repro.chaos.strips.start`; inline, at once, on one usable CPU):
the new iteration partition, its inverse, and every saved localized
reference list gathered into the new order by processor strips -- the
passes over every iteration, none of which a slot-space stage reads.
Meanwhile it runs each pattern group through
:func:`_patch_group`, a driver over stage functions that do host work
only and return their arrays plus the charges they planned.  The driver
applies those at these sites, in this order:

1. **delta** -- retired and added references (:class:`Delta`), the adds
   classified local/ghost: one membership-probe compute charge;
2. **slots** -- reference counts absorb the delta: no charge (a negative
   count aborts here, after the classify charge);
3. **translate** -- never-seen keys only: a memo-probe compute charge,
   then the table's ``dereference_flat`` round;
4. **allocate** -- new keys reuse holes, then append: no charge;
5. **index** -- the persisted sorted slot index is merged: no charge;
6. **schedule** -- read off the patched slot state's live slots by
   :meth:`~repro.adapt.state.GroupState.schedule` (the one builder,
   :meth:`~repro.chaos.schedule.SlotState.schedule`), then the newly assigned slots'
   buffer-assign compute (a processor whose ghost region shrank aborts
   the patch: regrowth is append-only), then the schedule compute, the
   delta exchange and the receivers' compute;
7. **refs** -- localized reference lists in the new order: no charge.
   The first group here joins the order task and writes its delta
   positions into the task's gathered lists.

A group holding the layout of one already patched (the same input
objects, :meth:`~repro.core.inspector.InspectorProduct.layout_key`)
runs the same driver on that sibling's stage values and takes its new
schedule and arrays themselves.  The patched product's iteration
partition, ghost key sets, schedule pairs, send offsets and element
order equal a from-scratch inspection's; executor results and executor
charges are bit-identical.  Only the *inspector-phase* charges differ --
that is the entire point.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.chaos import strips
from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import majority_owner, pair_counts, sorted_unique_inverse
from repro.chaos.localize import LocalizeResult
from repro.chaos.schedule import CommSchedule, SlotState
from repro.chaos.transcache import KeyTranslationMemo
from repro.chaos.ttable import TableCache, Translator
from repro.core.inspector import InspectorProduct, PatternData, group_members
from repro.core.iteration import (
    ITERATION_RECORD_BYTES,
    IterationPartition,
    method_refs,
    owner_rows,
    partition_from_home,
)
from repro.adapt.state import GroupState, LoopAdaptState
from repro.distribution.distarray import DistArray
from repro.guard.errors import PatchAborted
from repro.machine.machine import ComputeCharge, ExchangeCharge, Machine

_EMPTY = np.empty(0, dtype=np.int64)


class _DeltaCache:
    """Per-patch cache of per-indirection delta views.

    Every group member referencing indirection ``ind`` has the same
    delta iteration set ``D = moved ∪ changed[ind]`` and the same
    derived gathers (old flat positions, homes, new targets) -- and
    one loop's groups overwhelmingly share indirections (``x(edge(i))``
    and ``y(edge(i))`` both reference through ``edge``), so these are
    computed once per patch instead of once per member.  ``moved`` and
    every ``changed[...]`` are sorted subsets of ``changed_iters``, so
    the union is a flag-merge over ``changed_iters`` (no re-sort).
    Positions in the *new* flat order wait for the order task (see
    :func:`_rebuild_refs`).
    """

    def __init__(
        self,
        arrays: dict[str, DistArray],
        changed: dict[str, np.ndarray],
        changed_iters: np.ndarray,
        moved: np.ndarray,
        home_old: np.ndarray,
        home_new: np.ndarray,
        inv_old: np.ndarray,
    ) -> None:
        self._arrays = arrays
        self._changed = changed
        self._changed_iters = changed_iters
        self._moved = moved
        self._moved_pos = np.searchsorted(changed_iters, moved)
        self._home_old = home_old
        self._home_new = home_new
        self._inv_old = inv_old
        self._by_ind: dict[str | None, tuple] = {}

    def delta(self, ind: str | None):
        """``(D, old_pos, p_old, p_new, t_new)`` for one indirection: the
        delta iterations, their positions in the old flat iteration
        order, their old and new homes, and the global element each one
        now targets."""
        hit = self._by_ind.get(ind)
        if hit is not None:
            return hit
        ch = _EMPTY if ind is None else self._changed.get(ind, _EMPTY)
        if not ch.size:
            D = self._moved
        elif not self._moved.size and ind is not None:
            D = ch
        else:
            flag = np.zeros(self._changed_iters.size, dtype=bool)
            flag[self._moved_pos] = True
            flag[np.searchsorted(self._changed_iters, ch)] = True
            D = self._changed_iters[flag]
        if ind is None:
            t_new = D
        elif D.size:
            t_new = np.asarray(self._arrays[ind].global_get(D), dtype=np.int64)
        else:
            t_new = _EMPTY
        out = (
            D,
            self._inv_old[D] if D.size else _EMPTY,
            self._home_old[D] if D.size else _EMPTY,
            self._home_new[D] if D.size else _EMPTY,
            t_new,
        )
        self._by_ind[ind] = out
        return out


def _order(obs, old_part, home: np.ndarray, moved: bool, lists: list):
    """The order task: the partition grouping iterations by ``home``
    (``old_part`` itself when no iteration moved), its inverse built, and
    each ``(saved, out)`` of ``lists``: a saved localized reference list
    gathered into the new order in ``out``, a processor strip at a time."""
    with obs.span("adapt.patch.order", iterations=int(home.size)) as span:
        part = old_part
        if moved:
            part = partition_from_home(home, old_part.bounds.size - 1, old_part.method)
        part.inverse()
        flat, bounds = part.iters_flat()
        inv_old = old_part.inverse()
        cuts = strips.strip_cuts(bounds, strips.STRIP_ITERS)

        def run_strip(k: int) -> None:
            t0 = time.perf_counter_ns()
            b0, b1 = int(bounds[cuts[k]]), int(bounds[cuts[k + 1]])
            try:
                old_pos = inv_old[flat[b0:b1]]
                for saved, out in lists:
                    np.take(saved, old_pos, out=out[b0:b1], mode="clip")
            finally:
                if obs.enabled:
                    obs.record(
                        "adapt.patch.strip",
                        t0,
                        time.perf_counter_ns() - t0,
                        parent=span.id,
                        first_proc=cuts[k],
                        n_procs=cuts[k + 1] - cuts[k],
                        n_iters=b1 - b0,
                    )

        strips.run_strips(run_strip, len(cuts) - 1)
    return part


def _revote(
    machine: Machine,
    loop,
    arrays: dict[str, DistArray],
    home_old: np.ndarray,
    changed_iters: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute homes for changed iterations; returns (home_new, moved).

    Uses the same reference selection as ``partition_iterations`` for
    ``method`` so the patched home map equals a fresh partitioning's.
    """
    if not changed_iters.size:
        return home_old, _EMPTY
    refs = method_refs(loop, method)
    vote = majority_owner(owner_rows(loop, arrays, refs, at=changed_iters))
    home_new = home_old.copy()
    home_new[changed_iters] = vote
    moved = changed_iters[vote != home_old[changed_iters]]
    # the old holder of each changed iteration re-examines it: one
    # translation probe + vote update per reference (the per-iteration
    # cost partition_iterations charges, restricted to the delta)
    machine.charge_compute_all(
        iops=np.bincount(home_old[changed_iters], minlength=machine.n_procs)
        * len(refs)
        * (DEFAULT_COSTS.hash_lookup + 2.0)
    )
    if moved.size:
        pairmat = pair_counts(home_old[moved], home_new[moved], machine.n_procs)
        np.fill_diagonal(pairmat, 0)
        src, dst = np.nonzero(pairmat)
        machine.exchange(
            src=src, dst=dst, nbytes=pairmat[src, dst] * ITERATION_RECORD_BYTES
        )
    return home_new, moved


# -- stage values: per-patch transients, never checkpointed -------------
@dataclass(frozen=True)
class _PatchContext:
    """What every group of one patch shares."""

    machine: Machine
    product: InspectorProduct
    deltas: _DeltaCache
    #: per patch by contract: a group is charged a local probe only for
    #: keys an earlier group of the *same* patch resolved, so hits must
    #: never persist across patches (that would change simulated numbers)
    memo: KeyTranslationMemo
    #: the join of the order task: the new iteration partition, its
    #: inverse built (the old partition itself when no iteration moved)
    order: Callable[[], IterationPartition]
    #: ``id`` of each saved localized reference list -> the order task's
    #: copy of it in the new order, and the ones a group has written to
    reordered: dict[int, np.ndarray]
    taken: set[int]


@dataclass(frozen=True)
class Delta:
    """One group's reference delta, member-major in iteration order.

    Retired references are the *ghost* references its delta iterations
    held (a local one occupies no slot); added references are everything
    those iterations hold now, local or not."""

    rem_procs: np.ndarray  # requester of each retired ghost reference
    rem_slots: np.ndarray  # ... and the global slot id it occupied
    add_procs: np.ndarray  # requester (new home) of each added reference
    add_targets: np.ndarray  # ... and the global element it targets
    #: per member: its delta iterations
    members: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class _Slots:
    """The old slot space after the delta's retires and revivals."""

    counts: np.ndarray  # per old slot, before never-seen keys land
    slot_proc: np.ndarray  # processor of each old slot
    went_dead: np.ndarray  # old slots whose count hit zero
    revived: np.ndarray  # holes an added reference hit again
    gidx: np.ndarray  # add-stream positions of the ghost adds
    found: np.ndarray  # mask over ghost adds: key has a slot (live or hole)
    found_slots: np.ndarray  # ... and which old slot
    uniq_comp: np.ndarray  # never-seen ``proc * stride + key``, ascending
    uniq_proc: np.ndarray
    uniq_key: np.ndarray
    inv_missing: np.ndarray  # not-found ghost add -> position in uniq_comp
    need: np.ndarray  # never-seen keys per processor


@dataclass(frozen=True)
class _Alloc:
    """The grown slot space with every never-seen key placed."""

    layout: SlotState
    counts: np.ndarray
    newpos: np.ndarray  # new slot id of each old slot
    alloc: np.ndarray  # new slot id of each never-seen key
    reused: np.ndarray  # old slot ids of the holes they took
    slot_of_add: np.ndarray  # new slot id of each ghost add


@dataclass(frozen=True)
class _GroupPatch:
    """One group's patch: every stage's value and its result.  A sibling
    group holding the same layout takes the stage values instead of
    recomputing them."""

    delta: Delta
    adds: tuple[np.ndarray, np.ndarray, ComputeCharge]  # see _classify
    slots: _Slots
    alloc: _Alloc
    schedule: CommSchedule
    charges: tuple  # see _schedule_charges
    refs: tuple[np.ndarray, ...]  # member lists
    patterns: dict  # the group's new PatternData by key
    state: GroupState  # the patched product's, once every group has succeeded


# -- stages: host work only; charges are planned and returned -----------
def _group_delta(
    ctx: _PatchContext,
    slot_bounds: np.ndarray,
    member_keys: list,
    local_sizes: np.ndarray,
) -> Delta | None:
    """Retire each delta iteration's old reference (local/ghost read off
    the *saved* localized value, no translation) and collect its new
    one; ``None`` when no member has a delta iteration (saved data
    reusable as-is, iteration order unchanged)."""
    members, rem_procs, rem_slots, add_procs, add_targets = [], [], [], [], []
    for akey in member_keys:
        D, old_pos, p_old, p_new, t_new = ctx.deltas.delta(akey[1])
        members.append(D)
        if not D.size:
            continue
        lv = ctx.product.patterns[akey].localized.refs_flat[old_pos]
        is_ghost = lv >= local_sizes[p_old]
        gp = p_old[is_ghost]
        rem_procs.append(gp)
        rem_slots.append(slot_bounds[gp] + (lv[is_ghost] - local_sizes[gp]))
        add_procs.append(p_new)
        add_targets.append(t_new)
    if not add_procs:
        return None
    return Delta(
        rem_procs=np.concatenate(rem_procs),
        rem_slots=np.concatenate(rem_slots),
        add_procs=np.concatenate(add_procs),
        add_targets=np.concatenate(add_targets),
        members=tuple(members),
    )


def _classify(
    machine: Machine, dist, delta: Delta
) -> tuple[np.ndarray, np.ndarray, ComputeCharge]:
    """``(local offset, is-ghost mask, charge)`` of the added references.

    Each requester probes its own membership table (a processor always
    knows which globals it owns): local targets resolve to their local
    offset on the spot, everything else is a ghost candidate.  Planned as
    one replicated-table-style probe per added reference."""
    owners = np.asarray(dist.owner(delta.add_targets), dtype=np.int64)
    lidx = np.asarray(dist.local_index(delta.add_targets), dtype=np.int64)
    probes = np.bincount(delta.add_procs, minlength=machine.n_procs)
    return lidx, owners != delta.add_procs, machine.plan_compute_all(
        iops=DEFAULT_COSTS.translate_replicated * probes.astype(np.float64)
    )


def _slot_counts(
    gstate: GroupState, layout: SlotState, delta: Delta, ghost: np.ndarray, stride: int
) -> _Slots:
    """Absorb the delta into the per-slot reference counts.

    Ghost adds hitting a tracked slot (live or hole) reuse the saved
    (owner, local offset): the runtime recorded them at the last
    inspection and conditions 1-2 guarantee they are still valid.  Only
    never-before-seen keys are left for the translation table."""
    # work on a copy: the input product's state is never mutated
    counts = gstate.counts.copy()
    # bincount beats ufunc.at by an order of magnitude at this size
    counts -= np.bincount(delta.rem_slots, minlength=counts.size)
    gidx = np.flatnonzero(ghost)
    # the persisted sorted slot index (merged on every patch) is probed
    # once per distinct composite, in its own order
    comp, inv = sorted_unique_inverse(delta.add_procs[gidx] * stride + delta.add_targets[gidx])
    msorted, morder = gstate.slot_index(layout, stride)
    if msorted.size:
        pos = np.searchsorted(msorted, comp)
        hit = (pos < msorted.size) & (
            msorted[np.minimum(pos, msorted.size - 1)] == comp
        )
        found = hit[inv]
        found_slots = morder[pos[inv[found]]]
        counts += np.bincount(found_slots, minlength=counts.size)
    else:
        # a group can start with zero tracked ghosts (fully local at
        # inspection); every ghost add is then a never-seen key
        hit = np.zeros(comp.size, dtype=bool)
        found = np.zeros(inv.size, dtype=bool)
        found_slots = _EMPTY
    if counts.size and counts.min() < 0:
        raise PatchAborted(
            f"adapt: negative reference count patching group "
            f"{gstate.array}/{gstate.indexes} -- state out of sync"
        )
    uniq_comp = comp[~hit]
    inv_missing = (np.cumsum(~hit) - 1)[inv[~found]]
    uniq_proc = uniq_comp // stride
    return _Slots(
        counts=counts,
        slot_proc=layout.slot_proc(),
        went_dead=np.flatnonzero((gstate.counts > 0) & (counts == 0)),
        revived=np.flatnonzero((gstate.counts == 0) & (counts > 0)),
        gidx=gidx,
        found=found,
        found_slots=found_slots,
        uniq_comp=uniq_comp,
        uniq_proc=uniq_proc,
        uniq_key=uniq_comp % stride,
        inv_missing=inv_missing,
        need=np.bincount(uniq_proc, minlength=layout.slot_bounds.size - 1),
    )


def _allocate(
    layout: SlotState,
    slots: _Slots,
    uniq_owner: np.ndarray,
    uniq_lidx: np.ndarray,
) -> _Alloc:
    """Place the never-seen keys: per processor they reuse its holes in
    ascending slot order, then append at the end of its region."""
    old_bounds = layout.slot_bounds
    n = old_bounds.size - 1
    old_sizes = np.diff(old_bounds)
    slot_proc, uniq_proc, need = slots.slot_proc, slots.uniq_proc, slots.need
    free_slots = np.flatnonzero(slots.counts == 0)
    free_proc = slot_proc[free_slots]
    n_free = np.bincount(free_proc, minlength=n)
    frank = np.arange(free_slots.size, dtype=np.int64) - (np.cumsum(n_free) - n_free)[free_proc]
    usable = frank < need[free_proc]
    reused = free_slots[usable]
    n_reuse = np.bincount(free_proc[usable], minlength=n)
    slot_bounds = np.concatenate(([0], np.cumsum(old_sizes + need - n_reuse)))

    # remap old per-slot arrays into the grown slot space
    total = int(slot_bounds[-1])
    newpos = (
        np.arange(old_bounds[-1], dtype=np.int64)
        + (slot_bounds[:-1] - old_bounds[:-1])[slot_proc]
    )
    keys = np.full(total, -1, dtype=np.int64)
    owners = np.zeros(total, dtype=np.int64)
    lidx = np.zeros(total, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    keys[newpos] = layout.keys
    owners[newpos] = layout.owners
    lidx[newpos] = layout.lidx
    counts[newpos] = slots.counts

    # a processor's first n_reuse keys take its reused holes -- both
    # streams are processor-major and ascending, so they pair off in
    # order -- and the rest append past its old region
    urank = np.arange(uniq_proc.size, dtype=np.int64) - (np.cumsum(need) - need)[uniq_proc]
    grow = urank >= n_reuse[uniq_proc]
    gp = uniq_proc[grow]
    alloc = np.empty(uniq_proc.size, dtype=np.int64)
    alloc[~grow] = newpos[reused]
    alloc[grow] = slot_bounds[gp] + old_sizes[gp] + (urank[grow] - n_reuse[gp])
    keys[alloc] = slots.uniq_key
    owners[alloc] = uniq_owner
    lidx[alloc] = uniq_lidx
    counts += np.bincount(alloc[slots.inv_missing], minlength=total)

    slot_of_add = np.empty(slots.gidx.size, dtype=np.int64)
    slot_of_add[slots.found] = newpos[slots.found_slots]
    slot_of_add[~slots.found] = alloc[slots.inv_missing]
    return _Alloc(
        SlotState(slot_bounds, keys, owners, lidx), counts, newpos, alloc, reused, slot_of_add
    )


def _schedule_charges(
    machine: Machine,
    owners: np.ndarray,
    delta: Delta,
    slots: _Slots,
    uniq_owner: np.ndarray,
) -> tuple[ComputeCharge, ExchangeCharge | None, ComputeCharge | None]:
    """Plan the delta-proportional inspector work: the requesters' hash
    and schedule-build compute, then (``None`` when no send-list entry
    changed) requesters telling owners which entries to add/retire, and
    the owners' compute."""
    n = machine.n_procs

    def per_proc(procs: np.ndarray) -> np.ndarray:
        return np.bincount(procs, minlength=n).astype(np.float64)

    dead_proc = slots.slot_proc[slots.went_dead]
    revived_proc = slots.slot_proc[slots.revived]
    new_per_proc = slots.need.astype(np.float64)
    sched = machine.plan_compute_all(
        iops=DEFAULT_COSTS.hash_lookup
        * (per_proc(delta.add_procs) + per_proc(delta.rem_procs))
        + DEFAULT_COSTS.hash_insert * new_per_proc
        + DEFAULT_COSTS.schedule_build
        * (per_proc(dead_proc) + per_proc(revived_proc) + new_per_proc)
    )
    d_p = np.concatenate([dead_proc, revived_proc, slots.uniq_proc])
    if not d_p.size:
        return sched, None, None
    d_q = np.concatenate([owners[slots.went_dead], owners[slots.revived], uniq_owner])
    pairmat = pair_counts(d_p, d_q, n)
    np.fill_diagonal(pairmat, 0)
    src, dst = np.nonzero(pairmat)
    exch = machine.plan_exchange(
        src=src, dst=dst, nbytes=pairmat[src, dst] * DEFAULT_COSTS.index_bytes
    )
    recv = machine.plan_compute_all(iops=DEFAULT_COSTS.schedule_build * per_proc(d_q))
    return sched, exch, recv


def _rebuild_refs(
    ctx: _PatchContext,
    member_keys: list,
    delta: Delta,
    lidx: np.ndarray,
    slots: _Slots,
    alloc: _Alloc,
    local_sizes: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The per-member localized reference lists.

    Unchanged references keep their saved localized values (slot
    positions are stable by construction) and are only permuted into the
    new iteration order -- the order task's gathered copies, joined
    here; delta references take their local offset, or their ghost slot
    past the requester's local segment."""
    vals = lidx.copy()
    gp = delta.add_procs[slots.gidx]
    vals[slots.gidx] = local_sizes[gp] + (alloc.slot_of_add - alloc.layout.slot_bounds[gp])
    inv_new = ctx.order().inverse()
    member_refs = []
    offset = 0
    for akey, D in zip(member_keys, delta.members):
        key = id(ctx.product.patterns[akey].localized.refs_flat)
        refs = ctx.reordered[key]
        if key in ctx.taken:
            # a group sharing this list, patched apart from it, wrote its
            # delta first: one list is one indirection, so it wrote the
            # very positions overwritten here
            refs = refs.copy()
        ctx.taken.add(key)
        refs[inv_new[D]] = vals[offset : offset + D.size]
        offset += D.size
        member_refs.append(refs)
    return tuple(member_refs)


def _merge_index(
    gstate: GroupState, layout: SlotState, stride: int, slots: _Slots, alloc: _Alloc
) -> GroupState:
    """The new counts, and the sorted index merged from the old one.

    Reused holes change key (drop their old entries), every allocated
    slot gains one (``uniq_comp`` is ascending and disjoint from
    surviving comps -- a found comp is never allocated), and surviving
    entries keep their order with slot ids shifted into the grown space.
    """
    msorted, morder = gstate.slot_index(layout, stride)
    rekeyed = np.zeros(layout.keys.size, dtype=bool)
    rekeyed[alloc.reused] = True
    live_entry = ~rekeyed[morder]
    kept_comp = msorted[live_entry]
    ins = np.searchsorted(kept_comp, slots.uniq_comp, side="right")
    return dataclasses.replace(
        gstate,
        counts=alloc.counts,
        sorted_comp=np.insert(kept_comp, ins, slots.uniq_comp),
        sorted_slot=np.insert(alloc.newpos[morder[live_entry]], ins, alloc.alloc),
        index_stride=stride,
    )


# -- the group driver: applies the charges, assembles the result --------
def _patch_group(
    ctx: _PatchContext,
    gstate: GroupState,
    member_keys: list,
    ttable: Translator,
    sib: _GroupPatch | None,
) -> _GroupPatch | None:
    """Patch one pattern group; ``None`` when it has no delta.

    ``sib`` is the patch of a sibling group holding this group's layout
    or ``None``.  One loop's groups routinely differ only in the data
    array they move (``x(edge(i))`` vs ``y(edge(i))``); one layout makes
    the sibling's stage values this group's too, so a shared group takes
    them, applies the same frozen charges at the same sites, and runs
    live only what is per group: the translate call and the group's own
    patterns over the sibling's new schedule and arrays.  An abort fires
    after the charges that precede it here (finding out is part of the
    simulated price); ``gstate`` is never mutated.
    """
    machine = ctx.machine
    shared = sib is not None
    tag = f"{gstate.array}({','.join(map(str, gstate.indexes))})"
    span = partial(machine.obs.span, group=tag, shared=shared)
    first = ctx.product.patterns[member_keys[0]]
    layout = first.localized.slots
    dist = ttable.dist  # the array's current distribution (precondition)
    stride = max(dist.size, 1)
    local_sizes = np.asarray(first.localized.local_sizes, dtype=np.int64)
    with span("adapt.patch.delta"):
        delta = sib.delta if shared else _group_delta(ctx, layout.slot_bounds, member_keys, local_sizes)
        if delta is None:
            return None
        adds = sib.adds if shared else _classify(machine, dist, delta)
    lidx, ghost, classify_charge = adds
    machine.charge_planned_compute(classify_charge)
    with span("adapt.patch.slots"):
        if not shared:  # a copy holding the slot index, sorted now if it has none
            gstate = gstate.indexed(layout, stride)
        slots = sib.slots if shared else _slot_counts(gstate, layout, delta, ghost, stride)
    with span("adapt.patch.translate"):
        # live for a shared group too: its sibling left every key in the
        # memo, so this charges exactly the probe and the table's fixed
        # (empty) request/reply round an independent patch of this group pays
        uniq_owner, uniq_lidx = ctx.memo.translate(
            machine, ttable, stride, slots.uniq_proc, slots.uniq_key
        )
    with span("adapt.patch.allocate"):
        alloc = sib.alloc if shared else _allocate(layout, slots, uniq_owner, uniq_lidx)
    with span("adapt.patch.index"):
        if shared:
            state = dataclasses.replace(sib.state, array=gstate.array)
        else:
            state = _merge_index(gstate, layout, stride, slots, alloc)
    with span("adapt.patch.schedule", n_slots=alloc.counts.size) as sched_span:
        if shared:
            schedule, charges = sib.schedule, sib.charges
        else:
            sig = first.localized.schedule.dist_signature
            schedule = state.schedule(alloc.layout, machine, sig, stride)
            charges = _schedule_charges(machine, layout.owners, delta, slots, uniq_owner)
        sched_span.set(n_pairs=int(schedule._pair_q.size))
        _assign_buffers(machine, first.localized.schedule, schedule, slots.need)
        sched_charge, exchange, recv_charge = charges
        machine.charge_planned_compute(sched_charge)
        if exchange is not None:
            machine.charge_exchange(exchange)
            machine.charge_planned_compute(recv_charge)
    with span("adapt.patch.refs"):
        refs = sib.refs if shared else _rebuild_refs(
            ctx, member_keys, delta, lidx, slots, alloc, local_sizes
        )
        patterns = {}
        for akey, refs_flat in zip(member_keys, refs):
            loc = LocalizeResult(
                local_sizes=local_sizes.tolist(),
                schedule=schedule,
                refs_flat=refs_flat,
                ref_bounds=ctx.order().bounds,
                slots=alloc.layout,
            )
            # executor caches are value-independent (positions only): a
            # shared group adopts its sibling's holder; anyone else gets a
            # fresh one, which the executor fills from its second sweep on
            derived = sib.patterns[sib.state.array, akey[1]].derived if shared else None
            patterns[akey] = PatternData(gstate.array, akey[1], loc, derived)
    return _GroupPatch(delta, adds, slots, alloc, schedule, charges, refs, patterns, state)


def _assign_buffers(
    machine: Machine, old: CommSchedule, new: CommSchedule, need: np.ndarray
) -> None:
    """Charge the buffer assignment of a patched schedule's newly assigned
    slots (``need`` per processor: appended slots and reused holes, each
    rebound to a new key).  Regrowth is append-only -- retired slots stay
    as holes -- so a ghost region that shrank is a ``ValueError``."""
    shrunk = np.flatnonzero(
        np.asarray(new.ghost_sizes) < np.asarray(old.ghost_sizes)
    )
    if shrunk.size:
        p = int(shrunk[0])
        raise ValueError(
            f"ghost region of processor {p} shrank ({old.ghost_sizes[p]} -> "
            f"{new.ghost_sizes[p]}); patching is append-only"
        )
    machine.charge_compute_all(
        iops=DEFAULT_COSTS.buffer_assign * np.asarray(need, dtype=np.float64)
    )


def patch_product(
    machine: Machine,
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    changed: dict[str, np.ndarray],
    ttables: TableCache,
) -> InspectorProduct:
    """Patch ``product`` against its ``adapt_state`` for the given
    changed indirection positions; returns the patched product, born
    with its own :class:`~repro.adapt.state.LoopAdaptState` (``product``
    itself when the value rewrites cancelled out).  Mutates nothing it
    is given, so a typed failure leaves ``product`` as it was.

    ``changed`` maps indirection array name -> sorted positions whose
    values differ from the ones ``product`` was built from (the driver's
    :func:`~repro.adapt.diff.expand_ranges` of the dirty windows,
    compared there by :func:`~repro.adapt.diff.old_targets` against
    ``global_get``; diff charges are the caller's).  Preconditions (the
    caller -- the driver -- verifies them): every data/indirection DAD
    equals the product's, and ``ttables`` has held the translation table
    of every referenced array's current distribution (``get`` rebuilds
    one a remap away and back left as a key), and ``product`` carries
    its adapt state.
    """
    loop = product.loop
    state = product.adapt_state
    n_procs = machine.n_procs

    parts = [c for c in changed.values() if c.size]
    if not parts:
        changed_iters = _EMPTY
    elif len(parts) == 1:
        changed_iters = parts[0]
    else:
        # union of sorted position sets via one flag pass over the
        # iteration space -- beats sorting the concatenation
        flag = np.zeros(loop.n_iterations, dtype=bool)
        for c in parts:
            flag[c] = True
        changed_iters = np.flatnonzero(flag)
    old_part = product.iteration_partition
    with machine.obs.span("adapt.patch.revote", iterations=int(changed_iters.size)):
        home_new, moved = _revote(
            machine, loop, arrays, state.home, changed_iters, old_part.method
        )
    # the order task's passes over every iteration feed no slot-space
    # stage: they run on the strip pool while the groups' stages run here
    # (first and inline on one usable CPU), into arrays allocated here;
    # the old inverse is the one the previous patch's order task built
    inv_old = old_part.inverse()
    saved = {id(p.localized.refs_flat): p.localized.refs_flat for p in product.patterns.values()}
    reordered = {key: np.empty(loop.n_iterations, dtype=np.int64) for key in saved}
    lists = [(saved[key], reordered[key]) for key in saved]
    order = strips.start(partial(_order, machine.obs, old_part, home_new, bool(moved.size), lists))
    ctx = _PatchContext(
        machine=machine,
        product=product,
        deltas=_DeltaCache(arrays, changed, changed_iters, moved, state.home, home_new, inv_old),
        memo=KeyTranslationMemo(),
        order=order,
        reordered=reordered,
        taken=set(),
    )

    patterns_new: dict = dict(product.patterns)
    groups_new: dict = dict(state.groups)
    patched = False
    # groups holding one layout patch identically: the first one's patch
    # (``None``: an empty delta) is shared with every sibling
    done: dict[tuple, _GroupPatch | None] = {}
    try:
        for gkey in product.groups:
            member_keys = group_members(gkey)
            gstate = state.groups[gkey]
            layout = product.layout_key(gkey)
            sib = done.get(layout)
            if sib is None and layout in done:
                continue
            dist = arrays[gstate.array].distribution
            ttable = ttables.get(machine, gstate.array, dist)
            try:
                patch = _patch_group(ctx, gstate, member_keys, ttable, sib)
            except ValueError as exc:
                # schedule/buffer assembly rejected the delta (shrunk ghost
                # region, mismatched shapes): the saved state disagrees with
                # the product -- a recoverable abort
                raise PatchAborted(
                    f"adapt: patch assembly failed for group {gkey}: {exc}"
                ) from exc
            if sib is None:
                done[layout] = patch
            if patch is not None:
                patterns_new.update(patch.patterns)
                groups_new[gkey] = patch.state
                patched = True
    finally:
        # the order task's result is read on every path, an abort's too:
        # no patch leaves work running behind it
        new_part = order()

    machine.barrier()

    # the modelled runtime keeps a snapshot of every indirection array
    # and its owners re-copy the changed positions; the host reads old
    # values off the product instead (adapt.diff.old_targets)
    snap_mem = np.zeros(n_procs)
    for name, pos in changed.items():
        if not pos.size:
            continue
        owners = np.asarray(arrays[name].distribution.owner(pos), dtype=np.int64)
        snap_mem += np.bincount(owners, minlength=n_procs).astype(np.float64)
    if snap_mem.any():
        machine.charge_compute_all(mem=snap_mem)

    if not patched and new_part is old_part:
        # value rewrites that cancelled out: nothing to patch
        return product
    return InspectorProduct(
        loop=loop,
        iteration_partition=new_part,
        patterns=patterns_new,
        dist_signatures=dict(product.dist_signatures),
        groups=product.groups,
        adapt_state=LoopAdaptState(home_new, groups_new),
    )
