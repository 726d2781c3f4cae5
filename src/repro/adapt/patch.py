"""Patch a saved InspectorProduct instead of re-running the inspector.

Given the positions whose indirection values actually changed (from
``adapt.diff``), :func:`patch_product` produces an
:class:`~repro.core.inspector.InspectorProduct` equivalent to a fresh
inspection of the current arrays while charging the simulated machine
only for delta-proportional work.  It re-votes the changed iterations
(``_revote``: one compute charge, one exchange of the *moved* iteration
records), then runs each pattern group through :func:`_patch_group`, a
driver over stage functions that do host work only and return their
arrays plus the charges they planned.  The driver applies those at these
sites, in this order:

1. **delta** -- retired and added references (:class:`Delta`), the adds
   classified local/ghost: one membership-probe compute charge;
2. **slots** -- reference counts absorb the delta: no charge (a negative
   count aborts here, after the classify charge);
3. **translate** -- never-seen keys only: a memo-probe compute charge,
   then the table's ``dereference_flat`` round;
4. **allocate** -- new keys reuse holes, then append: no charge;
5. **index** -- the persisted sorted slot index is merged: no charge;
6. **schedule** -- read off the patched slot state's live slots in index
   order and built by the one ``CommSchedule`` constructor, then
   ``GhostBuffers.patched`` (buffer-assign compute), then the schedule
   compute, the delta exchange and the receivers' compute;
7. **refs** -- localized reference lists in the new order: no charge.

A group byte-identical to one already patched runs the same driver on
that sibling's stage values.  The patched product's iteration partition,
ghost key sets, schedule pairs, send offsets and wire order equal a
from-scratch inspection's; executor results and executor charges are
bit-identical.  Only the *inspector-phase* charges differ -- that is the
entire point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import majority_owner, pair_counts, sorted_unique_inverse, stable_order
from repro.chaos.localize import LocalizeResult
from repro.chaos.schedule import CommSchedule
from repro.chaos.transcache import KeyTranslationMemo
from repro.chaos.ttable import TranslationTable
from repro.core.executor import patch_exec_caches
from repro.core.inspector import InspectorProduct, PatternData
from repro.core.iteration import (
    ITERATION_RECORD_BYTES,
    IterationPartition,
    method_refs,
    owner_rows,
    partition_from_home,
)
from repro.adapt.state import GroupState, LoopAdaptState, group_state_key, product_groups
from repro.distribution.distarray import DistArray
from repro.guard.errors import PatchAborted
from repro.machine.machine import ComputeCharge, ExchangeCharge, Machine

_EMPTY = np.empty(0, dtype=np.int64)


class _DeltaCache:
    """Per-patch cache of per-indirection delta views.

    Every group member referencing indirection ``ind`` has the same
    delta iteration set ``D = moved ∪ changed[ind]`` and the same
    derived gathers (old/new flat positions, homes, new targets) -- and
    one loop's groups overwhelmingly share indirections (``x(edge(i))``
    and ``y(edge(i))`` both reference through ``edge``), so these are
    computed once per patch instead of once per member.  ``moved`` and
    every ``changed[...]`` are sorted subsets of ``changed_iters``, so
    the union is a flag-merge over ``changed_iters`` (no re-sort).
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
        inv_new: np.ndarray,
    ) -> None:
        self._arrays = arrays
        self._changed = changed
        self._changed_iters = changed_iters
        self._moved = moved
        self._moved_pos = np.searchsorted(changed_iters, moved)
        self._home_old = home_old
        self._home_new = home_new
        self._inv_old = inv_old
        self._inv_new = inv_new
        self._by_ind: dict[str | None, tuple] = {}

    def delta(self, ind: str | None):
        """``(D, old_pos, new_pos, p_old, p_new, t_new)`` for one
        indirection: the delta iterations, their positions in the old
        and new flat iteration orders, their old and new homes, and the
        global element each one now targets."""
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
            self._inv_new[D] if D.size else _EMPTY,
            self._home_old[D] if D.size else _EMPTY,
            self._home_new[D] if D.size else _EMPTY,
            t_new,
        )
        self._by_ind[ind] = out
        return out


def _revote(
    machine: Machine,
    loop,
    arrays: dict[str, DistArray],
    state: LoopAdaptState,
    changed_iters: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute homes for changed iterations; returns (home_new, moved).

    Uses the same reference selection as ``partition_iterations`` for
    ``method`` so the patched home map equals a fresh partitioning's.
    """
    home_old = state.home
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
    old_to_new: np.ndarray  # old flat position of each new flat position
    new_part: IterationPartition
    partition_changed: bool


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
    #: per member ``(D, new_pos)``: its delta iterations and their
    #: positions in the new flat iteration order
    members: tuple[tuple[np.ndarray, np.ndarray], ...]


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

    slot_bounds: np.ndarray
    keys: np.ndarray
    owners: np.ndarray
    lidx: np.ndarray
    counts: np.ndarray
    newpos: np.ndarray  # new slot id of each old slot
    alloc: np.ndarray  # new slot id of each never-seen key
    reused: np.ndarray  # old slot ids of the holes they took
    slot_of_add: np.ndarray  # new slot id of each ghost add


@dataclass(frozen=True)
class _GroupPatch:
    """One group's patch: its inputs, every stage's value, its result.
    A byte-identical sibling group takes the stage values instead of
    recomputing them."""

    member_keys: list
    gstate: GroupState  # the slot state the patch started from
    delta: Delta
    adds: tuple[np.ndarray, np.ndarray, ComputeCharge]  # see _classify
    slots: _Slots
    alloc: _Alloc
    schedule: CommSchedule
    charges: tuple  # see _schedule_charges
    refs: tuple[tuple[np.ndarray, ...], np.ndarray]  # see _rebuild_refs
    patterns: dict  # the group's new PatternData by key
    state: GroupState  # persisted once every group has succeeded


# -- stages: host work only; charges are planned and returned -----------
def _group_delta(
    ctx: _PatchContext,
    gstate: GroupState,
    member_keys: list,
    local_sizes: np.ndarray,
) -> Delta | None:
    """Retire each delta iteration's old reference (local/ghost read off
    the *saved* localized value, no translation) and collect its new
    one; ``None`` when no member has a delta iteration (saved data
    reusable as-is, iteration order unchanged)."""
    members, rem_procs, rem_slots, add_procs, add_targets = [], [], [], [], []
    for akey in member_keys:
        D, old_pos, new_pos, p_old, p_new, t_new = ctx.deltas.delta(akey[1])
        members.append((D, new_pos))
        if not D.size:
            continue
        lv = ctx.product.patterns[akey].localized.refs_flat[old_pos]
        is_ghost = lv >= local_sizes[p_old]
        gp = p_old[is_ghost]
        rem_procs.append(gp)
        rem_slots.append(gstate.slot_bounds[gp] + (lv[is_ghost] - local_sizes[gp]))
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
    gstate: GroupState, delta: Delta, ghost: np.ndarray, stride: int
) -> _Slots:
    """Absorb the delta into the per-slot reference counts.

    Ghost adds hitting a tracked slot (live or hole) reuse the saved
    (owner, local offset): the runtime recorded them at the last
    inspection and conditions 1-2 guarantee they are still valid.  Only
    never-before-seen keys are left for the translation table."""
    # work on a copy: gstate must stay untouched until the whole patch
    # succeeds (patch_product persists all groups together at the end),
    # so a mid-patch exception leaves state consistent with the old
    # product and a later attempt can still patch or fall back cleanly
    counts = gstate.counts.copy()
    # bincount beats ufunc.at by an order of magnitude at this size
    counts -= np.bincount(delta.rem_slots, minlength=counts.size)
    gidx = np.flatnonzero(ghost)
    # the persisted sorted slot index (built at state capture, merged on
    # every patch) is probed once per distinct composite, in its own order
    comp, inv = sorted_unique_inverse(delta.add_procs[gidx] * stride + delta.add_targets[gidx])
    msorted, morder = gstate.slot_index(stride)
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
        slot_proc=gstate.slot_proc(),
        went_dead=np.flatnonzero((gstate.counts > 0) & (counts == 0)),
        revived=np.flatnonzero((gstate.counts == 0) & (counts > 0)),
        gidx=gidx,
        found=found,
        found_slots=found_slots,
        uniq_comp=uniq_comp,
        uniq_proc=uniq_proc,
        uniq_key=uniq_comp % stride,
        inv_missing=inv_missing,
        need=np.bincount(uniq_proc, minlength=gstate.slot_bounds.size - 1),
    )


def _allocate(
    gstate: GroupState,
    delta: Delta,
    slots: _Slots,
    uniq_owner: np.ndarray,
    uniq_lidx: np.ndarray,
) -> _Alloc:
    """Place the never-seen keys: per processor they reuse its holes in
    ascending slot order, then append at the end of its region."""
    old_bounds = gstate.slot_bounds
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
    keys[newpos] = gstate.keys
    owners[newpos] = gstate.owners
    lidx[newpos] = gstate.lidx
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
        slot_bounds, keys, owners, lidx, counts, newpos, alloc, reused, slot_of_add
    )


def _slot_schedule(machine: Machine, dist_signature: tuple, state: GroupState) -> CommSchedule:
    """The group's schedule read off its patched slot state, built by the
    constructor a cold inspection uses.

    The entries are exactly the live slots: slot ``s`` of requester
    ``p`` is ``(owners[s], p, lidx[s], s - slot_bounds[p])``.  The merged
    sorted index lists every slot ``(p, key)``-ascending, so its live
    slots regrouped by ``(p, q)`` (stable) are in ``localize``'s
    canonical ``(p, q, key)`` order."""
    n = machine.n_procs
    live = state.counts[state.sorted_slot] > 0
    slot = state.sorted_slot[live]
    p = state.sorted_comp[live] // state.index_stride
    pair = p * n + state.owners[slot]
    order = stable_order(pair, n * n)
    slot = slot[order]
    # pair ids ascending are the requester-major / owner-minor pairs
    pair_len = np.bincount(pair, minlength=n * n)
    pair_id = np.flatnonzero(pair_len)
    return CommSchedule(
        machine,
        dist_signature,
        pair_id % n,
        pair_id // n,
        pair_len[pair_id],
        state.lidx[slot],
        slot - state.slot_bounds[p[order]],
        [int(s) for s in np.diff(state.slot_bounds)],
    )


def _schedule_charges(
    machine: Machine,
    gstate: GroupState,
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
    d_q = np.concatenate(
        [gstate.owners[slots.went_dead], gstate.owners[slots.revived], uniq_owner]
    )
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
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``(per-member localized reference lists, ghost_flat)``.

    Unchanged references keep their saved localized values (slot
    positions are stable by construction) and are only permuted into the
    new iteration order; delta references take their local offset, or
    their ghost slot past the requester's local segment.  ``ghost_flat``
    is the slot space's key per slot with holes marked ``-1``."""
    vals = lidx.copy()
    gp = delta.add_procs[slots.gidx]
    vals[slots.gidx] = local_sizes[gp] + (alloc.slot_of_add - alloc.slot_bounds[gp])
    member_refs = []
    offset = 0
    for akey, (D, dpos) in zip(member_keys, delta.members):
        refs = ctx.product.patterns[akey].localized.refs_flat[ctx.old_to_new]
        refs[dpos] = vals[offset : offset + D.size]
        offset += D.size
        member_refs.append(refs)
    ghost_flat = alloc.keys.copy()
    ghost_flat[alloc.counts == 0] = -1
    return tuple(member_refs), ghost_flat


def _merge_index(
    gstate: GroupState, stride: int, slots: _Slots, alloc: _Alloc
) -> GroupState:
    """The new slot state, its sorted index merged from the old one.

    Reused holes change key (drop their old entries), every allocated
    slot gains one (``uniq_comp`` is ascending and disjoint from
    surviving comps -- a found comp is never allocated), and surviving
    entries keep their order with slot ids shifted into the grown space.
    """
    msorted, morder = gstate.slot_index(stride)
    rekeyed = np.zeros(gstate.keys.size, dtype=bool)
    rekeyed[alloc.reused] = True
    live_entry = ~rekeyed[morder]
    kept_comp = msorted[live_entry]
    ins = np.searchsorted(kept_comp, slots.uniq_comp, side="right")
    return dataclasses.replace(
        gstate,
        slot_bounds=alloc.slot_bounds,
        keys=alloc.keys,
        owners=alloc.owners,
        lidx=alloc.lidx,
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
    ttable: TranslationTable,
    sib: _GroupPatch | None,
) -> _GroupPatch | None:
    """Patch one pattern group; ``None`` when it has no delta.

    ``sib`` is the patch of a byte-identical sibling group
    (:func:`_twin_matches`) or ``None``.  One loop's groups routinely
    differ only in the data array they move (``x(edge(i))`` vs
    ``y(edge(i))``); what the check proves equal makes the sibling's
    stage values this group's too, so a twin takes them, applies the same
    frozen charges at the same sites, and runs live only what is per
    group: the translate call, its schedule identity, its ghost backing
    (its own data values) and the wrapping of the shared arrays.  An
    abort fires after the charges that precede it here (finding out is
    part of the simulated price); ``gstate`` is never mutated.
    """
    machine = ctx.machine
    twin = sib is not None
    tag = f"{gstate.array}({','.join(map(str, gstate.indexes))})"
    span = partial(machine.obs.span, group=tag, twin=twin)
    first = ctx.product.patterns[member_keys[0]]
    dist = ttable.dist  # the array's current distribution (precondition)
    stride = max(dist.size, 1)
    local_sizes = np.asarray(first.localized.local_sizes, dtype=np.int64)
    with span("adapt.patch.delta"):
        delta = sib.delta if twin else _group_delta(ctx, gstate, member_keys, local_sizes)
        if delta is None:
            return None
        adds = sib.adds if twin else _classify(machine, dist, delta)
    lidx, ghost, classify_charge = adds
    machine.charge_planned_compute(classify_charge)
    with span("adapt.patch.slots"):
        slots = sib.slots if twin else _slot_counts(gstate, delta, ghost, stride)
    with span("adapt.patch.translate"):
        # live for a twin too: its sibling left every key in the memo,
        # so this charges exactly the probe and the table's fixed (empty)
        # request/reply round an independent patch of this group pays
        uniq_owner, uniq_lidx = ctx.memo.translate(
            machine, ttable, stride, slots.uniq_proc, slots.uniq_key
        )
    with span("adapt.patch.allocate"):
        alloc = sib.alloc if twin else _allocate(
            gstate, delta, slots, uniq_owner, uniq_lidx
        )
    with span("adapt.patch.index"):
        if twin:
            state = dataclasses.replace(
                sib.state, array=gstate.array, indexes=gstate.indexes
            )
        else:
            state = _merge_index(gstate, stride, slots, alloc)
    with span("adapt.patch.schedule"):
        if twin:
            # schedules are immutable; the clone keeps the distinct object
            # identity the executor's coalescing and product_groups key on
            schedule, charges = sib.schedule.twin(), sib.charges
        else:
            schedule = _slot_schedule(machine, first.localized.schedule.dist_signature, state)
            charges = _schedule_charges(machine, gstate, delta, slots, uniq_owner)
        ghosts = first.ghosts.patched(schedule, appended=slots.need)
        sched_charge, exchange, recv_charge = charges
        machine.charge_planned_compute(sched_charge)
        if exchange is not None:
            machine.charge_exchange(exchange)
            machine.charge_planned_compute(recv_charge)
    with span("adapt.patch.refs"):
        refs = sib.refs if twin else _rebuild_refs(
            ctx, member_keys, delta, lidx, slots, alloc, local_sizes
        )
        patterns, space = {}, None
        for akey, refs_flat, (_D, dpos) in zip(member_keys, refs[0], delta.members):
            loc = LocalizeResult(
                local_sizes=local_sizes.tolist(),
                schedule=schedule,
                refs_flat=refs_flat,
                ref_bounds=ctx.new_part.bounds,
                ghost_flat=refs[1],
                ghost_bounds=alloc.slot_bounds,
            )
            # executor caches are value-independent (positions only): a
            # twin adopts its sibling's patched holder, anyone else carries
            # its own across the patch (host-level, delta positions only;
            # one patched space shared by the group's members)
            derived = sib.patterns[sib.gstate.array, akey[1]].derived if twin else None
            patterns[akey] = pat = PatternData(gstate.array, akey[1], loc, ghosts, derived)
            if not twin:
                # the processor of each delta position, off the bounds: no
                # n-length position -> processor map for a few thousand reads
                dpid = np.searchsorted(ctx.new_part.bounds, dpos, side="right") - 1
                space = patch_exec_caches(
                    ctx.product.patterns[akey], pat, dpos, dpid, ctx.partition_changed, space,
                )
    return _GroupPatch(
        member_keys, gstate, delta, adds, slots, alloc, schedule, charges,
        refs, patterns, state,
    )


def _same(a, b) -> bool:
    """Array equality with an identity fast path.

    Twin groups share ndarray objects after their first deduplicated
    patch, so steady-state verification is ``is`` checks; full content
    compares only happen on the first patch after a capture (a
    checkpoint restore keeps the sharing: one section per array)."""
    return a is b or np.array_equal(a, b)


def _twin_matches(sib: _GroupPatch, product, gstate: GroupState, member_keys: list) -> bool:
    """Whether this group is byte-identical to the group ``sib`` patched:
    same indirections, same slot state, same schedule content, same
    saved localized references (the caller only pairs groups of one
    distribution signature).  When it is, the groups perform identical
    patch work and :func:`_patch_group` may share ``sib``'s."""
    if [k[1] for k in member_keys] != [k[1] for k in sib.member_keys]:
        return False
    for f in ("slot_bounds", "keys", "owners", "lidx", "counts"):
        if not _same(getattr(gstate, f), getattr(sib.gstate, f)):
            return False
    old, old0 = (
        [product.patterns[k].localized for k in keys]
        for keys in (member_keys, sib.member_keys)
    )
    s1, s0 = old[0].schedule, old0[0].schedule
    if s1 is not s0:
        if s1.ghost_sizes != s0.ghost_sizes:
            return False
        for f in ("_pair_q", "_pair_p", "_pair_len", "_flat_send", "_flat_recv"):
            if not _same(getattr(s1, f), getattr(s0, f)):
                return False
    return all(_same(a.refs_flat, b.refs_flat) for a, b in zip(old, old0))


def patch_product(
    machine: Machine,
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    state: LoopAdaptState,
    changed: dict[str, np.ndarray],
    ttables: dict[tuple[str, tuple], TranslationTable],
) -> InspectorProduct:
    """Patch ``product`` for the given changed indirection positions;
    returns the patched product (``product`` itself when the value
    rewrites cancelled out).

    ``changed`` maps indirection array name -> sorted positions whose
    values differ from ``state.snapshots`` (the driver's
    :func:`~repro.adapt.diff.expand_ranges` of the dirty windows,
    compared there against ``global_get``; diff charges are the
    caller's).  Preconditions (the caller -- the driver
    -- verifies them): every data/indirection DAD equals the product's,
    and ``ttables`` holds the translation table of every referenced
    array's current distribution.  Mutates ``state`` (home map,
    snapshots, group slot spaces) to describe the patched product.
    """
    loop = product.loop
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
            machine, loop, arrays, state, changed_iters, old_part.method
        )
    new_part = old_part
    if moved.size:
        new_part = partition_from_home(home_new, n_procs, old_part.method)
    # the old inverse is the one the previous patch built as its new one
    inv_old = old_part.inverse()
    ctx = _PatchContext(
        machine=machine,
        product=product,
        deltas=_DeltaCache(
            arrays, changed, changed_iters, moved,
            state.home, home_new, inv_old, new_part.inverse(),
        ),
        memo=KeyTranslationMemo(),
        old_to_new=inv_old[new_part.flat],
        new_part=new_part,
        partition_changed=moved.size > 0,
    )

    patterns_new: dict = dict(product.patterns)
    pending_states: dict = {}
    # groups over the same indirections and distribution whose slot
    # state is byte-identical patch identically: the first one's patch
    # (``None``: an empty delta, a function of the indirections alone,
    # so every sibling's is empty too) is shared with every sibling
    done: dict[tuple, _GroupPatch | None] = {}
    for member_keys in product_groups(product):
        gkey = group_state_key(member_keys)
        gstate = state.groups[gkey]
        sig = arrays[gstate.array].distribution.signature()
        mkey = (gkey[1], sig)
        sib = done.get(mkey)
        if sib is None and mkey in done:
            continue
        if sib is not None and not _twin_matches(sib, product, gstate, member_keys):
            sib = None
        try:
            patch = _patch_group(
                ctx, gstate, member_keys, ttables[(gstate.array, sig)], sib
            )
        except ValueError as exc:
            # schedule/buffer assembly rejected the delta (shrunk ghost
            # region, mismatched shapes): the saved state disagrees with
            # the product -- a recoverable abort, nothing persisted yet
            raise PatchAborted(
                f"adapt: patch assembly failed for group {gkey}: {exc}"
            ) from exc
        if sib is None:
            done[mkey] = patch
        if patch is not None:
            patterns_new.update(patch.patterns)
            pending_states[gkey] = patch.state

    # every group patched without error: persist the new slot spaces
    state.groups.update(pending_states)

    machine.barrier()

    # update snapshots at the changed positions only (owners re-copy them)
    snap_mem = np.zeros(n_procs)
    for name, pos in changed.items():
        if not pos.size:
            continue
        state.snapshots[name][pos] = arrays[name].global_get(pos)
        owners = np.asarray(arrays[name].distribution.owner(pos), dtype=np.int64)
        snap_mem += np.bincount(owners, minlength=n_procs).astype(np.float64)
    if snap_mem.any():
        machine.charge_compute_all(mem=snap_mem)

    state.home = home_new
    if not pending_states and new_part is old_part:
        # value rewrites that cancelled out: nothing to patch
        return product
    return InspectorProduct(
        loop=loop,
        iteration_partition=new_part,
        patterns=patterns_new,
        dist_signatures=dict(product.dist_signatures),
    )
