"""Patch a saved InspectorProduct instead of re-running the inspector.

Given the positions whose indirection values actually changed (from
``adapt.diff``), :func:`patch_product` produces an
:class:`~repro.core.inspector.InspectorProduct` equivalent to a fresh
inspection of the current arrays while charging the simulated machine
only for delta-proportional work:

1. **re-vote** -- only iterations whose reference targets changed can
   change home; their majority vote is recomputed and only *moved*
   iteration records are exchanged;
2. **reference diff** -- per pattern group, each delta iteration
   retires its old reference (classified local/ghost from the *saved*
   localized value, no translation needed) and adds its new one; only
   the added targets are translated, in one
   ``ttable.dereference_flat`` over the delta;
3. **slot update** -- per-slot reference counts absorb the delta;
   slots hitting zero retire in place (holes), new keys reuse holes
   then append (see the package docstring's layout contract);
4. **schedule + buffer patch** -- ``CommSchedule.patched`` retires dead
   entries and appends revived/new ones (pairs stay requester-major /
   owner-minor with elements key-sorted, matching a fresh ``localize``
   wire order exactly), and ``GhostBuffers.patched`` regrows the CSR
   backing copying retained slots; and
5. **localized-ref rebuild** -- unchanged references keep their saved
   localized values (slot positions are stable by construction) and are
   only permuted into the new iteration order; delta references get
   values from the delta translation.

The patched product's iteration partition, ghost key sets, schedule
pairs, send offsets and wire order equal a from-scratch inspection's;
executor results and executor charges are bit-identical.  Only the
*inspector-phase* charges differ -- that is the entire point.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.costs import ChaosCosts, DEFAULT_COSTS
from repro.chaos.kernels import majority_owner, pair_counts, sorted_unique_inverse
from repro.chaos.localize import LocalizeResult
from repro.chaos.transcache import KeyTranslationMemo
from repro.chaos.ttable import TranslationTable
from repro.core.executor import patch_exec_caches
from repro.core.inspector import InspectorProduct, PatternData
from repro.core.iteration import (
    ITERATION_RECORD_BYTES,
    method_refs,
    owner_rows,
    partition_from_home,
)
from repro.adapt.state import GroupState, LoopAdaptState, group_state_key, product_groups
from repro.distribution.distarray import DistArray
from repro.guard.errors import PatchAborted
from repro.machine.machine import Machine

#: integer ops per dirty element for the snapshot-vs-current compare
DIFF_IOPS_PER_ELEMENT = 2.0

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
            t_new = np.asarray(
                self._arrays[ind].global_view(), dtype=np.int64
            )[D]
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
    costs: ChaosCosts,
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
        * (costs.hash_lookup + 2.0)
    )
    if moved.size:
        pairmat = pair_counts(home_old[moved], home_new[moved], machine.n_procs)
        np.fill_diagonal(pairmat, 0)
        src, dst = np.nonzero(pairmat)
        machine.exchange(
            src=src, dst=dst, nbytes=pairmat[src, dst] * ITERATION_RECORD_BYTES
        )
    return home_new, moved


def _patch_group(
    machine: Machine,
    arrays: dict[str, DistArray],
    product: InspectorProduct,
    gstate: GroupState,
    member_keys: list,
    ttable: TranslationTable,
    deltas: "_DeltaCache",
    moved: np.ndarray,
    inv_old: np.ndarray,
    new_iter_flat: np.ndarray,
    new_bounds: np.ndarray,
    costs: ChaosCosts,
    trans_cache: KeyTranslationMemo,
) -> tuple[dict, GroupState, dict] | None:
    """Patch one pattern group; returns (new PatternData by key,
    updated GroupState to persist, twin pack) or ``None`` when the group
    has no delta (saved data reusable as-is, iteration order unchanged).
    Never mutates ``gstate`` -- the caller persists the returned state
    only after every group has succeeded."""
    n = machine.n_procs
    array_name = gstate.array
    arr = arrays[array_name]
    dist = arr.distribution
    first_loc = product.patterns[member_keys[0]].localized
    local_sizes = np.asarray(first_loc.local_sizes, dtype=np.int64)
    stride = max(dist.size, 1)

    # -- per-member deltas: retire old refs, collect new ones ------------
    member_D: list[tuple[np.ndarray, np.ndarray]] = []
    rem_slot_parts: list[np.ndarray] = []
    rem_proc_parts: list[np.ndarray] = []
    add_p_parts: list[np.ndarray] = []
    add_t_parts: list[np.ndarray] = []
    for akey in member_keys:
        D, old_pos, new_pos, p_old, p_new, t_new = deltas.delta(akey[1])
        member_D.append((D, new_pos))
        if not D.size:
            add_p_parts.append(_EMPTY)
            add_t_parts.append(_EMPTY)
            continue
        lv = product.patterns[akey].localized.refs_flat[old_pos]
        is_ghost = lv >= local_sizes[p_old]
        if is_ghost.any():
            gp = p_old[is_ghost]
            rem_slot_parts.append(
                gstate.slot_bounds[gp] + (lv[is_ghost] - local_sizes[gp])
            )
            rem_proc_parts.append(gp)
        add_p_parts.append(p_new)
        add_t_parts.append(t_new)

    add_p = np.concatenate(add_p_parts) if add_p_parts else _EMPTY
    if not add_p.size and not rem_slot_parts:
        return None
    add_t = np.concatenate(add_t_parts) if add_t_parts else _EMPTY
    rem_slots = (
        np.concatenate(rem_slot_parts) if rem_slot_parts else _EMPTY
    )
    rem_procs = (
        np.concatenate(rem_proc_parts) if rem_proc_parts else _EMPTY
    )

    # -- classify the added references locally ---------------------------
    # Each requester probes its own membership table (a processor always
    # knows which globals it owns): local targets resolve to their local
    # offset on the spot, everything else is a ghost candidate.  Charged
    # as one replicated-table-style probe per added reference.
    if add_t.size:
        owners_add = np.asarray(dist.owner(add_t), dtype=np.int64)
        lidx_add = np.asarray(dist.local_index(add_t), dtype=np.int64)
    else:
        owners_add = _EMPTY
        lidx_add = _EMPTY
    ghost_mask = owners_add != add_p
    classify_iops = costs.translate_replicated * np.bincount(
        add_p, minlength=n
    ).astype(np.float64)
    machine.charge_compute_all(iops=classify_iops)

    # -- slot count update: retire / revive / insert ---------------------
    # work on a copy: gstate must stay untouched until the whole patch
    # succeeds (patch_product persists all groups together at the end),
    # so a mid-patch exception leaves state consistent with the old
    # product and a later attempt can still patch or fall back cleanly
    counts_entry = gstate.counts
    counts = counts_entry.copy()
    if rem_slots.size:
        # bincount beats ufunc.at by an order of magnitude at this size
        counts -= np.bincount(rem_slots, minlength=counts.size)
    gidx = np.flatnonzero(ghost_mask)
    comp = add_p[gidx] * stride + add_t[gidx]
    slot_proc_old = gstate.slot_proc()
    # persisted sorted slot index (built at state capture, merged on
    # every patch): probing it replaces the old per-patch full argsort
    # of the slot space, keeping patch wall work delta-proportional
    msorted, morder = gstate.slot_index(stride)
    if msorted.size:
        pos = np.searchsorted(msorted, comp)
        found = (pos < msorted.size) & (
            msorted[np.minimum(pos, msorted.size - 1)] == comp
        )
        found_slots = morder[pos[found]]
    else:
        # a group can start with zero tracked ghosts (fully local at
        # inspection); every ghost add is then a never-seen key
        found = np.zeros(comp.size, dtype=bool)
        found_slots = _EMPTY
    if found_slots.size:
        counts += np.bincount(found_slots, minlength=counts.size)
    if counts.size and counts.min() < 0:
        raise PatchAborted(
            f"adapt: negative reference count patching group "
            f"{array_name}/{gstate.indexes} -- state out of sync"
        )
    went_dead = np.flatnonzero((counts_entry > 0) & (counts == 0))
    revived = np.flatnonzero((counts_entry == 0) & (counts > 0))

    # -- translate only the *unknown* delta ------------------------------
    # Ghost adds hitting a tracked slot (live or hole) reuse the saved
    # (owner, local offset): the runtime recorded them at the last
    # inspection and conditions 1-2 guarantee they are still valid.
    # Only never-before-seen keys dereference through the translation
    # table -- one dereference_flat over that (typically tiny) set, the
    # only remote-translation traffic a patch pays.
    comp_missing = comp[~found]
    uniq_comp, inv_missing = sorted_unique_inverse(comp_missing)
    uniq_proc = uniq_comp // stride
    uniq_key = uniq_comp % stride
    n_uniq = uniq_comp.size
    need = np.bincount(uniq_proc, minlength=n)
    uniq_owner, uniq_lidx = trans_cache.translate(
        machine, ttable, stride, uniq_proc, uniq_key, costs
    )

    # -- allocate slots: reuse holes ascending, then append --------------
    old_bounds = gstate.slot_bounds
    old_sizes = np.diff(old_bounds)
    free_slots = np.flatnonzero(counts == 0)
    free_proc = slot_proc_old[free_slots]
    free_bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(free_proc, minlength=n), out=free_bounds[1:])
    frank = np.arange(free_slots.size, dtype=np.int64) - free_bounds[free_proc]
    usable = frank < need[free_proc]
    reused = free_slots[usable]
    reused_proc = free_proc[usable]
    n_reuse = np.bincount(reused_proc, minlength=n)
    n_append = need - n_reuse
    new_sizes = old_sizes + n_append
    slot_bounds_new = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_sizes, out=slot_bounds_new[1:])
    shift = slot_bounds_new[:-1] - old_bounds[:-1]

    # remap old per-slot arrays into the grown slot space
    s_new_total = int(slot_bounds_new[-1])
    newpos_of_old = np.arange(old_bounds[-1], dtype=np.int64) + shift[slot_proc_old]
    keys2 = np.full(s_new_total, -1, dtype=np.int64)
    owners2 = np.zeros(s_new_total, dtype=np.int64)
    lidx2 = np.zeros(s_new_total, dtype=np.int64)
    counts2 = np.zeros(s_new_total, dtype=np.int64)
    if newpos_of_old.size:
        keys2[newpos_of_old] = gstate.keys
        owners2[newpos_of_old] = gstate.owners
        lidx2[newpos_of_old] = gstate.lidx
        counts2[newpos_of_old] = counts

    # assign each unique new key a slot (per proc: reused asc, then appended)
    uniq_bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(need, out=uniq_bounds[1:])
    urank = np.arange(n_uniq, dtype=np.int64) - uniq_bounds[uniq_proc]
    take_reuse = urank < n_reuse[uniq_proc]
    reuse_bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_reuse, out=reuse_bounds[1:])
    reused_new = reused + shift[reused_proc]
    alloc = np.empty(n_uniq, dtype=np.int64)
    if take_reuse.any():
        tp = uniq_proc[take_reuse]
        alloc[take_reuse] = reused_new[reuse_bounds[tp] + urank[take_reuse]]
    grow = ~take_reuse
    if grow.any():
        gp = uniq_proc[grow]
        alloc[grow] = (
            slot_bounds_new[gp] + old_sizes[gp] + (urank[grow] - n_reuse[gp])
        )
    keys2[alloc] = uniq_key
    owners2[alloc] = uniq_owner
    lidx2[alloc] = uniq_lidx
    if inv_missing.size:
        counts2 += np.bincount(alloc[inv_missing], minlength=counts2.size)

    # resolved (new-space) slot per ghost add
    slot_of_ghost_add = np.empty(comp.size, dtype=np.int64)
    slot_of_ghost_add[found] = found_slots + shift[add_p[gidx[found]]]
    slot_of_ghost_add[~found] = alloc[inv_missing]

    # -- schedule patch: retire dead entries, append revived + new -------
    old_schedule = first_loc.schedule
    eq, ep, _esend, erecv = old_schedule.entries()
    entry_slot = old_bounds[ep] + erecv
    dead_mask = np.zeros(int(old_bounds[-1]), dtype=bool)
    dead_mask[went_dead] = True
    keep = ~dead_mask[entry_slot]
    sched_add_slots = np.concatenate(
        [revived + shift[slot_proc_old[revived]], alloc]
    )
    add_slot_proc = (
        np.searchsorted(slot_bounds_new, sched_add_slots, side="right") - 1
    )
    schedule_new = old_schedule.patched(
        keep,
        add_q=owners2[sched_add_slots],
        add_p=add_slot_proc,
        add_send=lidx2[sched_add_slots],
        add_recv=sched_add_slots - slot_bounds_new[add_slot_proc],
        ghost_sizes=[int(s) for s in new_sizes],
        keep_key=gstate.keys[entry_slot],
        add_key=keys2[sched_add_slots],
    )
    ghosts_new = product.patterns[member_keys[0]].ghosts.patched(
        schedule_new, costs=costs, appended=need
    )

    # -- charge the delta-proportional inspector work --------------------
    n_add_per_proc = np.bincount(add_p, minlength=n).astype(np.float64)
    n_rem_per_proc = np.bincount(rem_procs, minlength=n).astype(np.float64)
    new_per_proc = need.astype(np.float64)
    dead_per_proc = np.bincount(
        slot_proc_old[went_dead], minlength=n
    ).astype(np.float64)
    revived_per_proc = np.bincount(
        slot_proc_old[revived], minlength=n
    ).astype(np.float64)
    sched_delta_per_proc = dead_per_proc + revived_per_proc + new_per_proc
    sched_iops = (
        costs.hash_lookup * (n_add_per_proc + n_rem_per_proc)
        + costs.hash_insert * new_per_proc
        + costs.schedule_build * sched_delta_per_proc
    )
    machine.charge_compute_all(iops=sched_iops)
    # requesters tell owners which send-list entries to add/retire
    d_p = np.concatenate(
        [slot_proc_old[went_dead], slot_proc_old[revived], uniq_proc]
    )
    d_q = np.concatenate(
        [gstate.owners[went_dead], gstate.owners[revived], uniq_owner]
    )
    exch = None
    recv_iops = None
    if d_p.size:
        pcomp, pinv = sorted_unique_inverse(d_p * n + d_q)
        pcounts = np.bincount(pinv, minlength=pcomp.size)
        pp, pq = pcomp // n, pcomp % n
        cross = pp != pq
        exch = machine.plan_exchange(
            src=pp[cross], dst=pq[cross], nbytes=pcounts[cross] * costs.index_bytes
        )
        recv_iops = costs.schedule_build * np.bincount(
            d_q, minlength=n
        ).astype(np.float64)
        machine.charge_exchange(exch)
        machine.charge_compute_all(iops=recv_iops)

    # -- rebuild per-member localized reference lists --------------------
    old_to_new = inv_old[new_iter_flat]
    ghost_flat = keys2.copy()
    ghost_flat[counts2 == 0] = -1
    patterns_new: dict = {}
    partition_changed = moved.size > 0
    shared_space = None
    offset = 0
    for akey, (D, dpos) in zip(member_keys, member_D):
        pat = product.patterns[akey]
        new_loc_refs = pat.localized.refs_flat[old_to_new]
        n_d = D.size
        if n_d:
            seg = slice(offset, offset + n_d)
            p_seg = add_p[seg]
            vals = lidx_add[seg].copy()
            gm = ghost_mask[seg]
            if gm.any():
                # this member's ghost adds located inside the group-level
                # ghost-add stream (gidx is sorted add-stream positions)
                member_ghost = offset + np.flatnonzero(gm)
                slots = slot_of_ghost_add[np.searchsorted(gidx, member_ghost)]
                vals[gm] = local_sizes[p_seg[gm]] + (
                    slots - slot_bounds_new[p_seg[gm]]
                )
            new_loc_refs[dpos] = vals
        offset += n_d
        loc_new = LocalizeResult(
            local_sizes=[int(s) for s in local_sizes],
            schedule=schedule_new,
            refs_flat=new_loc_refs,
            ref_bounds=new_bounds,
            ghost_flat=ghost_flat,
            ghost_bounds=slot_bounds_new,
        )
        new_pat = PatternData(
            array=array_name, index=akey[1], localized=loc_new, ghosts=ghosts_new
        )
        # carry the executor's combined-space caches across the patch
        # (host-level; delta positions only) instead of dropping them
        carried = patch_exec_caches(
            pat,
            new_pat,
            changed_pos=dpos,
            partition_changed=partition_changed,
            space=shared_space,
        )
        if carried is not None:
            shared_space = carried
        patterns_new[akey] = new_pat

    # -- merge the delta into the persisted sorted slot index ------------
    # reused holes change key (drop their old entries), every allocated
    # slot gains one (uniq_comp is ascending and disjoint from surviving
    # comps -- a found comp is never allocated), and surviving entries
    # keep their order with slot ids shifted into the grown space
    S_old = gstate.keys.size
    pos_of_slot = np.empty(S_old, dtype=np.int64)
    pos_of_slot[morder] = np.arange(S_old, dtype=np.int64)
    live_entry = np.ones(S_old, dtype=bool)
    live_entry[pos_of_slot[reused]] = False
    kept_comp = msorted[live_entry]
    kept_slot = (morder + shift[slot_proc_old[morder]])[live_entry]
    nk = kept_comp.size
    kr = np.arange(nk, dtype=np.int64)
    ins = np.searchsorted(kept_comp, uniq_comp, side="right")
    sorted_comp2 = np.empty(nk + n_uniq, dtype=np.int64)
    sorted_slot2 = np.empty(nk + n_uniq, dtype=np.int64)
    added_pos = ins + np.arange(n_uniq, dtype=np.int64)
    kept_pos = kr + np.searchsorted(ins, kr, side="right")
    sorted_comp2[kept_pos] = kept_comp
    sorted_slot2[kept_pos] = kept_slot
    sorted_comp2[added_pos] = uniq_comp
    sorted_slot2[added_pos] = alloc

    # the updated slot space, applied by the caller once every group
    # has patched successfully (atomicity: see counts copy above)
    new_state = GroupState(
        array=gstate.array,
        indexes=gstate.indexes,
        slot_bounds=slot_bounds_new,
        keys=keys2,
        owners=owners2,
        lidx=lidx2,
        counts=counts2,
        sorted_comp=sorted_comp2,
        sorted_slot=sorted_slot2,
        index_stride=stride,
    )
    # everything a structurally identical sibling group needs to replay
    # this patch without recomputing it (see _patch_group_twin)
    pack = {
        "inds": [k[1] for k in member_keys],
        "old_gstate": gstate,
        "old_schedule": old_schedule,
        "old_refs": {
            k[1]: product.patterns[k].localized.refs_flat for k in member_keys
        },
        "local_sizes": local_sizes,
        "need": need,
        "schedule_new": schedule_new,
        "new_patterns": {k[1]: patterns_new[k] for k in member_keys},
        "new_state": new_state,
        "classify_iops": classify_iops,
        "probe_iops": costs.hash_lookup
        * np.bincount(uniq_proc, minlength=n).astype(np.float64),
        "sched_iops": sched_iops,
        "exch": exch,
        "recv_iops": recv_iops,
    }
    return patterns_new, new_state, pack


def _same(a, b) -> bool:
    """Array equality with an identity fast path.

    Twin groups share ndarray objects after their first deduplicated
    patch, so steady-state verification is ``is`` checks; full content
    compares only happen on the first patch after a capture or a
    checkpoint restore (pickling breaks sharing)."""
    return a is b or np.array_equal(a, b)


def _twin_matches(pack, product, gstate: GroupState, member_keys: list) -> bool:
    """Whether this group is byte-identical to the group ``pack`` came
    from: same indirections, same slot state, same schedule content,
    same saved localized references.  When it is, the groups perform
    identical patch work and :func:`_patch_group_twin` applies."""
    if [k[1] for k in member_keys] != pack["inds"]:
        return False
    g0 = pack["old_gstate"]
    for f in ("slot_bounds", "keys", "owners", "lidx", "counts"):
        if not _same(getattr(gstate, f), getattr(g0, f)):
            return False
    first = product.patterns[member_keys[0]].localized
    s0, s1 = pack["old_schedule"], first.schedule
    if s1 is not s0:
        if s1.ghost_sizes != s0.ghost_sizes:
            return False
        for f in ("_pair_q", "_pair_p", "_pair_len", "_flat_send", "_flat_recv"):
            if not _same(getattr(s1, f), getattr(s0, f)):
                return False
    if not np.array_equal(
        np.asarray(first.local_sizes, dtype=np.int64), pack["local_sizes"]
    ):
        return False
    for akey in member_keys:
        if not _same(
            product.patterns[akey].localized.refs_flat, pack["old_refs"][akey[1]]
        ):
            return False
    return True


def _patch_group_twin(
    machine: Machine,
    product: InspectorProduct,
    gstate: GroupState,
    member_keys: list,
    ttable: TranslationTable,
    pack: dict,
    trans_cache: KeyTranslationMemo,
    sig: tuple,
    costs: ChaosCosts,
) -> tuple[dict, GroupState]:
    """Replay a structurally identical sibling group's patch.

    One loop's pattern groups routinely differ only in the data array
    they move (``x(edge(i))`` vs ``y(edge(i))``): same distribution,
    same indirections, and -- verified by :func:`_twin_matches` -- the
    same slot state, so every host-side array the patch derives is the
    same.  The sibling shares those arrays outright (schedules are
    immutable; a :meth:`~repro.chaos.schedule.CommSchedule.twin` clone
    keeps the distinct object identity the executor's coalescing and
    ``product_groups`` key on) and rebuilds only what is genuinely
    per-group: its ghost backing (its own data values) and its simulated
    charges.  Charges are replayed in _patch_group's exact order --
    including the translation-cache probe this group would have paid in
    place of remote dereferences -- so machine numbers are identical to
    patching each group independently.
    """
    schedule_new = pack["schedule_new"].twin()
    machine.charge_compute_all(iops=pack["classify_iops"])
    if trans_cache.has_entries(sig):
        machine.charge_compute_all(iops=pack["probe_iops"])
    # an independent patch of this group would probe the translation
    # cache (all hits -- the sibling populated it) and then dereference
    # an *empty* miss set, which still pays the table's fixed
    # request/reply round; replay that too
    ttable.dereference_flat(
        _EMPTY, np.zeros(machine.n_procs + 1, dtype=np.int64)
    )
    ghosts_new = product.patterns[member_keys[0]].ghosts.patched(
        schedule_new, costs=costs, appended=pack["need"]
    )
    machine.charge_compute_all(iops=pack["sched_iops"])
    if pack["exch"] is not None:
        machine.charge_exchange(pack["exch"])
        machine.charge_compute_all(iops=pack["recv_iops"])
    patterns_new: dict = {}
    for akey in member_keys:
        prim = pack["new_patterns"][akey[1]]
        loc = prim.localized
        loc_new = LocalizeResult(
            local_sizes=loc.local_sizes,
            schedule=schedule_new,
            refs_flat=loc.refs_flat,
            ref_bounds=loc.ref_bounds,
            ghost_flat=loc.ghost_flat,
            ghost_bounds=loc.ghost_bounds,
        )
        # executor caches are value-independent (positions only), so the
        # sibling's patched holder is this group's too
        patterns_new[akey] = PatternData(
            array=gstate.array,
            index=akey[1],
            localized=loc_new,
            ghosts=ghosts_new,
            derived=prim.derived,
        )
    ns = pack["new_state"]
    new_state = GroupState(
        array=gstate.array,
        indexes=gstate.indexes,
        slot_bounds=ns.slot_bounds,
        keys=ns.keys,
        owners=ns.owners,
        lidx=ns.lidx,
        counts=ns.counts,
        sorted_comp=ns.sorted_comp,
        sorted_slot=ns.sorted_slot,
        index_stride=ns.index_stride,
    )
    return patterns_new, new_state


def patch_product(
    machine: Machine,
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    state: LoopAdaptState,
    changed: dict[str, np.ndarray],
    ttables: dict[tuple[str, tuple], TranslationTable],
    costs: ChaosCosts = DEFAULT_COSTS,
) -> InspectorProduct:
    """Patch ``product`` for the given changed indirection positions;
    returns the patched product (``product`` itself when the value
    rewrites cancelled out).

    ``changed`` maps indirection array name -> sorted positions whose
    values differ from ``state.snapshots`` (from
    :func:`~repro.adapt.diff.changed_positions`; diff charges are the
    caller's).  Preconditions (the caller -- the driver -- verifies
    them): every data/indirection DAD equals the product's, and
    ``ttables`` holds the translation table of every referenced array's
    current distribution.  Mutates ``state`` (home map, snapshots,
    group slot spaces) to describe the patched product.
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
    home_old = state.home
    old_part = product.iteration_partition
    home_new, moved = _revote(
        machine, loop, arrays, state, changed_iters, old_part.method, costs
    )
    old_iter_flat, _old_bounds = old_part.iters_flat()
    n = loop.n_iterations
    inv_old = np.empty(n, dtype=np.int64)
    inv_old[old_iter_flat] = np.arange(n, dtype=np.int64)
    if moved.size:
        new_part = partition_from_home(home_new, n_procs, old_part.method)
    else:
        new_part = old_part
    new_iter_flat, new_bounds = new_part.iters_flat()
    inv_new = np.empty(n, dtype=np.int64)
    inv_new[new_iter_flat] = np.arange(n, dtype=np.int64)

    patterns_new: dict = dict(product.patterns)
    pending_states: dict = {}
    # per patch by contract: the patch model charges a group a local
    # probe only for keys an earlier group of the *same* patch resolved,
    # so hits must never persist across patches (that would change
    # simulated numbers)
    trans_cache = KeyTranslationMemo()
    deltas = _DeltaCache(
        arrays, changed, changed_iters, moved,
        home_old, home_new, inv_old, inv_new,
    )
    group_memo: dict[tuple, dict] = {}
    for member_keys in product_groups(product):
        gkey = group_state_key(member_keys)
        gstate = state.groups[gkey]
        arr = arrays[gstate.array]
        sig = arr.distribution.signature()
        ttable = ttables[(gstate.array, sig)]
        # groups over the same indirections and distribution whose slot
        # state is byte-identical patch identically: compute once, let
        # every sibling replay the result (charges included)
        mkey = (tuple(k[1] for k in member_keys), sig)
        twin = group_memo.get(mkey)
        try:
            if twin is not None and twin.get("none"):
                # an empty delta is a function of the indirections
                # alone, so the sibling's is empty too
                out = None
            elif twin is not None and _twin_matches(
                twin, product, gstate, member_keys
            ):
                out = _patch_group_twin(
                    machine,
                    product,
                    gstate,
                    member_keys,
                    ttable,
                    twin,
                    trans_cache,
                    sig,
                    costs,
                )
            else:
                full = _patch_group(
                    machine,
                    arrays,
                    product,
                    gstate,
                    member_keys,
                    ttable,
                    deltas,
                    moved,
                    inv_old,
                    new_iter_flat,
                    new_bounds,
                    costs,
                    trans_cache,
                )
                if full is None:
                    group_memo[mkey] = {"none": True}
                    out = None
                else:
                    out = full[:2]
                    group_memo[mkey] = full[2]
        except ValueError as exc:
            # schedule/buffer assembly rejected the delta (shrunk ghost
            # region, mismatched shapes): the saved state disagrees with
            # the product -- a recoverable abort, nothing persisted yet
            raise PatchAborted(
                f"adapt: patch assembly failed for group {gkey}: {exc}"
            ) from exc
        if out is None:
            continue
        group_patterns, new_gstate = out
        patterns_new.update(group_patterns)
        pending_states[gkey] = new_gstate

    # every group patched without error: persist the new slot spaces
    for gkey, new_gstate in pending_states.items():
        state.groups[gkey] = new_gstate

    machine.barrier()

    # update snapshots at the changed positions only (owners re-copy them)
    snap_mem = np.zeros(n_procs)
    for name, pos in changed.items():
        if not pos.size:
            continue
        cur = np.asarray(arrays[name].global_view(), dtype=np.int64)
        state.snapshots[name][pos] = cur[pos]
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
