"""The merge-based schedule patcher and the wire-order schedule, kept as
the references the runtime's schedules are diffed against, and the
per-element vocabulary tests read schedules in.

A runtime schedule stores its pairs and its slot order, and reads send
offsets off its slot state's ``lidx``; :func:`entries` derives the
per-element ``(q, p, send, recv)`` arrays the old ``CommSchedule.entries``
returned, and :func:`schedule_from_flat` builds a runtime schedule from
the old constructor's flat input (pair arrays, per-element send offsets
and recv slots, ghost sizes).

The patch rung builds a patched group's ``CommSchedule`` from its
patched slot state with the one builder a cold inspection uses.
Before that it retired dead entries from the old schedule and merged
revived and never-seen ones in: ``CommSchedule.patched`` (a merge of
presorted runs that also merged the wire permutation, with a
``from_entries`` lexsort fallback for non-canonical schedules) fed by
``adapt.patch._patch_schedule``.  That code lives on here unchanged,
as free functions, so ``tests/adapt/test_slot_schedule.py`` can hold
every array of the new schedule against it.  ``build`` is the
constructor's old second entry: it derives the apply arrays from a
wire permutation in hand, so the merge path shares no derivation with
the constructor.

A :class:`WireSchedule` (``build``'s product, or :func:`wire_schedule`
from constructor input) also keeps the old data movement: it packs
owners' elements in wire order (grouped by owner, stable), and the
requesters unpack them through the inverse permutation.  The
constructor's schedule moves data in flat order with no wire order at
all, and ``tests/chaos/test_schedule_flat.py`` holds every application
bit-identical to this one, fault injection included.
"""

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import first_segment_outside
from repro.chaos.schedule import CommSchedule

#: every array a schedule keeps, and the scalars beside them
SCHEDULE_FIELDS = (
    "_pair_q",
    "_pair_p",
    "_pair_len",
    "_unpack_pos",
    "_ghost_off",
    "_pack_mem",
    "_unpack_mem",
)


def assert_schedules_equal(got, want, context=""):
    """Every kept array, :func:`entries`, ``ghost_sizes`` and the
    signature of ``got`` equal ``want``'s, dtype included."""
    for f in SCHEDULE_FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype, (context, f)
        np.testing.assert_array_equal(a, b, err_msg=f"{context} {f}")
    for a, b in zip(entries(got), entries(want)):
        np.testing.assert_array_equal(a, b, err_msg=f"{context} entries")
    assert got._n_elements == want._n_elements, context
    assert got.ghost_sizes == want.ghost_sizes, context
    assert got.dist_signature == want.dist_signature, context


def entries(sched):
    """Per-element ``(q, p, send, recv)`` arrays of ``sched`` in flat
    (pair) order: the owner and requester of each element's pair, its
    send offset (a runtime schedule's slot state ``lidx`` at its slot; a
    :class:`WireSchedule` keeps its own) and its recv slot within the
    requester's ghost region."""
    q, p = (np.repeat(a, sched._pair_len) for a in (sched._pair_q, sched._pair_p))
    if isinstance(sched, WireSchedule):
        send = sched._flat_send
    else:
        send = sched._lidx[sched._unpack_pos]
    return q, p, send, sched._unpack_pos - sched._ghost_off[p]


def ghost_flat(loc):
    """The ghost key per slot of a localized result with the holes (slots
    its schedule does not fetch) set to -1, as a ``LocalizeResult`` held
    it before it held its slot state."""
    keys = np.full(loc.slots.keys.size, -1, dtype=np.int64)
    live = loc.schedule._unpack_pos
    keys[live] = loc.slots.keys[live]
    return keys


def schedule_from_flat(
    machine, dist_signature, pair_q, pair_p, pair_len, flat_send, flat_recv, ghost_sizes
) -> CommSchedule:
    """The runtime schedule of the old constructor's flat input: the
    ghost regions ``ghost_sizes`` back to back are the slot space, each
    element's slot is ``slot_bounds[p] + recv``, and each slot's ``lidx``
    the send offset its elements name -- one per slot, as in a layout."""
    pair_p, pair_len, flat_send, flat_recv = (
        np.asarray(a, dtype=np.int64) for a in (pair_p, pair_len, flat_send, flat_recv)
    )
    slot_bounds = np.concatenate(([0], np.cumsum(ghost_sizes, dtype=np.int64)))
    order = slot_bounds[np.repeat(pair_p, pair_len)] + flat_recv
    lidx = np.zeros(int(slot_bounds[-1]), dtype=np.int64)
    lidx[order] = flat_send
    assert np.array_equal(lidx[order], flat_send), "a slot's elements name two send offsets"
    return CommSchedule(machine, dist_signature, pair_q, pair_p, pair_len, order, lidx, slot_bounds)


def wire_perm_of(flat_q):
    """Wire position -> flat position: elements grouped by owner, stable."""
    return np.argsort(flat_q, kind="stable")


class WireSchedule(CommSchedule):
    """A schedule that moves data the old way, through wire order.

    Its apply arrays come from :func:`build`: ``_pack_idx`` /
    ``_pack_owner_rep`` are the send offsets and owners in wire order,
    ``_unpack_src`` is the wire position feeding each flat position and
    ``_ghost_pos_wire`` the ghost backing position feeding each wire
    position on the way back.  Checks and charges are the
    constructor's."""

    def _pack_positions(self, arr):
        if self._pack_pos is None:
            off = arr.distribution.flat_offsets()
            # wire order is owner-grouped: owner q's offsets are one segment
            bounds = np.searchsorted(self._pack_owner_rep, np.arange(self.n_procs + 1))
            sizes = np.diff(off)
            q = first_segment_outside(self._pack_idx, bounds, sizes)
            if q is not None:
                seg = self._pack_idx[bounds[q] : bounds[q + 1]]
                w = int(bounds[q]) + int(np.argmax((seg < 0) | (seg >= sizes[q])))
                pair_ends = np.cumsum(self._pair_len)
                k = int(np.searchsorted(pair_ends, self._wire_perm[w], side="right"))
                raise ValueError(
                    f"pair ({q}, {int(self._pair_p[k])}): send offset "
                    f"{int(self._pack_idx[w])} out of range [0, {int(sizes[q])})"
                )
            self._pack_pos = off[self._pack_owner_rep] + self._pack_idx
        return self._pack_pos

    def _move_gather(self, arr, ghosts):
        wire = arr.backing_ro[self._pack_positions(arr)]
        keep = None
        if self.machine.faults is not None:
            wire, keep = self.machine.faults.on_gather_wire(wire)
        backing = self._resolve_ghosts(ghosts)
        if keep is None:
            backing[self._unpack_pos] = wire[self._unpack_src]
        else:
            values = wire[self._unpack_src]
            values[~keep[self._unpack_src]] = 0
            backing[self._unpack_pos] = values

    def _move_reverse(self, ghosts, arr, op):
        wire = self._resolve_ghosts(ghosts)[self._ghost_pos_wire].astype(arr.dtype, copy=False)
        pos = self._pack_positions(arr)
        data = arr.backing_mut()
        if op is None:
            data[pos] = wire
        else:
            op.at(data, pos, wire)


def wire_schedule(
    machine, dist_signature, pair_q, pair_p, pair_len, flat_send, flat_recv, ghost_sizes
) -> WireSchedule:
    """A :class:`WireSchedule` from the constructor's input (any pair
    order; empty pairs dropped as the constructor drops them)."""
    pair_q, pair_p, pair_len, flat_send, flat_recv = (
        np.asarray(a, dtype=np.int64) for a in (pair_q, pair_p, pair_len, flat_send, flat_recv)
    )
    live = pair_len > 0
    pairs = (pair_q[live], pair_p[live], pair_len[live])
    flat_q = np.repeat(pairs[0], pairs[2])
    flat_p = np.repeat(pairs[1], pairs[2])
    new = WireSchedule.__new__(WireSchedule)
    build(
        new, machine, dist_signature, pairs, flat_q, flat_p, flat_send, flat_recv,
        wire_perm_of(flat_q), ghost_sizes,
    )
    return new


def _pair_runs(flat_q, flat_p, n):
    """``(pair_q, pair_p, pair_len)`` of the runs of equal ``(p, q)`` in
    per-element arrays grouped requester-major / owner-minor."""
    pair_id = flat_p * n + flat_q
    if pair_id.size:
        seg_starts = np.concatenate(([0], np.flatnonzero(np.diff(pair_id)) + 1))
    else:
        seg_starts = np.empty(0, dtype=np.int64)
    return (
        flat_q[seg_starts],
        flat_p[seg_starts],
        np.diff(np.append(seg_starts, pair_id.size)),
    )


def build(
    self,
    machine,
    dist_signature,
    pairs,
    flat_q,
    flat_p,
    flat_send,
    flat_recv,
    wire_perm,
    ghost_sizes,
) -> None:
    """Derive every apply array from per-element flat input.

    ``pairs`` is the live ``(pair_q, pair_p, pair_len)`` triple and
    ``flat_q``/``flat_p`` its per-element expansion; ``wire_perm``
    maps wire position -> flat position (elements grouped by owner,
    stable).
    """
    n = machine.n_procs
    if len(ghost_sizes) != n:
        raise ValueError(f"expected {n} ghost sizes, got {len(ghost_sizes)}")
    self.machine = machine
    self.dist_signature = dist_signature
    self.ghost_sizes = [int(s) for s in ghost_sizes]
    self._pair_q, self._pair_p, self._pair_len = pairs
    self._flat_send = flat_send
    self._flat_recv = flat_recv
    ghost_sz = np.asarray(self.ghost_sizes, dtype=np.int64)
    pair_bounds = np.concatenate(([0], np.cumsum(self._pair_len)))
    i = first_segment_outside(flat_recv, pair_bounds, ghost_sz[self._pair_p])
    if i is not None:
        raise ValueError(
            f"pair ({int(self._pair_q[i])}, {int(self._pair_p[i])}): recv slot "
            f"out of range [0, {int(ghost_sz[self._pair_p[i]])})"
        )
    E = flat_q.size
    self._n_elements = E
    self._wire_perm = wire_perm

    self._pack_idx = flat_send[wire_perm]
    self._pack_owner_rep = flat_q[wire_perm]
    self._pack_pos = None

    self._ghost_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ghost_sz, out=self._ghost_off[1:])
    self._unpack_pos = self._ghost_off[flat_p] + flat_recv
    self._unpack_src = np.empty(E, dtype=np.int64)
    self._unpack_src[wire_perm] = np.arange(E, dtype=np.int64)
    self._ghost_pos_wire = self._unpack_pos[wire_perm]

    per_pair_mem = DEFAULT_COSTS.pack_unpack_mem * self._pair_len
    self._pack_mem = np.zeros(n)
    self._unpack_mem = np.zeros(n)
    np.add.at(self._pack_mem, self._pair_q, per_pair_mem)
    np.add.at(self._unpack_mem, self._pair_p, per_pair_mem)
    self._exchange_charges = {}
    self._combine_flops = {}


def from_entries(
    machine,
    dist_signature,
    entry_q,
    entry_p,
    entry_send,
    entry_recv,
    ghost_sizes,
    order_key=None,
) -> CommSchedule:
    """Construct from *per-element* entries in arbitrary order.

    Entries are grouped into pairs requester-major / owner-minor (the
    order ``localize`` produces), with elements inside a pair ordered by
    ``order_key`` (ascending; ghost global indices give a fresh
    inspection's slot-sorted wire order; ghost slots are the default).
    """
    entry_q = np.asarray(entry_q, dtype=np.int64)
    entry_p = np.asarray(entry_p, dtype=np.int64)
    entry_send = np.asarray(entry_send, dtype=np.int64)
    entry_recv = np.asarray(entry_recv, dtype=np.int64)
    if order_key is None:
        order_key = entry_recv
    perm = np.lexsort((np.asarray(order_key), entry_q, entry_p))
    return schedule_from_flat(
        machine,
        dist_signature,
        *_pair_runs(entry_q[perm], entry_p[perm], machine.n_procs),
        entry_send[perm],
        entry_recv[perm],
        ghost_sizes,
    )


def patched(
    self,
    keep,
    add_q,
    add_p,
    add_send,
    add_recv,
    ghost_sizes,
    keep_key=None,
    add_key=None,
) -> CommSchedule:
    """Retire + append: a new schedule reusing ``self``'s entries.

    ``keep`` masks the per-element entries (retired entries are
    dropped); ``add_*`` append new entries; ``ghost_sizes`` is the new
    per-processor slot-space size.  ``keep_key``/``add_key`` order
    elements within each pair (ghost slots are the default).  A
    canonically ordered schedule is merged (:func:`patched_merge`);
    anything else goes through :func:`from_entries`.
    """
    add_q = np.asarray(add_q, dtype=np.int64)
    add_p = np.asarray(add_p, dtype=np.int64)
    add_send = np.asarray(add_send, dtype=np.int64)
    add_recv = np.asarray(add_recv, dtype=np.int64)
    d = add_q.shape[0] if add_q.ndim else -1
    if add_key is not None:
        add_key = np.asarray(add_key, dtype=np.int64)
    sizes = {
        "add_q": add_q.shape,
        "add_p": add_p.shape,
        "add_send": add_send.shape,
        "add_recv": add_recv.shape,
    }
    if add_key is not None:
        sizes["add_key"] = add_key.shape
    if any(s != (d,) for s in sizes.values()):
        detail = ", ".join(f"{k}={v}" for k, v in sizes.items())
        raise ValueError(
            f"patched() add arrays must be 1-D and the same length; got {detail}"
        )
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (self._n_elements,):
        raise ValueError(
            f"keep mask has shape {keep.shape}, schedule has "
            f"{self._n_elements} entries"
        )
    if keep_key is not None:
        keep_key = np.asarray(keep_key, dtype=np.int64)
        if keep_key.shape != (self._n_elements,):
            raise ValueError(
                f"keep_key has shape {keep_key.shape}, schedule has "
                f"{self._n_elements} entries"
            )
    else:
        keep_key = entries(self)[3]
    if add_key is None:
        add_key = add_recv
    fast = patched_merge(
        self, keep, add_q, add_p, add_send, add_recv, ghost_sizes, keep_key, add_key
    )
    if fast is not None:
        return fast
    q, p, send, recv = entries(self)
    return from_entries(
        self.machine,
        self.dist_signature,
        np.concatenate([q[keep], add_q]),
        np.concatenate([p[keep], add_p]),
        np.concatenate([send[keep], add_send]),
        np.concatenate([recv[keep], add_recv]),
        ghost_sizes,
        order_key=np.concatenate([keep_key[keep], add_key]),
    )


def patched_merge(
    self, keep, add_q, add_p, add_send, add_recv, ghost_sizes, keep_key, add_key
):
    """Merge-of-presorted-runs path of :func:`patched`.

    Returns ``None`` when ``self`` is not canonically ordered (or
    composite keys would overflow int64).  Otherwise the kept entries
    are a sorted run in both flat order ``(p, q, key)`` and wire order
    ``(q, p, key)``; the added entries are sorted (delta-sized) and
    merged in with ``searchsorted``, wire permutation included.
    """
    n = self.machine.n_procs
    E = self._n_elements
    kmax = -1
    if E:
        kmax = int(keep_key.max())
    if add_key.size:
        kmax = max(kmax, int(add_key.max()))
    K = kmax + 1
    if K <= 0 or (E and int(keep_key.min()) < 0) or (
        add_key.size and int(add_key.min()) < 0
    ):
        return None
    if n * n >= (2**63 - 1) // max(K, 1):
        return None  # pragma: no cover - composite key would overflow
    flat_q, flat_p, flat_send, flat_recv = entries(self)
    comp_flat = (flat_p * n + flat_q) * K + keep_key
    if E and (np.diff(comp_flat) < 0).any():
        return None
    W = wire_perm_of(flat_q)
    comp_wire = (flat_q * n + flat_p) * K + keep_key
    compW = comp_wire[W]
    if E and (np.diff(compW) < 0).any():
        return None

    kept_idx = np.flatnonzero(keep)
    Sk = kept_idx.size
    d = add_q.size
    ar = np.arange(d, dtype=np.int64)
    kr = np.arange(Sk, dtype=np.int64)

    # flat-order merge: added entries sorted by (p, q, key), inserted
    # after equal kept entries ('right' = lexsort stability, since the
    # slow path concatenates kept before added)
    add_comp = (add_p * n + add_q) * K + add_key
    aperm = np.argsort(add_comp, kind="stable")
    ins = np.searchsorted(comp_flat[kept_idx], add_comp[aperm], side="right")
    add_newpos = ins + ar
    # a kept entry moves up by the adds inserted at or before it
    kept_newpos = kr + np.cumsum(np.bincount(ins, minlength=Sk + 1))[:Sk]

    E2 = Sk + d
    merged = []
    for old, add in zip(
        (flat_q, flat_p, flat_send, flat_recv), (add_q, add_p, add_send, add_recv)
    ):
        new = np.empty(E2, dtype=np.int64)
        new[kept_newpos] = old[kept_idx]
        new[add_newpos] = add[aperm]
        merged.append(new)
    flat_q2, flat_p2, send2, recv2 = merged

    # wire-order merge: same game sorted by (q, p, key); the kept
    # run is the old wire order with retired entries masked out
    keepW = keep[W]
    kw_flat = W[keepW]  # old flat index of each kept entry, wire order
    add_wcomp = (add_q * n + add_p) * K + add_key
    awperm = np.argsort(add_wcomp, kind="stable")
    insw = np.searchsorted(compW[keepW], add_wcomp[awperm], side="right")
    add_wpos = insw + ar
    kept_wpos = kr + np.cumsum(np.bincount(insw, minlength=Sk + 1))[:Sk]
    # new flat position of every element, addressed by wire position
    rank = np.empty(E, dtype=np.int64)
    rank[kept_idx] = kept_newpos
    wire_perm = np.empty(E2, dtype=np.int64)
    wire_perm[kept_wpos] = rank[kw_flat]
    inv_aperm = np.empty(d, dtype=np.int64)
    inv_aperm[aperm] = ar
    wire_perm[add_wpos] = add_newpos[inv_aperm[awperm]]

    new = WireSchedule.__new__(WireSchedule)
    build(
        new,
        self.machine,
        self.dist_signature,
        _pair_runs(flat_q2, flat_p2, n),
        flat_q2,
        flat_p2,
        send2,
        recv2,
        wire_perm,
        ghost_sizes,
    )
    return new


def patch_schedule(layout, old_schedule, slots, alloc) -> CommSchedule:
    """The patch rung's old schedule stage over the old ``layout``:
    retire dead entries, append revived + new ones (pairs
    requester-major / owner-minor, elements key-sorted, a fresh
    ``localize``'s wire order)."""
    old_bounds = layout.slot_bounds
    _eq, ep, _esend, erecv = entries(old_schedule)
    entry_slot = old_bounds[ep] + erecv
    dead_mask = np.zeros(int(old_bounds[-1]), dtype=bool)
    dead_mask[slots.went_dead] = True
    add_slots = np.concatenate([alloc.newpos[slots.revived], alloc.alloc])
    new = alloc.layout
    add_proc = np.searchsorted(new.slot_bounds, add_slots, side="right") - 1
    return patched(
        old_schedule,
        ~dead_mask[entry_slot],
        add_q=new.owners[add_slots],
        add_p=add_proc,
        add_send=new.lidx[add_slots],
        add_recv=add_slots - new.slot_bounds[add_proc],
        ghost_sizes=[int(s) for s in np.diff(new.slot_bounds)],
        keep_key=layout.keys[entry_slot],
        add_key=new.keys[add_slots],
    )
