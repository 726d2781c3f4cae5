"""The merge-based schedule patcher, kept as the reference the patch
rung's schedule is diffed against.

The patch rung builds a patched group's ``CommSchedule`` from its
patched slot state with the one constructor a cold inspection uses.
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
"""

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import first_segment_outside
from repro.chaos.schedule import CommSchedule

#: every array a schedule derives, and the scalars beside them
SCHEDULE_FIELDS = (
    "_pair_q",
    "_pair_p",
    "_pair_len",
    "_flat_send",
    "_flat_recv",
    "_wire_perm",
    "_pack_idx",
    "_pack_owner_rep",
    "_unpack_pos",
    "_unpack_src",
    "_ghost_pos_wire",
    "_ghost_off",
    "_pack_mem",
    "_unpack_mem",
)


def assert_schedules_equal(got, want, context=""):
    """Every derived array, ``entries()``, ``ghost_sizes`` and the
    signature of ``got`` equal ``want``'s, dtype included."""
    for f in SCHEDULE_FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype, (context, f)
        np.testing.assert_array_equal(a, b, err_msg=f"{context} {f}")
    for a, b in zip(got.entries(), want.entries()):
        np.testing.assert_array_equal(a, b, err_msg=f"{context} entries")
    assert got._n_elements == want._n_elements, context
    assert got.ghost_sizes == want.ghost_sizes, context
    assert got.dist_signature == want.dist_signature, context


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
    self._entries = (flat_q, flat_p, flat_send[:], flat_recv[:])
    for a in self._entries:
        a.flags.writeable = False

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
    return CommSchedule(
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
        keep_key = self._flat_recv
    if add_key is None:
        add_key = add_recv
    fast = patched_merge(
        self, keep, add_q, add_p, add_send, add_recv, ghost_sizes, keep_key, add_key
    )
    if fast is not None:
        return fast
    q, p, send, recv = self.entries()
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
    flat_q, flat_p = self._entries[:2]
    comp_flat = (flat_p * n + flat_q) * K + keep_key
    if E and (np.diff(comp_flat) < 0).any():
        return None
    W = self._wire_perm
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
    for old, add in zip(self._entries, (add_q, add_p, add_send, add_recv)):
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

    new = CommSchedule.__new__(CommSchedule)
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


def patch_schedule(gstate, old_schedule, slots, alloc) -> CommSchedule:
    """The patch rung's old schedule stage: retire dead entries, append
    revived + new ones (pairs requester-major / owner-minor, elements
    key-sorted, a fresh ``localize``'s wire order)."""
    old_bounds = gstate.slot_bounds
    _eq, ep, _esend, erecv = old_schedule.entries()
    entry_slot = old_bounds[ep] + erecv
    dead_mask = np.zeros(int(old_bounds[-1]), dtype=bool)
    dead_mask[slots.went_dead] = True
    add_slots = np.concatenate([alloc.newpos[slots.revived], alloc.alloc])
    add_proc = np.searchsorted(alloc.slot_bounds, add_slots, side="right") - 1
    return patched(
        old_schedule,
        ~dead_mask[entry_slot],
        add_q=alloc.owners[add_slots],
        add_p=add_proc,
        add_send=alloc.lidx[add_slots],
        add_recv=add_slots - alloc.slot_bounds[add_proc],
        ghost_sizes=[int(s) for s in np.diff(alloc.slot_bounds)],
        keep_key=gstate.keys[entry_slot],
        add_key=alloc.keys[add_slots],
    )
