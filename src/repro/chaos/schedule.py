"""Communication schedules: the central PARTI/CHAOS data structure.

A :class:`CommSchedule` records, for one access pattern against one
distribution, everything needed to move off-processor data:

* per communicating pair ``(q, p)``, the local offsets on owner ``q`` of
  the elements requester ``p`` needs (what ``q`` packs and sends to
  ``p``), and
* the ghost-buffer slots on ``p`` where those elements land, in wire
  order.

The same schedule drives data in both directions: ``gather`` prefetches
off-processor data into ghost buffers before an executor runs (reads),
and ``scatter``/``scatter_op`` pushes ghost-buffer contributions back to
the owners afterwards (writes / reductions) -- PARTI's
``gather_exchange`` / ``scatter_op`` pair.

Layout
------
Storage is flat (CSR) and there is no other form.  The constructor takes
one ``(owner, requester, length)`` triple per pair plus every pair's
send offsets and recv slots concatenated in pair order; *flat order* is
that per-element order.  One builder derives the apply arrays from it:
``wire_perm`` (wire position -> flat position) groups elements by owner
``q``, stable, so each owner's wire segment stays in pair order;
``_pack_idx``/``_pack_owner_rep`` are the send offsets and owners in
wire order, and ``_unpack_pos`` resolves every recv slot to its *ghost
backing position* ``ghost_offset[p] + slot`` in a flat CSR ghost backing
(``GhostBuffers`` stores every processor's buffer in one array).  Both
sides of an application are then single fancy-indexes: the array side
over the ``DistArray``'s flat backing storage (pack, scatter store, or
one ``ufunc.at`` for reductions), the ghost side over the ghost backing.
Ghost positions of different requesters never collide, so storing in
flat order fixes each duplicated slot's last writer exactly as a loop
over pairs in insertion order would; pack positions are grouped by owner
ascending, so floating-point accumulation order matches that loop too.

A schedule is *bound to a distribution signature*: applying it to an
array whose distribution has changed since inspection is a hard error
(this is exactly the staleness the paper's reuse check prevents, so the
runtime enforces it defensively too).

Invariant contract
------------------
Machine-checked by :func:`repro.guard.invariants.verify_schedule` (and
the product-level checkers that cross-reference the localized ghost
keys and adapt slot bookkeeping):

* ``_ghost_off`` is the exclusive prefix sum of ``ghost_sizes``;
  ``_pair_len`` entries are strictly positive (live pairs only) and sum
  to ``_flat_send``/``_flat_recv``'s length;
* every pair id is in ``[0, n_procs)``; canonically built schedules
  (``localize``, ``from_entries``, ``patched``) keep pairs
  requester-major / owner-minor, and within a pair elements are sorted
  by ghost global index (key-sorted wire order);
* every recv slot is in range for its requester's ghost region, and no
  ghost backing position is unpacked twice in one gather;
* after incremental patching, schedule entries target only *live* ghost
  slots: occupancy over the slot space must equal ``counts > 0`` of the
  saved adapt state (retired slots are holes no entry touches), and
  each entry's ``(owner, send offset, ghost key)`` must agree with the
  saved per-slot map.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import first_segment_outside, stable_order
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine, get_or_plan


def _pair_runs(
    flat_q: np.ndarray, flat_p: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


class CommSchedule:
    """Schedule for gathering/scattering one access pattern's ghost data."""

    def __init__(
        self,
        machine: Machine,
        dist_signature: tuple,
        pair_q: np.ndarray,
        pair_p: np.ndarray,
        pair_len: np.ndarray,
        flat_send: np.ndarray,
        flat_recv: np.ndarray,
        ghost_sizes: list[int],
    ):
        """Construct from flat pair-grouped arrays.

        ``pair_q``/``pair_p``/``pair_len`` describe the communicating
        pairs (owner, requester, element count) in insertion order;
        ``flat_send``/``flat_recv`` concatenate each pair's local
        offsets / ghost slots in that order.  Raises ``ValueError`` for
        a processor id outside ``[0, n_procs)``, for lengths that are
        negative or do not add up, and for a recv slot outside its
        requester's ghost region.
        """
        n = machine.n_procs
        pair_q = np.asarray(pair_q, dtype=np.int64)
        pair_p = np.asarray(pair_p, dtype=np.int64)
        pair_len = np.asarray(pair_len, dtype=np.int64)
        flat_send = np.asarray(flat_send, dtype=np.int64)
        flat_recv = np.asarray(flat_recv, dtype=np.int64)
        if not (pair_q.shape == pair_p.shape == pair_len.shape == (pair_q.size,)):
            raise ValueError(
                "pair_q, pair_p and pair_len must be 1-D and the same length; got "
                f"{pair_q.shape}, {pair_p.shape}, {pair_len.shape}"
            )
        bad = (pair_q < 0) | (pair_q >= n) | (pair_p < 0) | (pair_p >= n)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"processor pair ({int(pair_q[i])}, {int(pair_p[i])}) out of "
                f"range [0, {n})"
            )
        if (pair_len < 0).any():
            raise ValueError(f"negative pair length {int(pair_len.min())}")
        total = int(pair_len.sum())
        if flat_send.shape != (total,) or flat_recv.shape != (total,):
            raise ValueError(
                f"pair lengths sum to {total} but there are {flat_send.shape} "
                f"send offsets and {flat_recv.shape} recv slots"
            )
        # empty pairs contribute no elements (the flat arrays need no
        # filtering) and no message
        live = pair_len > 0
        if not live.all():
            pair_q, pair_p, pair_len = pair_q[live], pair_p[live], pair_len[live]
        flat_q = np.repeat(pair_q, pair_len)
        self._build(
            machine,
            dist_signature,
            (pair_q, pair_p, pair_len),
            flat_q,
            np.repeat(pair_p, pair_len),
            flat_send,
            flat_recv,
            # wire order groups elements by owner q, stable within
            stable_order(flat_q, n),
            ghost_sizes,
        )

    @classmethod
    def from_entries(
        cls,
        machine: Machine,
        dist_signature: tuple,
        entry_q: np.ndarray,
        entry_p: np.ndarray,
        entry_send: np.ndarray,
        entry_recv: np.ndarray,
        ghost_sizes: list[int],
        order_key: np.ndarray | None = None,
    ) -> "CommSchedule":
        """Construct from *per-element* entries in arbitrary order.

        Each element ``i`` describes one moved ghost: owner ``entry_q[i]``
        packs its local offset ``entry_send[i]`` for requester
        ``entry_p[i]``, landing in ghost slot ``entry_recv[i]``.  Entries
        are grouped into pairs requester-major / owner-minor (the order
        ``localize`` produces), with elements inside a pair ordered by
        ``order_key`` (ascending; pass the ghost *global index* to match
        a fresh inspection's slot-sorted wire order exactly).  This is
        the assembly primitive the incremental-inspection subsystem uses
        after retiring/appending entries.
        """
        entry_q = np.asarray(entry_q, dtype=np.int64)
        entry_p = np.asarray(entry_p, dtype=np.int64)
        entry_send = np.asarray(entry_send, dtype=np.int64)
        entry_recv = np.asarray(entry_recv, dtype=np.int64)
        if order_key is None:
            order_key = entry_recv
        perm = np.lexsort((np.asarray(order_key), entry_q, entry_p))
        return cls(
            machine,
            dist_signature,
            *_pair_runs(entry_q[perm], entry_p[perm], machine.n_procs),
            entry_send[perm],
            entry_recv[perm],
            ghost_sizes,
        )

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-element ``(q, p, send, recv)`` arrays in flat (pair) order.

        The inverse of :meth:`from_entries`: every moved ghost element as
        one row, owners/requesters repeated per pair.  The one tuple is
        derived when the schedule is built and shared by :meth:`twin`;
        all four arrays are non-writeable: ``send``/``recv`` are views of
        the internal flat arrays (writing through them would silently
        corrupt the schedule, so NumPy raises instead), and the repeated
        ``q``/``p`` arrays are locked because every caller shares them.
        """
        return self._entries

    def twin(self) -> "CommSchedule":
        """A distinct schedule object sharing every internal array.

        Schedules are immutable after construction, so two pattern
        groups whose communication structure is provably identical (same
        distribution, same indirection values -- e.g. ``x(edge(i))`` and
        ``y(edge(i))`` after one incremental patch) can share the flat
        arrays while keeping separate identities.  Identity matters:
        the executor coalesces gathers and groups scatter staging by
        schedule object, and ``product_groups`` delimits pattern groups
        the same way -- a *shared* object would fuse two groups that
        move different data.
        """
        new = CommSchedule.__new__(CommSchedule)
        new.__dict__.update(self.__dict__)
        return new

    def patched(
        self,
        keep: np.ndarray,
        add_q: np.ndarray,
        add_p: np.ndarray,
        add_send: np.ndarray,
        add_recv: np.ndarray,
        ghost_sizes: list[int],
        keep_key: np.ndarray | None = None,
        add_key: np.ndarray | None = None,
    ) -> "CommSchedule":
        """Retire + append: a new schedule reusing this one's entries.

        ``keep`` masks this schedule's per-element entries (retired
        entries are dropped); ``add_*`` append new entries.  Ghost slots
        referenced by kept entries are expected to be unchanged -- the
        CSR ghost regions may only *grow* (``ghost_sizes`` is the new
        per-processor slot-space size; pass the old sizes when nothing
        was appended).  ``keep_key``/``add_key`` order elements within
        each pair (ghost global indices give fresh-inspection wire
        order); ghost slots are the default.

        When this schedule is canonically ordered (pairs requester-major
        / owner-minor, elements key-sorted within a pair -- what
        ``localize``, ``from_entries`` and ``patched`` itself produce),
        the new schedule is assembled by *merging* the kept entries (a
        pre-sorted run) with the sorted added entries: delta-sized sort
        work instead of a full-entry-set ``lexsort`` round trip, with
        flat arrays bit-identical to the slow path's.  Non-canonical
        schedules fall back to ``from_entries``.
        """
        add_q = np.asarray(add_q, dtype=np.int64)
        add_p = np.asarray(add_p, dtype=np.int64)
        add_send = np.asarray(add_send, dtype=np.int64)
        add_recv = np.asarray(add_recv, dtype=np.int64)
        d = add_q.shape[0] if add_q.ndim else -1
        if add_key is not None:
            add_key = np.asarray(add_key, dtype=np.int64)
        # cross-check every add_* length before building any state: a
        # mismatched caller must fail loudly, not corrupt silently
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
        fast = self._patched_merge(
            keep, add_q, add_p, add_send, add_recv, ghost_sizes, keep_key, add_key
        )
        if fast is not None:
            return fast
        q, p, send, recv = self.entries()
        return CommSchedule.from_entries(
            self.machine,
            self.dist_signature,
            np.concatenate([q[keep], add_q]),
            np.concatenate([p[keep], add_p]),
            np.concatenate([send[keep], add_send]),
            np.concatenate([recv[keep], add_recv]),
            ghost_sizes,
            order_key=np.concatenate([keep_key[keep], add_key]),
        )

    def _patched_merge(
        self,
        keep: np.ndarray,
        add_q: np.ndarray,
        add_p: np.ndarray,
        add_send: np.ndarray,
        add_recv: np.ndarray,
        ghost_sizes: list[int],
        keep_key: np.ndarray,
        add_key: np.ndarray,
    ) -> "CommSchedule | None":
        """Merge-of-presorted-runs fast path for :meth:`patched`.

        Returns ``None`` when this schedule is not canonically ordered
        (or composite keys would overflow int64) -- the caller then takes
        the ``from_entries`` lexsort path.  Otherwise the kept entries
        are a sorted run in both flat order ``(p, q, key)`` and wire
        order ``(q, p, key)``; the added entries are sorted (delta-sized)
        and merged in with ``searchsorted``, and every derived array is
        built directly -- no O(E log E) work, bit-identical results.
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

        # the merged arrays are canonically ordered and wire_perm is
        # already in hand: no argsort
        new = CommSchedule.__new__(CommSchedule)
        new._build(
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

    def _build(
        self,
        machine: Machine,
        dist_signature: tuple,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        flat_q: np.ndarray,
        flat_p: np.ndarray,
        flat_send: np.ndarray,
        flat_recv: np.ndarray,
        wire_perm: np.ndarray,
        ghost_sizes: list[int],
    ) -> None:
        """Derive every apply array from per-element flat input.

        ``pairs`` is the live ``(pair_q, pair_p, pair_len)`` triple and
        ``flat_q``/``flat_p`` its per-element expansion; ``wire_perm``
        maps wire position -> flat position (elements grouped by owner,
        stable).  The constructor computes ``wire_perm`` with one
        argsort; ``patched`` merges it from the old schedule's.
        """
        n = machine.n_procs
        if len(ghost_sizes) != n:
            raise ValueError(f"expected {n} ghost sizes, got {len(ghost_sizes)}")
        self.machine = machine
        self.dist_signature = dist_signature
        self.ghost_sizes = [int(s) for s in ghost_sizes]
        #: per-message arrays in pair insertion order (nonempty pairs only)
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

        # pack side, wire order: send offsets and owner of each packed
        # element; flat backing positions are resolved lazily against
        # the bound distribution
        self._pack_idx = flat_send[wire_perm]
        self._pack_owner_rep = flat_q[wire_perm]
        self._pack_pos: np.ndarray | None = None

        # unpack side, flat order: slot s of requester p lives at ghost
        # backing position ghost_off[p] + s (GhostBuffers layout), fed
        # by wire position _unpack_src
        self._ghost_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(ghost_sz, out=self._ghost_off[1:])
        self._unpack_pos = self._ghost_off[flat_p] + flat_recv
        self._unpack_src = np.empty(E, dtype=np.int64)
        self._unpack_src[wire_perm] = np.arange(E, dtype=np.int64)
        # reverse path, wire order: every wire position is fed by exactly
        # one ghost backing position, so packing ghosts is one gather
        self._ghost_pos_wire = self._unpack_pos[wire_perm]

        # per-processor pack/unpack memory charges, accumulated in pair
        # order like a loop over pairs would
        per_pair_mem = DEFAULT_COSTS.pack_unpack_mem * self._pair_len
        self._pack_mem = np.zeros(n)
        self._unpack_mem = np.zeros(n)
        np.add.at(self._pack_mem, self._pair_q, per_pair_mem)
        np.add.at(self._unpack_mem, self._pair_p, per_pair_mem)
        # the other per-application charges depend on a call argument,
        # so they are planned on first use: ``(reverse, itemsize)`` ->
        # the direction's ExchangeCharge, ``flops_per_element`` -> the
        # owners' combine flops.  twin() shares both dicts; neither is
        # ever written to a checkpoint.
        self._exchange_charges: dict = {}
        self._combine_flops: dict = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_procs(self) -> int:
        return self.machine.n_procs

    def message_count(self) -> int:
        """Number of non-empty point-to-point messages per gather."""
        return int((self._pair_q != self._pair_p).sum())

    def element_count(self) -> int:
        """Total off-processor elements moved per gather."""
        return int(self._pair_len[self._pair_q != self._pair_p].sum())

    def ghost_total(self) -> int:
        return sum(self.ghost_sizes)

    def _check_array(self, arr: DistArray) -> None:
        if arr.distribution.signature() != self.dist_signature:
            raise ValueError(
                f"schedule is stale: built for distribution signature "
                f"{self.dist_signature}, array {arr.name!r} now has "
                f"{arr.distribution.signature()}"
            )
        if arr.machine is not self.machine:
            raise ValueError("schedule and array live on different machines")

    def _resolve_ghosts(self, ghosts) -> np.ndarray:
        """The flat CSR backing of ``ghosts``, checked against this layout.

        Accepts a :class:`~repro.chaos.buffers.GhostBuffers`-style object
        (``backing`` + ``offsets`` attributes) or a flat 1-D array laid
        out like one (``ghost_offset[p] + slot``); anything else is a
        ``TypeError``.
        """
        backing = getattr(ghosts, "backing", None)
        if backing is not None:
            offsets = getattr(ghosts, "offsets", None)
            if offsets is None or not np.array_equal(offsets, self._ghost_off):
                raise ValueError(
                    "ghost buffers laid out for a different schedule: "
                    f"offsets {offsets!r} != {self._ghost_off!r}"
                )
            return backing
        if not isinstance(ghosts, np.ndarray):
            raise TypeError(
                "ghosts must be a GhostBuffers or a flat 1-D array, got "
                f"{type(ghosts).__name__}"
            )
        if ghosts.ndim != 1 or ghosts.size != self._ghost_off[-1]:
            raise ValueError(
                f"flat ghost array has shape {ghosts.shape}, schedule "
                f"needs ({int(self._ghost_off[-1])},)"
            )
        return ghosts

    # ------------------------------------------------------------------
    # flat data movement (shared with merged-communication paths)
    # ------------------------------------------------------------------
    def _pack_positions(self, arr: DistArray) -> np.ndarray:
        """Flat backing positions of the packed elements (wire order).

        Valid for every array bound to this schedule's distribution
        signature (``_check_array`` enforces that), so the resolution is
        cached after the first application.
        """
        if self._pack_pos is None:
            off = arr.distribution.flat_offsets()
            self._pack_pos = off[self._pack_owner_rep] + self._pack_idx
        return self._pack_pos

    def _move_gather(self, arr: DistArray, ghosts) -> None:
        """Pack owners' elements onto the wire, unpack into ghost buffers."""
        # one fancy-index over the flat backing packs every owner at once
        wire = arr.backing_ro[self._pack_positions(arr)]
        keep = None
        faults = self.machine.faults
        if faults is not None:
            # fault injection hook: may corrupt/duplicate wire elements
            # (returns a perturbed copy) or drop some (keep mask); the
            # charged message volume below is untouched either way
            wire, keep = faults.on_gather_wire(wire)
        backing = self._resolve_ghosts(ghosts)
        # one store over the flat ghost backing unpacks every requester
        # at once; element order is flat (pair) order, so a duplicated
        # slot keeps its last pair's value
        if keep is None:
            backing[self._unpack_pos] = wire[self._unpack_src]
        else:
            sel = keep[self._unpack_src]
            backing[self._unpack_pos[sel]] = wire[self._unpack_src[sel]]

    def _gather_from_ghosts(self, ghosts, dtype) -> np.ndarray:
        """Pack ghost contributions onto the wire (reverse direction)."""
        backing = self._resolve_ghosts(ghosts)
        return backing[self._ghost_pos_wire].astype(dtype, copy=False)

    def _move_reverse(
        self,
        ghosts,
        arr: DistArray,
        op: Callable | None,
    ) -> None:
        """Pack ghost contributions, store/combine at the owners."""
        wire = self._gather_from_ghosts(ghosts, arr.dtype)
        # one store/combine over the flat backing: positions are grouped
        # by owner ascending (pack order), so duplicate-slot and
        # accumulation order match a loop over owners
        pos = self._pack_positions(arr)
        data = arr.backing_mut()
        if op is None:
            data[pos] = wire
        else:
            op.at(data, pos, wire)

    def _wire_bytes(self, itemsize: int) -> np.ndarray:
        return self._pair_len * itemsize

    def _exchange_charge(self, reverse: bool, itemsize: int):
        """The planned exchange of one application: owners -> requesters
        for a gather, requesters -> owners in the reverse direction."""

        def plan():
            src, dst = self._pair_q, self._pair_p
            if reverse:
                src, dst = dst, src
            return self.machine.plan_exchange(
                src=src, dst=dst, nbytes=self._wire_bytes(itemsize)
            )

        return get_or_plan(self._exchange_charges, (reverse, itemsize), plan)

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def gather(self, arr: DistArray, ghosts) -> None:
        """Prefetch off-processor data into ghost buffers (one phase).

        For every pair ``(q, p)``: owner ``q`` packs the pair's send
        offsets out of ``arr.local(q)`` and requester ``p`` stores the
        wire data at the pair's slots of its ghost buffer.  ``ghosts``
        is a ``GhostBuffers`` or an equivalently laid-out flat array.
        Charges packing/unpacking memory traffic and the message
        exchange.
        """
        self._check_array(arr)
        m = self.machine
        self._move_gather(arr, ghosts)
        m.charge_compute_all(mem=self._pack_mem)
        m.charge_exchange(self._exchange_charge(False, arr.itemsize))
        m.charge_compute_all(mem=self._unpack_mem)

    def scatter(self, ghosts, arr: DistArray) -> None:
        """Reverse movement, overwrite semantics: ghost copies are sent
        back to the owners and stored (last writer per slot wins in wire
        order -- callers needing determinism use distinct slots)."""
        self._apply_reverse(ghosts, arr, op=None)

    def scatter_op(
        self,
        ghosts,
        arr: DistArray,
        op: Callable,
        flops_per_element: float = 1.0,
    ) -> None:
        """Reverse movement with combining (PARTI scatter_add/op).

        ``op`` is a NumPy ufunc used through ``op.at`` so repeated slots
        accumulate -- the loop-carried reduction semantics the paper
        allows (add, multiply, minimum, maximum).
        """
        if not hasattr(op, "at"):
            raise TypeError(f"op must be a NumPy ufunc with .at, got {op!r}")
        self._apply_reverse(ghosts, arr, op=op, flops_per_element=flops_per_element)

    def _apply_reverse(
        self,
        ghosts,
        arr: DistArray,
        op: Callable | None,
        flops_per_element: float = 1.0,
    ) -> None:
        self._check_array(arr)
        m = self.machine
        self._move_reverse(ghosts, arr, op)
        if op is None:
            combine = 0.0
        else:
            combine = self._combine_flops.get(flops_per_element)
            if combine is None:
                combine = np.zeros(self.n_procs)
                np.add.at(combine, self._pair_q, flops_per_element * self._pair_len)
                self._combine_flops[flops_per_element] = combine
        # roles swap relative to gather: the requester packs its ghost
        # contributions, the owner unpacks (and combines)
        m.charge_compute_all(mem=self._unpack_mem)
        m.charge_exchange(self._exchange_charge(True, arr.itemsize))
        m.charge_compute_all(mem=self._pack_mem, flops=combine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommSchedule(procs={self.n_procs}, messages={self.message_count()}, "
            f"elements={self.element_count()}, ghosts={self.ghost_total()})"
        )
