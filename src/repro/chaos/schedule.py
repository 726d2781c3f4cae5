"""Communication schedules: the central PARTI/CHAOS data structure.

A :class:`CommSchedule` records, for one access pattern against one
distribution, everything needed to move off-processor data:

* per communicating pair ``(q, p)``, the local offsets on owner ``q`` of
  the elements requester ``p`` needs (what ``q`` packs and sends to
  ``p``), and
* the ghost-buffer slots on ``p`` where those elements land.

The slots are the saved layout; the buffers themselves are not saved.
Every application takes the ghost data as one flat array in this
schedule's layout, and the executor allocates that array per sweep.

The same schedule drives data in both directions: ``gather`` prefetches
off-processor data into ghost buffers before an executor runs (reads),
and ``scatter``/``scatter_op`` pushes ghost-buffer contributions back to
the owners afterwards (writes / reductions) -- PARTI's
``gather_exchange`` / ``scatter_op`` pair.

Layout
------
A layout has one form, its :class:`SlotState`: one CSR slot space over
every processor's ghost buffer (processor ``p`` owns global slot ids
``slot_bounds[p]:slot_bounds[p + 1]``) and, per global slot, the ghost's
key, owner and owner-local offset.  ``localize`` emits it, the patch
rung patches it, a checkpoint stores it, and :meth:`SlotState.schedule`
is the one builder that reads a schedule off it: for ``localize``, the
patch rung and a checkpoint restore alike.

A schedule stores its pairs (owner, requester, element count), requester-major
/ owner-minor, and its *slot order*: the global slot id of every element in
*flat order*, pair after pair.  A global slot id is the slot's *ghost backing
position* in a flat ghost backing (every processor's buffer back to back in
one 1-D array of :meth:`ghost_total` elements), so the slot order is the
unpack positions ``_unpack_pos`` itself.  Send offsets are the slot state's
``lidx`` read at the slot order, and the pack positions ``flat_offset[q] +
send offset`` into the ``DistArray``'s flat backing, which need the
distribution, are resolved on first use.  A schedule is immutable once
built, so every pattern group with this layout holds this one object (the
``x(edge(i))`` / ``y(edge(i))`` siblings of one distribution included):
groups are named by key, not by schedule identity.  A gather is
``ghosts[unpack_pos] = backing[pack_pos]``; the reverse direction stores (or
``ufunc.at`` combines) ``ghosts[unpack_pos]`` at ``pack_pos``.  Ghost
positions of different requesters never collide, so storing in flat order
fixes each duplicated slot's last writer exactly as a loop over pairs in
insertion order would; pack positions of different owners never collide
either, so every owner element receives its contributions in the order a
loop over owners, each sending its pairs in turn, applies them.  Nothing
stores the owner-grouped wire order of a real exchange: only fault
injection derives it, so that a wire fault hits the element it names.

A schedule is *bound to a distribution signature*: applying it to an
array whose distribution has changed since inspection is a hard error
(this is exactly the staleness the paper's reuse check prevents, so the
runtime enforces it defensively too).

Invariant contract
------------------
Machine-checked by :func:`repro.guard.invariants.verify_schedule` (and
the product-level checkers that cross-reference the slot state and the
adapt reference counts):

* ``_ghost_off`` is the slot state's ``slot_bounds``; ``_pair_len``
  entries are strictly positive (live pairs only) and sum to the slot
  order's length;
* every pair id is in ``[0, n_procs)``; pairs are requester-major /
  owner-minor, and within a pair elements are sorted by ghost key;
* every element's slot lies in its requester's region, and no slot is
  unpacked twice in one gather;
* the slot order lists exactly the *live* slots: after incremental
  patching a slot whose reference count is 0 is a hole the order leaves
  out, and every element's pair owner is its slot's owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import first_segment_outside, stable_order
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine, get_or_plan


@dataclass(frozen=True, eq=False)
class SlotState:
    """One pattern group's ghost layout, per global slot id ``s``: the
    ghost's global index ``keys[s]``, its owner ``owners[s]`` and
    owner-local offset ``lidx[s]``; processor ``p``'s slots are
    ``slot_bounds[p]:slot_bounds[p + 1]``.  A slot no schedule entry
    reads is a hole, whose arrays hold stale values."""

    slot_bounds: np.ndarray  # (P + 1,) CSR bounds of the slot space
    keys: np.ndarray  # (S,)
    owners: np.ndarray  # (S,)
    lidx: np.ndarray  # (S,)

    def slot_proc(self) -> np.ndarray:
        """Processor owning each global slot id."""
        return np.repeat(
            np.arange(self.slot_bounds.size - 1, dtype=np.int64),
            np.diff(self.slot_bounds),
        )

    def schedule(self, machine: Machine, dist_signature: tuple, live: np.ndarray) -> "CommSchedule":
        """The schedule fetching the slots ``live``: slot ``s`` of
        requester ``p`` is the element ``(owners[s], p, lidx[s])``.

        ``live`` lists the slots to fetch ``(p, key)``-ascending (a fresh
        layout's ``arange``), so regrouping it by ``(p, q)`` (stable)
        gives the canonical ``(p, q, key)`` order."""
        n = machine.n_procs
        pair = self.slot_proc()[live] * n + self.owners[live]
        regroup = stable_order(pair, n * n)
        # pair ids ascending are the requester-major / owner-minor pairs;
        # each run of one id is a pair's elements
        pair = pair[regroup]
        first = np.ones(pair.size, dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        starts = np.flatnonzero(first)
        return CommSchedule(
            machine,
            dist_signature,
            pair[starts] % n,
            pair[starts] // n,
            np.diff(np.append(starts, pair.size)),
            live[regroup],
            self.lidx,
            self.slot_bounds,
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, or ``a`` itself when it is read-only
    already."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


class CommSchedule:
    """Schedule for gathering/scattering one access pattern's ghost data."""

    def __init__(
        self,
        machine: Machine,
        dist_signature: tuple,
        pair_q: np.ndarray,
        pair_p: np.ndarray,
        pair_len: np.ndarray,
        order: np.ndarray,
        lidx: np.ndarray,
        slot_bounds: np.ndarray,
    ):
        """Construct from flat pair-grouped arrays over a slot space.

        ``pair_q``/``pair_p``/``pair_len`` describe the communicating
        pairs (owner, requester, element count) in insertion order;
        ``order`` concatenates each pair's global slot ids in that
        order, ``lidx`` is the send offset of each global slot and
        ``slot_bounds`` the slot space's CSR bounds.
        :meth:`SlotState.schedule` is the caller.  Raises ``ValueError``
        for a processor id outside ``[0, n_procs)``, for lengths that
        are negative or do not add up, and for a slot outside its
        requester's region.  Send offsets are range-checked against the
        distribution on first application (:meth:`_pack_positions`).
        """
        n = machine.n_procs
        pair_q, pair_p, pair_len, order, slot_bounds = (
            np.asarray(a, dtype=np.int64) for a in (pair_q, pair_p, pair_len, order, slot_bounds)
        )
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
        if order.shape != (total,):
            raise ValueError(f"pair lengths sum to {total} but there are {order.shape} slots")
        if slot_bounds.shape != (n + 1,) or slot_bounds[0] != 0 or (np.diff(slot_bounds) < 0).any():
            raise ValueError(f"slot bounds are not monotone CSR bounds over {n} processors")
        if np.shape(lidx) != (int(slot_bounds[-1]),):
            raise ValueError(f"{np.shape(lidx)} send offsets for {int(slot_bounds[-1])} slots")
        # empty pairs contribute no elements and no message
        live = pair_len > 0
        if not live.all():
            pair_q, pair_p, pair_len = pair_q[live], pair_p[live], pair_len[live]
        pair_bounds = np.concatenate(([0], np.cumsum(pair_len)))
        i = first_segment_outside(order, pair_bounds, slot_bounds[pair_p + 1], slot_bounds[pair_p])
        if i is not None:
            p = int(pair_p[i])
            raise ValueError(
                f"pair ({int(pair_q[i])}, {p}): slot out of range "
                f"[{int(slot_bounds[p])}, {int(slot_bounds[p + 1])})"
            )
        self.machine = machine
        self.dist_signature = dist_signature
        self.ghost_sizes = np.diff(slot_bounds).tolist()
        #: per-message arrays in pair insertion order (nonempty pairs only)
        self._pair_q, self._pair_p, self._pair_len = pair_q, pair_p, pair_len
        self._n_elements = total
        #: slot ``s`` lives at ghost backing position ``s``: the slot
        #: order is the unpack side, and ``_ghost_off`` the slot bounds
        self._ghost_off = _frozen(slot_bounds)
        self._unpack_pos = _frozen(order)
        self._lidx = lidx
        # pack side: flat backing positions, resolved (and the send
        # offsets range-checked) on first use against the bound
        # distribution
        self._pack_pos: np.ndarray | None = None

        # per-processor pack/unpack memory charges, accumulated in pair
        # order like a loop over pairs would
        per_pair_mem = DEFAULT_COSTS.pack_unpack_mem * pair_len
        self._pack_mem = np.zeros(n)
        self._unpack_mem = np.zeros(n)
        np.add.at(self._pack_mem, pair_q, per_pair_mem)
        np.add.at(self._unpack_mem, pair_p, per_pair_mem)
        # the other per-application charges depend on a call argument,
        # so they are planned on first use: ``(reverse, itemsize)`` ->
        # the direction's ExchangeCharge, ``flops_per_element`` -> the
        # owners' combine flops.  Neither is ever written to a checkpoint.
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
        """Length of the flat ghost backing every application takes."""
        return int(self._ghost_off[-1])

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
        """``ghosts`` checked against this layout: a flat 1-D array of
        :meth:`ghost_total` elements, slot ``s`` of processor ``p`` at
        ``ghost_offset[p] + s``.  Anything else is a ``TypeError`` (not
        an array) or a ``ValueError`` (wrong shape)."""
        if not isinstance(ghosts, np.ndarray):
            raise TypeError(
                f"ghosts must be a flat 1-D array, got {type(ghosts).__name__}"
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
        """Flat backing positions of the packed elements (flat order).

        Valid for every array bound to this schedule's distribution
        signature (``_check_array`` enforces that), so the resolution is
        kept after the first application.  That first resolution also
        range-checks every send offset against its owner's local size:
        an offset past it would silently move another processor's
        element.
        """
        pos = self._pack_pos
        if pos is None:
            off = arr.distribution.flat_offsets()
            sizes = np.diff(off)
            plen = self._pair_len
            send = self._lidx[self._unpack_pos]
            bounds = np.concatenate(([0], np.cumsum(plen)))
            if first_segment_outside(send, bounds, sizes[self._pair_q]) is not None:
                # name the offending element a pass over the owners in
                # ascending order meets first (the lowest owner's first)
                flat_q = np.repeat(self._pair_q, plen)
                bad = (send < 0) | (send >= sizes[flat_q])
                q = int(flat_q[bad].min())
                f = int(np.flatnonzero(bad & (flat_q == q))[0])
                k = int(np.searchsorted(bounds, f, side="right")) - 1
                raise ValueError(
                    f"pair ({q}, {int(self._pair_p[k])}): send offset "
                    f"{int(send[f])} out of range [0, {int(sizes[q])})"
                )
            pos = send
            pos += np.repeat(off[self._pair_q], plen)
            pos.flags.writeable = False
            self._pack_pos = pos
        return pos

    def _move_gather(self, arr: DistArray, ghosts) -> None:
        """Pack owners' elements, unpack them into ghost buffers."""
        # one fancy-index over the flat backing packs every owner at once
        values = arr.backing_ro[self._pack_positions(arr)]
        faults = self.machine.faults
        if faults is not None:
            # fault injection hook: may corrupt/duplicate wire elements
            # (returns a perturbed copy) or drop some (keep mask); the
            # charged message volume is untouched either way.  Faults
            # name wire positions: elements grouped by owner, stable
            wire_perm = stable_order(np.repeat(self._pair_q, self._pair_len), self.n_procs)
            wire, keep = faults.on_gather_wire(values[wire_perm])
            values[wire_perm] = wire
            if keep is not None:
                # a dropped element's slot reads 0, not whatever the
                # buffer held before, so every drop is visible on every sweep
                values[wire_perm[~keep]] = 0
        # one store over the flat ghost backing unpacks every requester
        # at once; element order is flat (pair) order, so a duplicated
        # slot keeps its last pair's value
        self._resolve_ghosts(ghosts)[self._unpack_pos] = values

    def _move_reverse(
        self,
        ghosts,
        arr: DistArray,
        op: Callable | None,
    ) -> None:
        """Pack ghost contributions, store/combine at the owners."""
        values = self._resolve_ghosts(ghosts)[self._unpack_pos].astype(arr.dtype, copy=False)
        # one store/combine over the flat backing in flat order: each
        # owner element receives its contributions in pair order, as a
        # loop over owners would apply them
        pos = self._pack_positions(arr)
        data = arr.backing_mut()
        if op is None:
            data[pos] = values
        else:
            op.at(data, pos, values)

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
        is the flat ghost backing (see :meth:`_resolve_ghosts`).
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
        back to the owners and stored (the last contribution per owner
        element wins, in pair order -- callers needing determinism use
        distinct slots)."""
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
