"""Saved state the incremental inspector diffs and patches against.

A full inspection captures, per loop:

* the dense **home** map of the iteration partition (iteration ->
  processor), and
* one :class:`GroupState` per pattern *group* (the product's
  ``groups``: the patterns localized together under one, possibly
  coalesced, schedule) tracking the CSR ghost slot space
  described in the package docstring: per global slot id the ghost's
  key, owner, owner-local offset, and live reference count.

What the indirection arrays held is not copied: the saved product
already records the element every iteration referenced, and
:func:`~repro.adapt.diff.old_targets` reads it back at the dirty
positions.  Building this state is plain bookkeeping over arrays the
inspector already produced; the machine is charged a small per-element
recording cost (the modelled runtime tallies counts and copies the
indirection values into a snapshot), which is the price of enabling
incremental inspection.

Capture by reference, build on first use
----------------------------------------
Most inspections are never patched: a loop re-inspected every time step
over unchanged content, or one whose products a remap voids, would
build O(refs) state per inspection and never read it.  So an inspection
only *captures* its product, by reference.  That is O(1), and nothing
later can leak in: a patch builds a new product instead of editing the
saved one, and the build reads the product alone -- each slot's owner
and owner-local offset come off the product's own schedule entries,
never off a distribution, so a ``redistribute`` in between changes
nothing.  :func:`build_adapt_state` turns the capture into a
:class:`LoopAdaptState` when a reader first needs one (a patch attempt,
post-patch verification, a checkpoint); the result is element-equal to
building at inspection time, whatever was written or remapped in
between.

The slot state is also what a checkpoint stores of a product's layout:
:meth:`GroupState.schedule` is the one schedule-from-slots builder, used
by the patch rung and by a restore alike, and :meth:`GroupState.ghost_flat`
gives the ghost keys a product holds.

The simulated machine is a different matter: the *modelled* runtime
does the bookkeeping when it inspects, so :func:`charge_state_build` is
issued at inspection, inside the inspector phase, exactly as before --
deferring the host work moves no simulated number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.chaos.kernels import stable_order
from repro.chaos.schedule import CommSchedule
from repro.core.inspector import InspectorProduct, group_members

#: integer ops per ghost slot for recording the slot -> key/owner map
STATE_IOPS_PER_GHOST = 4.0
#: integer ops per reference for tallying per-slot reference counts
STATE_IOPS_PER_REF = 1.0


@dataclass
class GroupState:
    """CSR ghost-slot bookkeeping for one pattern group (see package doc)."""

    array: str
    indexes: tuple[str | None, ...]
    slot_bounds: np.ndarray  # (P + 1,) CSR bounds of the slot space
    keys: np.ndarray  # (S,) ghost global index per slot (stale in holes)
    owners: np.ndarray  # (S,) owning processor of each ghost key
    lidx: np.ndarray  # (S,) owner-local offset of each ghost key
    counts: np.ndarray  # (S,) live reference count; 0 marks a hole
    #: persisted sorted slot index: ``sorted_comp`` holds the composite
    #: ``slot_proc * stride + key`` of every slot in ascending order
    #: (ties slot-ascending) and ``sorted_slot`` the slot id per entry.
    #: Built once (lazily) and *merged* delta-sized on every patch, so
    #: lookups never re-sort the slot space.
    sorted_comp: np.ndarray | None = None
    sorted_slot: np.ndarray | None = None
    index_stride: int = 0

    def slot_proc(self) -> np.ndarray:
        """Processor owning each global slot id."""
        return np.repeat(
            np.arange(self.slot_bounds.size - 1, dtype=np.int64),
            np.diff(self.slot_bounds),
        )

    def slot_index(self, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_comp, sorted_slot)`` for ``stride``, building on miss.

        The one argsort here runs only on first use (or after a stride
        change, which implies a new distribution and therefore fresh
        state anyway); patches keep the index current by merging their
        delta instead of calling back into this.
        """
        if (
            self.sorted_comp is None
            or self.sorted_slot is None
            or self.index_stride != stride
        ):
            comp = self.slot_proc() * stride + self.keys
            order = np.argsort(comp, kind="stable")
            self.sorted_comp = comp[order]
            self.sorted_slot = order
            self.index_stride = stride
        return self.sorted_comp, self.sorted_slot

    def schedule(self, machine, dist_signature: tuple, stride: int) -> CommSchedule:
        """The group's schedule read off its slot state, built by the
        constructor a cold inspection uses: the patch rung's schedule and
        a checkpoint restore's.  ``stride`` exceeds every key (the data
        array's size).

        The entries are exactly the live slots: slot ``s`` of requester
        ``p`` is ``(owners[s], p, lidx[s], s - slot_bounds[p])``.  The
        sorted slot index lists every slot ``(p, key)``-ascending, so its
        live slots regrouped by ``(p, q)`` (stable) are in ``localize``'s
        canonical ``(p, q, key)`` order."""
        n = machine.n_procs
        comp, order = self.slot_index(stride)
        live = self.counts[order] > 0
        slot = order[live]
        p = comp[live] // stride
        pair = p * n + self.owners[slot]
        regroup = stable_order(pair, n * n)
        slot = slot[regroup]
        # pair ids ascending are the requester-major / owner-minor pairs
        pair_len = np.bincount(pair, minlength=n * n)
        pair_id = np.flatnonzero(pair_len)
        return CommSchedule(
            machine,
            dist_signature,
            pair_id % n,
            pair_id // n,
            pair_len[pair_id],
            self.lidx[slot],
            slot - self.slot_bounds[p[regroup]],
            [int(s) for s in np.diff(self.slot_bounds)],
        )

    def ghost_flat(self) -> np.ndarray:
        """The ghost key per slot as a product holds it: ``keys`` itself
        when no slot is a hole, else a frozen copy with the holes set to -1."""
        holes = self.counts == 0
        if not holes.any():
            return self.keys
        out = self.keys.copy()
        out[holes] = -1
        out.flags.writeable = False
        return out


@dataclass
class LoopAdaptState:
    """Everything needed to patch one loop's saved inspector product."""

    home: np.ndarray  # dense iteration -> processor map
    groups: dict[tuple[str, tuple], GroupState] = field(default_factory=dict)


def build_group_state(
    product: InspectorProduct, member_keys: list[tuple[str, str | None]]
) -> GroupState:
    """Slot bookkeeping for one group of a *freshly inspected* product.

    A fresh :func:`~repro.chaos.localize.localize` assigns ghost slots in
    sorted-key order with no holes, so the slot space is the group's
    ghost layout itself: ``ghost_bounds`` and ``ghost_flat`` are held,
    not copied, and each slot's owner and owner-local offset are read
    off the schedule entry that fills it.  Counts come from one
    ``bincount`` over each member's localized ghost references.
    """
    first = product.patterns[member_keys[0]].localized
    slot_bounds = np.asarray(first.ghost_bounds, dtype=np.int64)
    keys = np.asarray(first.ghost_flat, dtype=np.int64)
    q, p, send, recv = first.schedule.entries()
    slot = slot_bounds[p] + recv
    owners = np.zeros(keys.size, dtype=np.int64)
    lidx = np.zeros(keys.size, dtype=np.int64)
    owners[slot] = q
    lidx[slot] = send
    counts = np.zeros(keys.size, dtype=np.int64)
    local_sizes = np.asarray(first.local_sizes, dtype=np.int64)
    pid = product.iteration_partition.proc_of_position()
    for key in member_keys:
        refs = product.patterns[key].localized.refs_flat
        ghost = refs >= local_sizes[pid]
        if ghost.any():
            gslot = slot_bounds[pid[ghost]] + (refs[ghost] - local_sizes[pid[ghost]])
            counts += np.bincount(gslot, minlength=counts.size)
    return GroupState(
        array=member_keys[0][0],
        indexes=tuple(k[1] for k in member_keys),
        slot_bounds=slot_bounds,
        keys=keys,
        owners=owners,
        lidx=lidx,
        counts=counts,
    )


def build_adapt_state(product: InspectorProduct) -> LoopAdaptState:
    """Home map + group states of one captured inspection's product.

    Reads only the product, never the live program, so the state
    describes it no matter when it is built.  Groups holding one layout
    (:meth:`InspectorProduct.layout_key`: ``x(edge(i))`` /
    ``y(edge(i))`` served by one translation-cache entry) get one build,
    the same arrays under their own name.
    """
    state = LoopAdaptState(home=product.iteration_partition.owner_of())
    built: dict[tuple, GroupState] = {}
    for gkey in product.groups:
        layout = product.layout_key(gkey)
        done = built.get(layout)
        if done is None:
            state.groups[gkey] = built[layout] = build_group_state(
                product, group_members(gkey)
            )
        else:
            state.groups[gkey] = replace(done, array=gkey[0])
    return state


def charge_state_build(machine, product: InspectorProduct, arrays) -> None:
    """Charge the bookkeeping cost of capturing adapt state.

    Issued at inspection (see the module docstring), against the live
    ``arrays`` the product was just inspected over.  Each processor
    copies its local segment of every indirection array (the modelled
    runtime's snapshot; the host derives it from the product), records
    its ghost slot map, and tallies its reference counts -- all local
    integer/memory work.
    """
    n = machine.n_procs
    mem = np.zeros(n)
    for name in product.loop.indirection_arrays():
        mem += arrays[name].distribution.local_sizes().astype(np.float64)
    iops = np.zeros(n)
    for gkey in product.groups:
        member_keys = group_members(gkey)
        first = product.patterns[member_keys[0]].localized
        iops += STATE_IOPS_PER_GHOST * np.diff(
            np.asarray(first.ghost_bounds, dtype=np.float64)
        )
        for key in member_keys:
            loc = product.patterns[key].localized
            iops += STATE_IOPS_PER_REF * np.diff(
                np.asarray(loc.ref_bounds, dtype=np.float64)
            )
    machine.charge_compute_all(iops=iops, mem=mem)
