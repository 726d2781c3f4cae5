"""Saved state the incremental inspector diffs and patches against.

A product's adapt state (:class:`LoopAdaptState`) holds:

* the dense **home** map of the iteration partition (iteration ->
  processor), and
* one :class:`GroupState` per pattern *group* (the product's
  ``groups``: the patterns localized together under one, possibly
  coalesced, schedule) holding the live reference count of every slot
  of the group's ghost layout, and the layout's sorted slot index.

The layout itself is the product's: each group's
:class:`~repro.chaos.schedule.SlotState` (per global slot id the ghost's
key, owner and owner-local offset, in the CSR slot space described in
the package docstring), which ``localize`` emits and a patch replaces.
What the indirection arrays held is not copied either: the saved
product already records the element every iteration referenced, and
:func:`~repro.adapt.diff.old_targets` reads it back at the dirty
positions.  Building this state is plain bookkeeping over arrays the
inspector already produced; the machine is charged a small per-element
recording cost (the modelled runtime tallies counts and copies the
indirection values into a snapshot), which is the price of enabling
incremental inspection.

Carried by the product, built on first use
------------------------------------------
The state is a value its product carries
(``InspectorProduct.adapt_state``); nothing else holds it.  Most
inspections are never patched: a loop re-inspected every time step over
unchanged content, or one whose products a remap voids, would build
O(refs) state per inspection and never read it.  So a full inspection's
product starts without one, and :func:`build_adapt_state` runs when a
reader first needs it (a patch attempt, a checkpoint).  The build reads
the product alone, never a distribution, so the result is element-equal
to building at inspection time, whatever was written or remapped in
between.  A patch never edits its input's state: the patched product is
born with a new one (the new home map and group states), and a restored
product with the one its file holds.

:meth:`GroupState.schedule` reads a schedule off the live slots of a
layout with :meth:`~repro.chaos.schedule.SlotState.schedule`, the one
builder: the patch rung's schedule and a checkpoint restore's.

The simulated machine is a different matter: the *modelled* runtime
does the bookkeeping when it inspects, so :func:`charge_state_build` is
issued at inspection, inside the inspector phase, exactly as before --
deferring the host work moves no simulated number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.chaos.schedule import CommSchedule, SlotState
from repro.core.inspector import InspectorProduct, group_members

#: integer ops per ghost slot for recording the slot -> key/owner map
STATE_IOPS_PER_GHOST = 4.0
#: integer ops per reference for tallying per-slot reference counts
STATE_IOPS_PER_REF = 1.0


@dataclass(frozen=True)
class GroupState:
    """Reference counts and sorted slot index of one pattern group's
    layout (see package doc); the layout is the product's."""

    array: str
    indexes: tuple[str | None, ...]
    counts: np.ndarray  # (S,) live reference count; 0 marks a hole
    #: persisted sorted slot index: ``sorted_comp`` holds the composite
    #: ``slot_proc * stride + key`` of every slot in ascending order
    #: (ties slot-ascending) and ``sorted_slot`` the slot id per entry.
    #: Absent until a patch or a restore first needs it, then *merged*
    #: delta-sized on every patch, so lookups never re-sort the slot space.
    sorted_comp: np.ndarray | None = None
    sorted_slot: np.ndarray | None = None
    index_stride: int = 0

    def slot_index(self, layout: SlotState, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_comp, sorted_slot)`` of ``layout`` for ``stride``:
        the persisted index, or one sorted now and not kept (a state is
        never mutated; :meth:`indexed` keeps one).

        The one argsort here runs only for a state without an index (or
        after a stride change, which implies a new distribution and
        therefore fresh state anyway); patches keep the index current by
        merging their delta instead of calling back into this.
        """
        if self.sorted_comp is not None and self.index_stride == stride:
            return self.sorted_comp, self.sorted_slot
        comp = layout.slot_proc() * stride + layout.keys
        order = np.argsort(comp, kind="stable")
        return comp[order], order

    def indexed(self, layout: SlotState, stride: int) -> GroupState:
        """This state with its slot index for ``stride`` persisted."""
        comp, order = self.slot_index(layout, stride)
        return replace(self, sorted_comp=comp, sorted_slot=order, index_stride=stride)

    def schedule(
        self, layout: SlotState, machine, dist_signature: tuple, stride: int
    ) -> CommSchedule:
        """The schedule of ``layout``'s live slots (``counts > 0``) in
        sorted-index order: the patch rung's schedule and a checkpoint
        restore's.  ``stride`` exceeds every key (the data array's size)."""
        _, order = self.slot_index(layout, stride)
        return layout.schedule(machine, dist_signature, order[self.counts[order] > 0])


@dataclass(frozen=True)
class LoopAdaptState:
    """Everything needed to patch one loop's saved inspector product:
    the value ``InspectorProduct.adapt_state`` holds."""

    home: np.ndarray  # dense iteration -> processor map
    groups: dict[tuple[str, tuple], GroupState]


def build_group_state(
    product: InspectorProduct, member_keys: list[tuple[str, str | None]]
) -> GroupState:
    """Reference counts of one group of ``product``: one ``bincount``
    per member over its localized ghost references' global slot ids.
    The guard's recount calls this too."""
    first = product.patterns[member_keys[0]].localized
    slot_bounds = first.slots.slot_bounds
    counts = np.zeros(first.slots.keys.size, dtype=np.int64)
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
        counts=counts,
    )


def build_adapt_state(product: InspectorProduct) -> LoopAdaptState:
    """Home map + group states of ``product`` (not attached to it).

    Reads only the product, never the live program, so the state
    describes it no matter when it is built.  Groups holding one layout
    (:meth:`InspectorProduct.layout_key`: ``x(edge(i))`` /
    ``y(edge(i))`` served by one translation-cache entry) get one build,
    the same arrays under their own name.
    """
    groups: dict[tuple, GroupState] = {}
    built: dict[tuple, GroupState] = {}
    for gkey in product.groups:
        layout = product.layout_key(gkey)
        done = built.get(layout)
        if done is None:
            groups[gkey] = built[layout] = build_group_state(product, group_members(gkey))
        else:
            groups[gkey] = replace(done, array=gkey[0])
    return LoopAdaptState(product.iteration_partition.owner_of(), groups)


def charge_state_build(machine, product: InspectorProduct, arrays) -> None:
    """Charge the bookkeeping cost of a product's adapt state.

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
        iops += STATE_IOPS_PER_GHOST * np.diff(first.slots.slot_bounds).astype(np.float64)
        for key in member_keys:
            loc = product.patterns[key].localized
            iops += STATE_IOPS_PER_REF * np.diff(
                np.asarray(loc.ref_bounds, dtype=np.float64)
            )
    machine.charge_compute_all(iops=iops, mem=mem)
