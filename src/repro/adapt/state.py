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
only *captures* the inputs of the build (:class:`PendingState`): the
product and each data array's ``Distribution`` object, both by
reference.  That is O(1), and nothing later can leak in: a patch builds
a new product instead of editing the saved one, and distributions are
immutable (``redistribute`` installs another object).
:func:`build_adapt_state` turns the capture into a
:class:`LoopAdaptState` when a reader first needs one (a patch attempt,
post-patch verification, a checkpoint); the result is element-equal to
building at inspection time, whatever was written or remapped in
between.

The simulated machine is a different matter: the *modelled* runtime
does the bookkeeping when it inspects, so :func:`charge_state_build` is
issued at inspection, inside the inspector phase, exactly as before --
deferring the host work moves no simulated number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.inspector import InspectorProduct, group_members
from repro.distribution.base import Distribution
from repro.distribution.distarray import DistArray

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
    #: lookups never re-sort the slot space.  ``None`` after a
    #: checkpoint restore (the index is not saved); rebuilt on first use.
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


@dataclass
class LoopAdaptState:
    """Everything needed to patch one loop's saved inspector product."""

    home: np.ndarray  # dense iteration -> processor map
    groups: dict[tuple[str, tuple], GroupState] = field(default_factory=dict)


@dataclass(frozen=True)
class PendingState:
    """The inputs of :func:`build_adapt_state`, held by reference."""

    product: InspectorProduct
    #: data array name -> the distribution the product was inspected under
    distributions: dict[str, Distribution]

    @classmethod
    def capture(
        cls, product: InspectorProduct, arrays: dict[str, DistArray]
    ) -> "PendingState":
        """O(1) per array: no element is copied or translated here."""
        return cls(
            product=product,
            distributions={
                name: arrays[name].distribution for name in product.loop.data_arrays()
            },
        )


def build_group_state(
    product: InspectorProduct,
    dist: Distribution,
    member_keys: list[tuple[str, str | None]],
) -> GroupState:
    """Slot bookkeeping for one group of a *freshly inspected* product.

    ``dist`` is the group's data-array distribution at inspection.  A
    fresh :func:`~repro.chaos.localize.localize` assigns ghost slots in
    sorted-key order with no holes, so ``ghost_flat``/``ghost_bounds``
    of any member's ``LocalizeResult`` are exactly the slot space.
    Counts come from one ``bincount`` over each member's localized ghost
    references.
    """
    first = product.patterns[member_keys[0]].localized
    slot_bounds = np.asarray(first.ghost_bounds, dtype=np.int64).copy()
    keys = np.asarray(first.ghost_flat, dtype=np.int64).copy()
    if keys.size:
        owners = np.asarray(dist.owner(keys), dtype=np.int64)
        lidx = np.asarray(dist.local_index(keys), dtype=np.int64)
    else:
        owners = np.empty(0, dtype=np.int64)
        lidx = np.empty(0, dtype=np.int64)
    counts = np.zeros(keys.size, dtype=np.int64)
    local_sizes = np.asarray(first.local_sizes, dtype=np.int64)
    pid = product.iteration_partition.proc_of_position()
    for key in member_keys:
        refs = product.patterns[key].localized.refs_flat
        ghost = refs >= local_sizes[pid]
        if ghost.any():
            gslot = slot_bounds[pid[ghost]] + (refs[ghost] - local_sizes[pid[ghost]])
            counts += np.bincount(gslot, minlength=counts.size)
    state = GroupState(
        array=member_keys[0][0],
        indexes=tuple(k[1] for k in member_keys),
        slot_bounds=slot_bounds,
        keys=keys,
        owners=owners,
        lidx=lidx,
        counts=counts,
    )
    # build the sorted slot index now, while the build is already
    # paying O(S log S): patches then only merge deltas into it
    state.slot_index(max(dist.size, 1))
    return state


def build_adapt_state(pending: PendingState) -> LoopAdaptState:
    """Home map + group states of one captured inspection.

    Reads only what ``pending`` holds, never the live program, so the
    state describes the captured product no matter when it is built.
    Groups holding one layout (:meth:`InspectorProduct.layout_key`:
    ``x(edge(i))`` / ``y(edge(i))`` served by one translation-cache
    entry) get one build, the same arrays under their own name.
    """
    product = pending.product
    state = LoopAdaptState(home=product.iteration_partition.owner_of())
    built: dict[tuple, GroupState] = {}
    for gkey in product.groups:
        layout = product.layout_key(gkey)
        done = built.get(layout)
        if done is None:
            dist = pending.distributions[gkey[0]]
            state.groups[gkey] = built[layout] = build_group_state(
                product, dist, group_members(gkey)
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
