"""``repro.adapt``: incremental inspection for adaptive codes.

The paper's Section 3 reuse check is binary: if *any* write may have
touched an indirection array's DAD since loop L was inspected, L's whole
inspector re-runs.  Adaptive codes (mesh refinement, repartitioning MD
pair lists) modify a few percent of an indirection array every few dozen
time steps and pay the full inspector each time.  This subsystem is the
CHAOS-lineage follow-on: when the conservative check fails *only*
because indirection values changed (condition 3, with every DAD intact),
it diffs the current indirection values against the ones the saved
product was built from (read off its localized references,
:func:`~repro.adapt.diff.old_targets`), computes exactly which
references moved, and **patches** the saved :class:`~repro.core.inspector.InspectorProduct` -- re-voting
only the changed iterations, translating only the added references (one
``dereference_flat`` over the delta), and retiring/appending ghost slots
in place -- while charging the simulated machine only for the delta
work.  The patched product is equivalent to a from-scratch inspection:
same iteration partition, same ghost sets, same communication pairs and
wire contents, bit-identical executor results and executor charges.

Layout contract (mirrors ``schedule.py``/``distarray.py``)
---------------------------------------------------------
Per pattern *group* (the patterns sharing one coalesced schedule), ghost
slots live in one CSR slot space: processor ``p`` owns slots
``slot_bounds[p]:slot_bounds[p+1]`` and slot ``s`` of ``p`` has global
slot id ``slot_bounds[p] + s``.  Patching is **append-only with holes**:

* a retained ghost keeps its per-processor slot index forever -- saved
  localized reference lists and schedule recv slots for unchanged
  references stay valid across any number of patches;
* a ghost whose reference count drops to zero is *retired* in place:
  its slot becomes a hole (it leaves the schedule and no reference
  reads it) but later slots do not shift;
* new ghosts first *reuse* holes (ascending slot order within each
  processor), then *append* at the end of the processor's region, so a
  region only ever grows by the number of never-before-seen ghosts.

The layout is the product's :class:`~repro.chaos.schedule.SlotState`,
per global slot id: the ghost's global array index (``keys``; stale in
holes until reused) and its owner and owner-local offset
(``owners``/``lidx``; valid while the distribution signature is
unchanged, which conditions 1-2 guarantee).  ``GroupState`` adds the
live reference count (``counts``; 0 marks a hole) and the sorted slot
index.  A hole is also a slot absent from the schedule's slot order.

State lifetime: carried by the product, built on first use
----------------------------------------------------------
``LoopAdaptState`` is a value its product carries
(``InspectorProduct.adapt_state``); nothing else holds it, so whatever
frees a product frees its state.  A full inspection does not build it:
it charges the simulated bookkeeping cost right there, inside the
inspector phase, because the *modelled* runtime does that work when it
inspects.  The O(refs) host build
(:func:`~repro.adapt.state.build_adapt_state`) runs when a reader first
asks :meth:`IncrementalInspector.state_of` for the saved product's
state: a patch attempt that passed every routing check, or a checkpoint
save.  It reads only the product -- the reference counts are one
``bincount`` over its localized references -- so later writes and
remaps cannot leak in: the state equals what an eager build would have
produced.  A loop re-inspected every step over unchanged content, or
whose products a remap voids, never builds.  A patch never mutates its
input's state: the patched product is born with its own (the new home
map and group states), a restored product with the one its file holds,
and a typed patch failure leaves nothing to drop.  Each build is
visible: an ``adapt.state.build_adapt_state`` span (``n_slots``,
``n_refs``), one ``adapt.state`` event with the reader as ``reason``,
and ``AdaptiveExecutor.history[...]["state_build_wall_seconds"]``.

The slot state is the layout a checkpoint stores, with the counts: a
restore reads each schedule off it with
:meth:`~repro.adapt.state.GroupState.schedule`, the patch rung's
builder.

Host wall time (not simulated time)
-----------------------------------
Patching should be cheaper than full re-inspection *for the machine
running the simulation* too -- otherwise "incremental" only relabels
work.  It is at low churn and not at high churn (README "Adaptive
incremental inspection" has the measured table); the simulated win
holds at every fraction.  What keeps the patch path small:

* the composite-key slot index is kept **sorted persistently** and
  merge-updated, so lookup is a searchsorted over the delta, never a
  re-sort of the full slot space;
* a patched group's schedule is read off its patched slot state (the
  live slots, in the merged index's order) by the one builder a cold
  inspection uses, :meth:`~repro.chaos.schedule.SlotState.schedule`; slot regrowth is append-only
  (retired slots stay holes, as above), and no ghost data is copied --
  ghost buffers are executor scratch, refilled by every sweep's gather;
* nothing is copied to remember the old indirection values: the diff
  reads them off the saved product at the dirty positions only, and a
  patched pattern's executor caches are built lazily by its first
  execution, like a fresh inspection's;
* pattern groups that hold one layout (the same input objects,
  :meth:`~repro.core.inspector.InspectorProduct.layout_key` -- e.g. the
  x- and y-patterns of one edge loop) are computed **once**: the second
  group runs the same group driver on the first's stage values (its
  frozen charges included) and takes the first's new schedule and
  arrays themselves, halving patch wall time.

``benchmarks/bench_table_adapt.py`` gates this: patch wall must beat
full-re-inspection wall at the smallest churn fraction, and the
patch/full wall ratio should shrink with churn.

The same retire/append discipline extends to **repartitioning**:
:func:`repro.distribution.irregular.repartition_stable` keeps every
unmoved element's (owner, local offset) across a load-balance step, so
:func:`repro.chaos.remap.patch_remap_schedule` builds the array-remap
schedule from the migration delta alone -- the mapper/coupler epoch
loop patches its remaps the way refinement epochs patch their
schedules.
"""

from repro.adapt.diff import expand_ranges, old_targets, ranges_from_positions
from repro.adapt.driver import AdaptiveExecutor, IncrementalInspector
from repro.adapt.patch import patch_product
from repro.adapt.state import GroupState, LoopAdaptState, build_adapt_state

__all__ = [
    "AdaptiveExecutor",
    "IncrementalInspector",
    "GroupState",
    "LoopAdaptState",
    "build_adapt_state",
    "patch_product",
    "expand_ranges",
    "old_targets",
    "ranges_from_positions",
]
