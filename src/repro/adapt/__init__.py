"""``repro.adapt``: incremental inspection for adaptive codes.

The paper's Section 3 reuse check is binary: if *any* write may have
touched an indirection array's DAD since loop L was inspected, L's whole
inspector re-runs.  Adaptive codes (mesh refinement, repartitioning MD
pair lists) modify a few percent of an indirection array every few dozen
time steps and pay the full inspector each time.  This subsystem is the
CHAOS-lineage follow-on: when the conservative check fails *only*
because indirection values changed (condition 3, with every DAD intact),
it diffs the current indirection values against a snapshot taken at the
last inspection, computes exactly which references moved, and **patches**
the saved :class:`~repro.core.inspector.InspectorProduct` -- re-voting
only the changed iterations, translating only the added references (one
``dereference_flat`` over the delta), and retiring/appending ghost slots
in place -- while charging the simulated machine only for the delta
work.  The patched product is equivalent to a from-scratch inspection:
same iteration partition, same ghost sets, same communication pairs and
wire contents, bit-identical executor results and executor charges.

Layout contract (mirrors ``buffers.py``/``distarray.py``)
---------------------------------------------------------
Per pattern *group* (the patterns sharing one coalesced schedule), ghost
slots live in one CSR slot space: processor ``p`` owns slots
``slot_bounds[p]:slot_bounds[p+1]`` and slot ``s`` of ``p`` has global
slot id ``slot_bounds[p] + s``.  Patching is **append-only with holes**:

* a retained ghost keeps its per-processor slot index forever -- saved
  localized reference lists, schedule recv slots, and ghost-buffer
  positions for unchanged references stay valid across any number of
  patches;
* a ghost whose reference count drops to zero is *retired* in place:
  its slot becomes a hole (it leaves the schedule, its contents are
  never read again) but later slots do not shift;
* new ghosts first *reuse* holes (ascending slot order within each
  processor), then *append* at the end of the processor's region, so a
  region only ever grows by the number of never-before-seen ghosts.

``GroupState`` tracks, per global slot id: the ghost's global array
index (``keys``; stale in holes until reused), its owner and owner-local
offset (``owners``/``lidx``; valid while the distribution signature is
unchanged, which conditions 1-2 guarantee), and the live reference count
(``counts``; 0 marks a hole).  A patched
:class:`~repro.chaos.localize.LocalizeResult` stores the full slot-space
``ghost_flat`` with holes marked ``-1``.

State lifetime: captured by reference, built on first use
---------------------------------------------------------
A full inspection does not build ``LoopAdaptState``.  It records a
:class:`~repro.adapt.state.PendingState` -- the fresh product, every
indirection array's frozen ``global_view()`` and every data array's
``Distribution``, all by reference (O(1)) -- and charges the simulated
bookkeeping cost right there, inside the inspector phase, because the
*modelled* runtime does that work when it inspects.  The O(refs) host
build (:func:`~repro.adapt.state.build_adapt_state`) runs when a reader
first asks :meth:`IncrementalInspector.state_for`: a patch attempt that
passed every routing check, post-patch verification, or a checkpoint
save.  It reads only the capture, so later writes and remaps cannot
leak in: the state equals what an eager build would have produced.  A
loop re-inspected every step over unchanged content, or whose products
a remap voids, never builds; a typed patch failure, a restore, or the
next full inspection drops or replaces the capture.  Each build is
visible: an ``adapt.state.build_adapt_state`` span, one ``adapt.state``
event with the reader as ``reason``, and
``AdaptiveExecutor.history[...]["state_build_wall_seconds"]``.

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
  live slots, in the merged index's order) by the one ``CommSchedule``
  constructor a cold inspection uses, and ghost buffers are regrown
  append-only (retired slots stay holes, as above);
* executor caches (``exec_space``/``exec_refs``) are carried across the
  patch and overwritten only at delta positions
  (:func:`repro.core.executor.patch_exec_caches`);
* pattern groups with provably identical communication structure (same
  distribution, element-equal indirection state -- e.g. the x- and
  y-patterns of one edge loop) are computed **once**: the second group
  runs the same group driver on the first's stage values (its frozen
  charges included) and wraps the shared arrays under a distinct
  schedule identity (``CommSchedule.twin``), halving patch wall time.

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

from repro.adapt.diff import expand_ranges, ranges_from_positions
from repro.adapt.driver import AdaptiveExecutor, IncrementalInspector
from repro.adapt.patch import patch_product
from repro.adapt.state import (
    GroupState,
    LoopAdaptState,
    PendingState,
    build_adapt_state,
)

__all__ = [
    "AdaptiveExecutor",
    "IncrementalInspector",
    "GroupState",
    "LoopAdaptState",
    "PendingState",
    "build_adapt_state",
    "patch_product",
    "expand_ranges",
    "ranges_from_positions",
]
