"""The inspector: preprocessing for one FORALL loop (Phases B and D).

For a loop L the inspector

1. partitions L's iterations (Phase B, Section 4.3),
2. for every distinct access pattern ``array(index(i))`` appearing in L,
   builds the reference list each processor's iterations generate,
   localizes it (translation, deduplication, ghost-slot assignment) and
   builds the communication schedule (Phase D), and
3. charges the allocation of each pattern's ghost buffers.

The returned :class:`InspectorProduct` is exactly what the paper's reuse
mechanism saves: "communication schedules, loop iteration partitions,
information that associates off-processor data copies with on-processor
buffer locations".  It holds layout only -- each group's slot state
(ghost keys, owners, offsets), the schedule read off it and the localized
references; the copies themselves are sweep scratch of the executor
(``repro.core.executor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.localize import FlatRefs, LocalizeResult, localize
from repro.chaos.transcache import TranslationCache
from repro.chaos.ttable import TableCache
from repro.core import cachekey
from repro.core.forall import Assign, ForallLoop
from repro.core.iteration import (
    IterationPartition,
    partition_cache_key,
    partition_iterations,
)
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine


class PatternArrays:
    """Host-derived flat arrays of one access pattern (never charged).

    Everything here is a pure function of one localize product plus the
    iteration partition it was gathered under, so a single holder serves
    every :class:`PatternData` built from the same
    :class:`~repro.chaos.transcache.TranslationCache` entry: each warm
    re-inspection's throw-away product, and the sibling ``x(edge(i))`` /
    ``y(edge(i))`` patterns inside one inspection (the entry's
    ``derived`` dict holds it under the pattern's index).

    ``refs_flat`` / ``ref_bounds`` are the pattern's localized
    references -- its flat slice of a coalesced reference list.
    ``exec_space`` (the executor's combined-space selectors, see
    ``repro.core.executor``) and ``exec_refs`` (the combined-space
    positions) are kept only from the holder's second finished
    execution on: ``ran`` records that one finished, so a product that
    runs once (a patched one, one built on the miss path) keeps neither.
    All arrays are frozen.
    """

    __slots__ = ("refs_flat", "ref_bounds", "exec_space", "exec_refs", "ran")

    def __init__(self, refs_flat: np.ndarray, ref_bounds: np.ndarray):
        refs_flat.flags.writeable = False
        ref_bounds.flags.writeable = False
        self.refs_flat = refs_flat
        self.ref_bounds = ref_bounds
        self.exec_space = None
        self.exec_refs: np.ndarray | None = None
        self.ran = False


@dataclass
class PatternData:
    """Inspector output for one distinct ``array(index(i))`` pattern.

    Under pattern coalescing (PARTI's incremental-schedule optimization)
    several patterns on the same array share one ``LocalizeResult``
    *schedule* and one ghost region; each pattern keeps its own
    ``localized`` view whose ``refs_flat`` index the shared space.

    ``derived`` (:class:`PatternArrays`) also holds the executor's
    caches; it outlives the product when it came from a translation
    cache entry, so re-inspecting an unchanged pattern every time step
    reuses them like the schedule-reuse scenarios do.
    """

    array: str
    index: str | None
    localized: LocalizeResult
    derived: PatternArrays | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.derived is None:
            self.derived = PatternArrays(
                self.localized.refs_flat, self.localized.ref_bounds
            )


def group_members(group: tuple[str, tuple]) -> list[tuple[str, str | None]]:
    """The pattern keys of ``group``: ``(array, index)`` per index."""
    return [(group[0], ix) for ix in group[1]]


@dataclass
class InspectorProduct:
    """Saved inspector results for one loop (the reusable artifact).

    ``groups`` names the pattern groups -- the patterns localized
    together, sharing one schedule and ghost region -- as ``(array,
    indexes)`` keys in first-appearance order; group ``(a, (i, j))``
    holds patterns ``(a, i)`` and ``(a, j)``.  A group is its key, not
    its objects: sibling groups over one distribution (``x(edge(i))`` /
    ``y(edge(i))``) may hold the very same layout objects -- the
    translation cache's one entry, or one patch's result.

    ``adapt_state`` is the ``repro.adapt.state.LoopAdaptState`` a patch
    reads (typed loosely: ``repro.core`` never imports ``repro.adapt``),
    and nothing else holds it.  A full inspection's product gets it from
    its first reader; a patched or restored one is born with it.
    """

    loop: ForallLoop
    iteration_partition: IterationPartition
    patterns: dict[tuple[str, str | None], PatternData]
    dist_signatures: dict[str, tuple]
    groups: tuple[tuple[str, tuple[str | None, ...]], ...]
    adapt_state: object = field(default=None, repr=False, compare=False)

    def pattern(self, array: str, index: str | None) -> PatternData:
        return self.patterns[(array, index)]

    def layout_key(self, group: tuple[str, tuple]) -> tuple:
        """What ``group``'s layout is built from: its indexes and the
        identities of its input objects -- the slot state its schedule
        is read off and each member's localized references.
        Groups with equal keys hold one layout, so building their adapt
        state, patching them and verifying them is the same work, done
        once; equal content in distinct objects counts as two layouts.
        Valid while this product holds those objects."""
        locs = [self.patterns[key].localized for key in group_members(group)]
        return (group[1], id(locs[0].slots), *(id(loc.refs_flat) for loc in locs))


def run_inspector(
    machine: Machine,
    loop: ForallLoop,
    arrays: dict[str, DistArray],
    iter_method: str = "almost_owner",
    ttable_variant: str = "auto",
    ttables: TableCache | None = None,
    coalesce_patterns: bool = True,
    cache: TranslationCache | None = None,
) -> InspectorProduct:
    """Run the full inspector for ``loop``.

    ``ttables`` is an optional
    :class:`~repro.chaos.ttable.TableCache`; the program context passes
    its own so repeated inspections of differently-indexed loops over
    the same arrays (or a layout that recurs) don't charge a table twice.

    ``coalesce_patterns=True`` (the default) applies PARTI's
    incremental-schedule idea: all patterns referencing one array are
    localized *together*, so an element reached through two indirections
    is fetched once and the loop gathers one schedule per array instead
    of one per pattern.  Pass ``False`` to opt out (the historical
    per-pattern baseline; ``bench_ablation_coalescing`` measures the
    gap, and the longitudinal bench scenarios pin it for comparability
    with their committed baselines).

    ``cache`` is the persistent cross-execution
    :class:`~repro.chaos.transcache.TranslationCache`: re-inspections of
    unchanged patterns (and unchanged iteration partitions) skip the
    translation/dedup/vote kernels and replay the saved simulated
    charges.  Simulated numbers are bit-identical with or without it.
    """
    for name in loop.data_arrays() + loop.indirection_arrays():
        if name not in arrays:
            raise KeyError(f"loop {loop.name!r} references unbound array {name!r}")
    # position i of an indirection is iteration i: the reference lists
    # and the patch rung's diff (adapt.diff.old_targets) both rely on it
    for name in loop.indirection_arrays():
        if arrays[name].size != loop.n_iterations:
            raise ValueError(
                f"indirection array {name!r} has size {arrays[name].size}, "
                f"loop {loop.name!r} iterates {loop.n_iterations}"
            )

    # Phase B: iteration partition.  The partition key doubles as a
    # component of every localize key below: reference streams are
    # gathered in iteration order, so equal partition keys are what
    # makes equal indirection content imply equal streams.
    part_key = (
        partition_cache_key(loop, arrays, iter_method, machine.n_procs)
        if cache is not None
        else None
    )
    obs = machine.obs
    with obs.span("inspector.partition", loop=loop.name, method=iter_method):
        itpart = partition_iterations(
            machine, loop, arrays, iter_method, cache=cache, cache_key=part_key
        )

    # Phase D: localize every distinct access pattern
    n_procs = machine.n_procs
    patterns: dict[tuple[str, str | None], PatternData] = {}
    pattern_groups: list[tuple[str, tuple]] = []

    # flattened iteration partition: reference lists stay in flat
    # (values, bounds) form end to end (the partition already stores its
    # flat form; no re-concatenation)
    iter_flat, iter_bounds = itpart.iters_flat()

    def group_refs(group: tuple) -> FlatRefs:
        """Global element indices the iterations touch through the
        group's patterns (only a cold localize asks): per pattern, its
        indirection read at the partition's positions, stacked back to
        back under its bounds -- gathered strip by strip inside
        ``localize``, never assembled here."""
        sources = [
            None
            if index is None
            else np.asarray(arrays[index].global_read(), dtype=np.int64)
            for index in group
        ]
        return FlatRefs.gathered(sources, iter_flat, iter_bounds)

    # distinct patterns per array, in first-appearance order
    by_array: dict[str, list[str | None]] = {}
    for ref in loop.refs():
        idxs = by_array.setdefault(ref.array, [])
        if ref.index not in idxs:
            idxs.append(ref.index)

    # arrays assigned (overwrite semantics) must keep per-pattern ghost
    # regions: a coalesced region would contain never-assigned slots
    # whose staging fill could overwrite owner data on scatter
    assign_targets = {
        s.lhs.array for s in loop.statements if isinstance(s, Assign)
    }

    def loc_cache_key(tt, dist, indexes: tuple) -> "tuple[tuple, tuple] | None":
        """(slot, version) for one localize product, or None when uncached.

        The slot deliberately excludes the data array's *name*: sibling
        arrays referenced through the same indirections over the same
        distribution (``x(edge(i))`` / ``y(edge(i))``) produce
        bit-identical products and share one entry -- a warm hit even
        within a single cold inspection.  The version folds in the full
        partition key: reference streams are gathered in iteration
        order.
        """
        if cache is None:
            return None
        slot = (
            "localize",
            loop.name,
            indexes,
            type(tt).__name__,
            n_procs,
        )
        version = (
            cachekey.dist_key(dist),
            tuple(
                "direct" if ix is None else cachekey.content_key(arrays[ix])
                for ix in indexes
            ),
            part_key,
        )
        return slot, version

    def member_arrays(loc: LocalizeResult, k: int, group: tuple) -> PatternArrays:
        """The ``k``-th member's holder, shared through ``loc.derived``:
        its slice of the group's stacked localized references (a view).

        Host-level only: nothing here may charge the machine (a warm hit
        replays the cold run's recorded charges and nothing else).
        """
        held = loc.derived.get(group[k])
        if cache is not None:
            cache.note_derived(hit=held is not None)
        if held is None:
            refs = loc.refs_flat[k * iter_flat.size : (k + 1) * iter_flat.size]
            held = loc.derived[group[k]] = PatternArrays(refs, iter_bounds)
        return held

    tables = TableCache() if ttables is None else ttables
    for array_name, indexes in by_array.items():
        arr = arrays[array_name]
        tt = tables.get(machine, array_name, arr.distribution, ttable_variant)
        # coalesced: localize the union of all patterns' reference lists
        # and split the localized references back out per pattern
        if coalesce_patterns and array_name not in assign_targets:
            groups = [tuple(indexes)]
        else:
            groups = [(index,) for index in indexes]
        for group in groups:
            with obs.span(
                "inspector.localize", array=array_name, patterns=len(group)
            ):
                loc = localize(
                    machine,
                    tt,
                    lambda group=group: group_refs(group),
                    cache=cache,
                    cache_key=loc_cache_key(tt, arr.distribution, group),
                )
            # the modelled runtime allocates the group's ghost buffers
            machine.charge_compute_all(
                iops=DEFAULT_COSTS.buffer_assign
                * np.asarray(loc.schedule.ghost_sizes, dtype=np.float64)
            )
            pattern_groups.append((array_name, group))
            for k, index in enumerate(group):
                held = member_arrays(loc, k, group)
                view = LocalizeResult(
                    local_sizes=loc.local_sizes,
                    schedule=loc.schedule,
                    refs_flat=held.refs_flat,
                    ref_bounds=held.ref_bounds,
                    slots=loc.slots,
                )
                patterns[(array_name, index)] = PatternData(
                    array=array_name,
                    index=index,
                    localized=view,
                    derived=held,
                )

    dist_signatures = {
        name: arrays[name].distribution.signature()
        for name in loop.data_arrays()
    }
    return InspectorProduct(
        loop=loop,
        iteration_partition=itpart,
        patterns=patterns,
        dist_signatures=dist_signatures,
        groups=tuple(pattern_groups),
    )
