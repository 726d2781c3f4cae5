"""The runtime context compiler-generated code drives.

``IrregularProgram`` owns one simulated machine plus the global state the
paper's scheme needs: the modification registry (``nmod``/``last_mod``),
per-loop inspector records, named decompositions/arrays/GeoCoL graphs,
and a translation-table cache.  Its methods correspond one-to-one to the
code blocks the Fortran 90D compiler emits (Figure 6):

=====================  =====================================  ==========
method                 directive / transformation             phase name
=====================  =====================================  ==========
``decomposition``      DECOMPOSITION                          --
``distribute``         DISTRIBUTE                             --
``array``              ALIGN (+ data definition)              --
``construct``          CONSTRUCT -> K1 (GeoCoL generation)    graph_generation
``set_distribution``   SET..BY PARTITIONING..USING -> K2/K3   partition
``redistribute``       REDISTRIBUTE -> K4 (remap)             remap
``forall``             FORALL -> inspector + executor         inspector / executor
=====================  =====================================  ==========

With ``track=True`` (default) the context maintains the runtime record of
possible array modifications and performs the conservative reuse check
before every inspector -- the compiled path.  ``track=False`` is the
hand-coded baseline: no bookkeeping is charged, and schedule reuse is
whatever the caller arranges manually.

How a loop gets its inspector product is decided in one place,
:meth:`IrregularProgram.inspect` -- the ladder ``reuse -> patch -> full``,
the only caller of ``run_inspector`` and the only writer of ``records``;
it records the rung taken and why each cheaper rung was refused.
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.remap import remap_arrays, remap_arrays_incremental
from repro.chaos.transcache import TranslationCache
from repro.chaos.ttable import TableCache
from repro.core.dad import DAD
from repro.core.forall import ForallLoop
from repro.core.geocol import GeoCoL, construct_geocol
from repro.core.inspector import run_inspector
from repro.core.executor import run_executor
from repro.core.mapper import partition_geocol
from repro.core.records import InspectorRecord
from repro.core.reuse import can_reuse
from repro.core.timestamps import ModificationRegistry, ranges_from_positions
from repro.distribution.base import Distribution
from repro.distribution.decomposition import Decomposition
from repro.distribution.distarray import DistArray
from repro.distribution.irregular import IrregularDistribution, repartition_stable
from repro.distribution.regular import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
)
from repro.machine.machine import Machine
from repro.obs import EventBus, MetricsSnapshot, Tracer, export_trace

#: integer ops charged per tracked array for one runtime-record check
CHECK_IOPS_PER_ARRAY = 15.0
#: integer ops charged for stamping one writing block into the registry
RECORD_WRITE_IOPS = 8.0


class IrregularProgram:
    """Runtime context: machine + arrays + the paper's global records."""

    def __init__(
        self,
        machine: Machine,
        iter_method: str = "almost_owner",
        ttable_variant: str = "auto",
        executor_overhead: float = 1.0,
        track: bool = True,
        merge_communication: bool = False,
        coalesce_patterns: bool = True,
        incremental: bool = False,
        guard: str | None = None,
        translation_cache: str = "on",
        obs: str | None = None,
    ):
        """``coalesce_patterns`` (default on) applies PARTI's incremental-
        schedule optimization inside the inspector; pass ``False`` to
        opt out (one schedule per access pattern, the historical
        baseline the coalescing ablation measures).

        ``incremental=True`` enables the ``repro.adapt`` subsystem: when
        the conservative reuse check fails only because indirection
        *values* changed, the saved inspector product is diffed and
        patched instead of rebuilt (falling back to the full inspector
        when more than ``repro.adapt.driver.MAX_CHANGE_FRACTION`` of the
        tracked indirection elements changed, or when no region
        information is available).  Requires ``track=True``.

        ``guard`` selects runtime invariant checking (``"off"`` /
        ``"cheap"`` / ``"full"``; see ``repro.guard``): inspector
        products are verified after every full inspection and after
        every incremental patch, and at ``"full"`` gathered ghost data
        is content-checked against the owners each executor run.  All
        checks are host-level -- simulated numbers stay bit-identical
        at every level.  ``None`` (default) reads the ``REPRO_GUARD``
        environment variable, falling back to ``"off"``.

        ``translation_cache`` (``"on"``, the default, or ``"off"``)
        selects the persistent cross-execution
        :class:`~repro.chaos.transcache.TranslationCache`: translation
        products (owner/offset arrays, dedup inverses, schedules,
        iteration partitions) are keyed by
        content versions and reused across inspections, with the cold
        run's simulated charges replayed verbatim on every hit.  Purely
        a host-wall optimization -- simulated numbers are bit-identical
        either way.

        ``obs`` (``"on"`` / ``"off"``; ``None`` reads ``REPRO_OBS``,
        default ``"off"``) enables host-side span tracing: a
        :class:`~repro.obs.Tracer` is installed on ``machine.obs`` and
        the inspector/executor/adapt/guard seams record wall-time spans
        into its bounded buffer (see :mod:`repro.obs`).  Purely
        host-level -- simulated numbers are bit-identical either way."""
        if translation_cache not in ("on", "off"):
            raise ValueError(
                f"unknown translation_cache mode {translation_cache!r}; "
                "choose on | off"
            )
        if incremental and not track:
            raise ValueError(
                "incremental inspection needs the runtime modification "
                "record; pass track=True"
            )
        if obs is None:
            obs = os.environ.get("REPRO_OBS", "off")
        if obs not in ("on", "off"):
            raise ValueError(f"unknown obs mode {obs!r}; choose on | off")
        self.machine = machine
        self.obs = obs
        if obs == "on" and not machine.obs.enabled:
            machine.obs = Tracer()
        self.iter_method = iter_method
        self.ttable_variant = ttable_variant
        self.executor_overhead = executor_overhead
        self.track = track
        self.merge_communication = merge_communication
        self.coalesce_patterns = coalesce_patterns
        self.translation_cache = (
            TranslationCache() if translation_cache == "on" else None
        )
        if guard is None:
            guard = os.environ.get("REPRO_GUARD", "off")
        # guard sits above core in the layering (its checkpoint layer
        # imports core), so the validator is pulled in lazily
        from repro.guard.invariants import check_level

        self.guard = check_level(guard)
        #: the program's structured-event stream; guard detections,
        #: adapt fallbacks, and (in serve) job lifecycle all land here
        self.events = EventBus()
        self.registry = ModificationRegistry()
        self.arrays: dict[str, DistArray] = {}
        self.decomps: dict[str, Decomposition] = {}
        self.geocols: dict[str, GeoCoL] = {}
        self.distfmts: dict[str, Distribution] = {}
        self.records: dict[str, InspectorRecord] = {}
        self.ttables = TableCache()
        if incremental:
            # core stays importable without adapt; the subsystem sits
            # above core in the layering and is pulled in on demand
            from repro.adapt.driver import IncrementalInspector

            self.adapt = IncrementalInspector(self)
        else:
            self.adapt = None
        # statistics the benches report
        self.inspector_runs = 0
        self.reuse_hits = 0
        self.patch_hits = 0
        self.geocol_reuse_hits = 0
        #: how the most recent ``inspect`` got its product (see there)
        self.last_resolution: dict | None = None

    # ------------------------------------------------------------------
    # Fortran D data declarations
    # ------------------------------------------------------------------
    def decomposition(self, name: str, size: int) -> Decomposition:
        """DECOMPOSITION name(size)."""
        if name in self.decomps:
            raise ValueError(f"decomposition {name!r} already declared")
        dec = Decomposition(name, size)
        self.decomps[name] = dec
        return dec

    def distribute(self, decomp: str, spec) -> None:
        """DISTRIBUTE decomp(spec); spec is "block", "cyclic",
        ("block_cyclic", b), or a Distribution instance."""
        dec = self._decomp(decomp)
        dec.distribute(self._resolve_spec(dec.size, spec))

    def _resolve_spec(self, size: int, spec) -> Distribution:
        n = self.machine.n_procs
        if isinstance(spec, Distribution):
            return spec
        if spec == "block":
            return BlockDistribution(size, n)
        if spec == "cyclic":
            return CyclicDistribution(size, n)
        if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "block_cyclic":
            return BlockCyclicDistribution(size, n, spec[1])
        if isinstance(spec, str) and spec in self.distfmts:
            return self.distfmts[spec]
        raise ValueError(f"unknown distribution spec {spec!r}")

    def distribute_by_map(self, decomp: str, map_array: str) -> None:
        """DISTRIBUTE decomp(map): the paper's Figure 3 mechanism.

        "An irregular distribution is specified using an integer array;
        when map(i) is set equal to p, element i of the distribution
        irreg is assigned to processor p."  The map array must already
        be declared, aligned and filled with processor ids.
        """
        dec = self._decomp(decomp)
        marr = self._array(map_array)
        if not np.issubdtype(marr.dtype, np.integer):
            raise ValueError(
                f"map array {map_array!r} must be INTEGER, has {marr.dtype}"
            )
        if marr.size != dec.size:
            raise ValueError(
                f"map array {map_array!r} has size {marr.size}, "
                f"decomposition {decomp!r} has size {dec.size}"
            )
        owners = marr.to_global().astype(np.int64)
        dist = IrregularDistribution(owners, self.machine.n_procs)
        # building the distribution from a distributed map array costs a
        # gather of the map fragments (modeled as an allgather)
        from repro.machine.collectives import allgather_cost

        allgather_cost(
            self.machine,
            -(-dec.size // self.machine.n_procs) * DEFAULT_COSTS.index_bytes,
        )
        if dec.arrays:
            # live arrays: DISTRIBUTE after ALIGN means a remap
            self.redistribute(decomp, dist)
        else:
            dec.distribute(dist)

    def array(
        self, name: str, decomp: str, values=None, dtype=np.float64
    ) -> DistArray:
        """Declare an array and ALIGN it with a decomposition."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already declared")
        dec = self._decomp(decomp)
        if dec.distribution is None:
            raise ValueError(f"decomposition {decomp!r} is not distributed yet")
        if values is not None:
            arr = DistArray.from_global(
                self.machine, dec.distribution, np.asarray(values), name=name
            )
        else:
            arr = DistArray(self.machine, dec.distribution, dtype=dtype, name=name)
        dec.align(arr)
        self.arrays[name] = arr
        if self.track:
            self._record_write(
                [arr], regions=[np.array([[0, arr.size]], dtype=np.int64)]
            )
        return arr

    def set_array(self, name: str, values) -> None:
        """Overwrite an array's contents (a writing statement/intrinsic).

        The write is stamped with the full ``[0, size)`` region: the
        incremental inspector may still diff it against the saved product
        (whole-array rewrites of mostly-unchanged values are exactly the
        adaptive-mesh pattern), unlike writes with no region info, which
        force a full re-inspection.
        """
        arr = self._array(name)
        values = np.asarray(values)
        if values.shape != (arr.size,):
            raise ValueError(
                f"expected shape ({arr.size},), got {values.shape}"
            )
        arr.set_global(values.astype(arr.dtype, copy=False))
        self.machine.charge_compute_all(
            mem=arr.distribution.local_sizes().astype(np.float64)
        )
        if self.track:
            self._record_write(
                [arr], regions=[np.array([[0, arr.size]], dtype=np.int64)]
            )

    def set_array_elements(self, name: str, positions, values) -> None:
        """Write individual elements (a scattered writing statement).

        ``positions`` are global indices, ``values`` the new contents.
        The write is stamped with the minimal range cover of the touched
        positions, so the incremental inspector diffs only the touched
        window.  Owners are charged one memory access per written
        element.
        """
        arr = self._array(name)
        positions = np.asarray(positions)
        if positions.size == 0:
            raise ValueError(
                f"empty update for array {name!r}: no positions given"
            )
        if not np.issubdtype(positions.dtype, np.integer):
            raise ValueError(
                f"positions for array {name!r} must be integers, "
                f"got dtype {positions.dtype}"
            )
        if positions.ndim != 1:
            raise ValueError(
                f"positions for array {name!r} must be 1-D, "
                f"got shape {positions.shape}"
            )
        positions = positions.astype(np.int64, copy=False)
        values = np.asarray(values)
        if positions.shape != values.shape:
            raise ValueError(
                f"positions shape {positions.shape} != values shape {values.shape}"
            )
        if positions.min() < 0 or positions.max() >= arr.size:
            raise ValueError(
                f"positions out of range for array {name!r} of size {arr.size}"
            )
        if not np.can_cast(values.dtype, arr.dtype, casting="same_kind"):
            raise ValueError(
                f"cannot safely write {values.dtype} values into array "
                f"{name!r} of dtype {arr.dtype}"
            )
        arr.global_set(positions, values.astype(arr.dtype, copy=False))
        owners = np.asarray(arr.distribution.owner(positions), dtype=np.int64)
        self.machine.charge_compute_all(
            mem=np.bincount(owners, minlength=self.machine.n_procs).astype(
                np.float64
            )
        )
        if self.track:
            self._record_write([arr], regions=[ranges_from_positions(positions)])

    # ------------------------------------------------------------------
    # Section 4 directives
    # ------------------------------------------------------------------
    def construct(
        self,
        name: str,
        n_vertices: int,
        geometry: list[str] | None = None,
        load: str | None = None,
        link: tuple[str, str] | None = None,
    ) -> GeoCoL:
        """CONSTRUCT name (n, GEOMETRY(...), LOAD(...), LINK(...)).

        With tracking enabled, an unchanged GeoCoL (same source DADs and
        modification stamps) is reused rather than regenerated -- the
        Section 3 mechanism applied to mapper coupling.
        """
        geo_arrays = [self._array(a) for a in geometry] if geometry else None
        load_array = self._array(load) if load else None
        link_arrays = (
            (self._array(link[0]), self._array(link[1])) if link else None
        )
        if self.track and name in self.geocols:
            old = self.geocols[name]
            self.machine.charge_compute_all(
                iops=CHECK_IOPS_PER_ARRAY * max(len(old.source_dads), 1)
            )
            if self._geocol_fresh(old):
                self.geocol_reuse_hits += 1
                return old
        with self.machine.phase("graph_generation"):
            g = construct_geocol(
                self.machine,
                name,
                n_vertices,
                geometry=geo_arrays,
                load=load_array,
                link=link_arrays,
            )
        g.source_last_mod = {
            aname: self.registry.last_mod(dad)
            for aname, dad in g.source_dads.items()
        }
        self.geocols[name] = g
        return g

    def _geocol_fresh(self, g: GeoCoL) -> bool:
        for aname, dad in g.source_dads.items():
            arr = self.arrays.get(aname)
            if arr is None or DAD.of(arr) != dad:
                return False
            if self.registry.last_mod(DAD.of(arr)) != g.source_last_mod.get(aname):
                return False
        return True

    def set_distribution(
        self,
        target: str,
        geocol: str,
        partitioner,
        n_parts: int | None = None,
        **kwargs,
    ) -> Distribution:
        """SET target BY PARTITIONING geocol USING partitioner."""
        try:
            g = self.geocols[geocol]
        except KeyError:
            raise KeyError(f"GeoCoL {geocol!r} was never constructed") from None
        with self.machine.phase("partition"):
            dist, _ = partition_geocol(
                self.machine, g, partitioner, n_parts, **kwargs
            )
        self.distfmts[target] = dist
        return dist

    def redistribute(self, decomp: str, fmt=None, *, moved=None) -> None:
        """REDISTRIBUTE decomp(fmt): remap every aligned array.

        ``fmt`` is a name stored by :meth:`set_distribution` or a
        Distribution instance.  Alternatively pass ``moved=(gidx,
        to_proc)`` -- an element-move delta, as a load balancer emits --
        and the new distribution is derived with
        :func:`~repro.distribution.irregular.repartition_stable` and the
        arrays remapped through a **patched** schedule whose cost is
        proportional to the number of elements that move, not the array
        size (the mapper/coupler epoch loop of the paper's Table 2).
        """
        obs = self.machine.obs
        with obs.span("redistribute", decomp=decomp):
            dec = self._decomp(decomp)
            # remap content verification: at guard "full" always, and at any
            # level while faults are being injected (mirrors the post-gather
            # check).  host-level -- charges nothing.
            verify = dec.arrays and (
                self.machine.faults is not None or self.guard == "full"
            )
            before = (
                {arr.name: arr.to_global() for arr in dec.arrays} if verify else None
            )
            if moved is not None:
                if fmt is not None:
                    raise ValueError("pass either fmt or moved=, not both")
                if dec.distribution is None:
                    raise ValueError(
                        f"decomposition {decomp!r} is not distributed yet"
                    )
                move_g, move_to = moved
                with obs.span("distribution.repartition", n_moves=int(np.size(move_g))):
                    new_dist, plan = repartition_stable(
                        dec.distribution, move_g, move_to
                    )
                remap = partial(remap_arrays_incremental, dec.arrays, new_dist, plan)
            else:
                new_dist = (
                    self.distfmts[fmt]
                    if isinstance(fmt, str) and fmt in self.distfmts
                    else self._resolve_spec(dec.size, fmt)
                )
                if new_dist.size != dec.size:
                    raise ValueError(
                        f"distribution size {new_dist.size} != decomposition "
                        f"{decomp!r} size {dec.size}"
                    )
                remap = partial(remap_arrays, dec.arrays, new_dist)
            with self.machine.phase("remap"):
                if dec.arrays:
                    with obs.span(
                        "remap.arrays",
                        n_arrays=len(dec.arrays),
                        incremental=moved is not None,
                    ):
                        remap()
                old, dec.distribution = dec.distribution, new_dist
            if old is not None and old.signature() != new_dist.signature():
                # the left layout's tables keep only their keys
                self.ttables.supersede([arr.name for arr in dec.arrays], old.signature())
            if verify:
                self._verify_remap(dec.arrays, before)
            if self.track:
                for arr in dec.arrays:
                    self.registry.record_remap(DAD.of(arr))
                self.machine.charge_compute_all(
                    iops=RECORD_WRITE_IOPS * max(len(dec.arrays), 1)
                )

    def _verify_remap(self, arrays, before: dict) -> None:
        """Content-check a redistribution; repair divergences host-level.

        A remap moves data between processors but never changes any
        array's *global* contents, so the assembled global view before
        and after must match bit for bit.  Divergent positions (wire
        faults on the moved data, a desynchronized patched schedule) are
        repaired from the host-side pre-remap snapshot -- uncharged, the
        analogue of the executor's post-gather re-gather -- and recorded
        in ``guard_events``.
        """
        from repro.guard.errors import InvariantViolation

        for arr in arrays:
            ref = before[arr.name]
            bad = np.flatnonzero(arr.global_view() != ref)
            if not bad.size:
                continue
            dist = arr.distribution
            pos = (
                bad
                if dist.global_perm_is_identity()
                else dist.global_perm_inverse()[bad]
            )
            arr.backing_mut()[pos] = ref[bad]
            still = np.flatnonzero(arr.global_view() != ref)
            self.events.emit(
                "guard",
                "remap_divergence",
                {
                    "event": "remap_divergence",
                    "array": arr.name,
                    "n_bad": int(bad.size),
                    "recovered": not still.size,
                },
            )
            if still.size:
                raise InvariantViolation(
                    f"remap of array {arr.name!r} diverges from its "
                    f"pre-remap contents at {int(still.size)} position(s) "
                    "and the host-level repair did not fix it"
                )

    # ------------------------------------------------------------------
    # FORALL
    # ------------------------------------------------------------------
    def forall(self, loop: ForallLoop, n_times: int = 1, reuse: bool = True) -> None:
        """Run a FORALL loop ``n_times``.

        ``reuse=True`` (the paper's mechanism): before each run the saved
        inspector record is checked against the runtime modification
        record and reused when valid.  ``reuse=False``: the inspector is
        repeated before every execution (Table 1's "No Schedule Reuse").
        """
        if n_times < 0:
            raise ValueError(f"negative execution count {n_times}")
        obs = self.machine.obs
        for _ in range(n_times):
            product = self.inspect(loop, reuse)
            with obs.span("execute", loop=loop.name):
                with self.machine.phase("executor"):
                    run_executor(
                        self.machine,
                        product,
                        self.arrays,
                        n_times=1,
                        overhead_factor=self.executor_overhead,
                        merge_communication=self.merge_communication,
                        guard=self.guard,
                        events=self.events,
                    )
            del product  # the next inspection's full rung may free it
            if self.track:
                # a FORALL writes (at most) the whole target array: stamp
                # the full region so an indirection sharing the DAD can
                # still be diffed instead of forcing a full re-inspection
                written = [self.arrays[a] for a in loop.written_arrays()]
                self._record_write(
                    written,
                    regions=[
                        np.array([[0, a.size]], dtype=np.int64) for a in written
                    ],
                )

    def inspect(self, loop: ForallLoop, reuse: bool = True):
        """Resolve ``loop``'s inspector product: the one product ladder.

        Cheapest rung first: **reuse** (the saved record passes the
        Section 3 check; ``track=False`` trusts the caller's ``reuse``),
        **patch** (``incremental=True``: ``repro.adapt`` repairs a pure
        condition-3 failure), **full** (``run_inspector``; a warm
        ``TranslationCache`` hit is this rung with ``cache_misses == 0``).
        ``reuse=False`` goes straight to the full rung (Table 1's "No
        Schedule Reuse"; the hand path's manual inspection).  Any
        resolution but a reuse hit first prunes the translation cache's
        entries of superseded content (``TranslationCache.prune``).

        The decision is kept as ``last_resolution`` -- ``{"loop", "rung",
        "refused": {rung: reason}, "cache_hits", "cache_misses",
        "host_seconds"}`` (host wall of the whole decision, *not*
        simulated time; the adaptive driver's history records it) -- and,
        unless it is a plain reuse hit (those stay the ``reuse_hits``
        counter), emitted once on the bus as ``product.resolved``.
        """
        t0 = time.perf_counter()
        machine, obs = self.machine, self.machine.obs
        record = self.records.get(loop.name) if reuse else None
        product, rung, refused = None, "full", {}
        hits = misses = 0
        with obs.span("inspect", loop=loop.name) as span:
            if record is not None:
                # hand-coded path: caller asked for reuse, trust it
                decision = True
                if self.track:
                    machine.charge_compute_all(
                        iops=CHECK_IOPS_PER_ARRAY * len(record.tracked_arrays())
                    )
                    decision = can_reuse(record, self.arrays, self.registry)
                if decision:
                    product, rung = record.product, "reuse"
                    self.reuse_hits += 1
                    obs.counter("inspect.reuse_hits")
                else:
                    refused["reuse"] = decision.reason
            if product is None:
                cache = self.translation_cache
                if cache is not None:
                    # off the reuse-hit path: drop entries of superseded content
                    cache.prune({a.uid: a.version for a in self.arrays.values()})
                if record is not None and self.adapt is not None:
                    # a pure condition-3 failure may be diffed + patched
                    product = self.adapt.attempt(loop, record, decision)
                    if product is not None:
                        rung = "patch"
                        self.patch_hits += 1
                        self._save_record(loop, product)
                    else:  # attempt emitted one adapt.fallback saying why
                        refused["patch"] = self.events.category("adapt.fallback")[-1].name
            if product is None:
                # free the superseded product, and what only it needs,
                # before the full rung builds its replacement
                record = None
                self.records.pop(loop.name, None)
                probes = (cache.hits, cache.misses) if cache is not None else (0, 0)
                with obs.span("inspector.run", loop=loop.name), machine.phase("inspector"):
                    product = run_inspector(
                        machine,
                        loop,
                        self.arrays,
                        iter_method=self.iter_method,
                        ttable_variant=self.ttable_variant,
                        ttables=self.ttables,
                        coalesce_patterns=self.coalesce_patterns,
                        cache=cache,
                    )
                if cache is not None:
                    hits, misses = cache.hits - probes[0], cache.misses - probes[1]
                self.inspector_runs += 1
                if self.guard != "off":
                    # host-level, uncharged -- outside the inspector phase
                    from repro.guard.invariants import verify_product

                    with obs.span("guard.verify_product", loop=loop.name):
                        verify_product(product, self.arrays, self.guard)
                self._save_record(loop, product)
                if self.adapt is not None:
                    # charge the slot bookkeeping future patches read
                    # (inspector-phase work: it only exists to serve inspection)
                    with machine.phase("inspector"):
                        self.adapt.after_inspect(loop, self.records[loop.name])
            span.set(rung=rung)
        self.last_resolution = {
            "loop": loop.name,
            "rung": rung,
            "refused": refused,
            "cache_hits": hits,
            "cache_misses": misses,
            "host_seconds": time.perf_counter() - t0,
        }
        if rung != "reuse":
            self.events.emit("product.resolved", rung, self.last_resolution)
        return product

    def _save_record(self, loop: ForallLoop, product) -> None:
        """Save the Section 3 record of a full or patched inspection, and
        drop the dirty events every record over its indirection DADs has
        seen (a record asks only for events past its own stamp)."""
        ind_dads = {a: DAD.of(self.arrays[a]) for a in loop.indirection_arrays()}
        self.records[loop.name] = InspectorRecord(
            loop_name=loop.name,
            data_dads={a: DAD.of(self.arrays[a]) for a in loop.data_arrays()},
            ind_dads=ind_dads,
            ind_last_mod={a: self.registry.last_mod(d) for a, d in ind_dads.items()},
            product=product,
        )
        for dad in set(ind_dads.values()):
            self.registry.drop_events(dad, min(
                rec.ind_last_mod[a]
                for rec in self.records.values()
                for a, d in rec.ind_dads.items()
                if d.signature == dad.signature
            ))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record_write(self, arrays: list[DistArray], regions=None) -> None:
        dads = [DAD.of(a) for a in arrays]
        self.registry.record_block_write(dads, regions=regions)
        self.machine.charge_compute_all(iops=RECORD_WRITE_IOPS * max(len(dads), 1))

    def _decomp(self, name: str) -> Decomposition:
        try:
            return self.decomps[name]
        except KeyError:
            raise KeyError(f"decomposition {name!r} was never declared") from None

    def _array(self, name: str) -> DistArray:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"array {name!r} was never declared") from None

    def phase_time(self, name: str) -> float:
        return self.machine.phase_time(name)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def guard_events(self) -> list[dict]:
        """Guard detections/recoveries so far (remap and executor-side
        gather divergences): the ``"guard"`` category of ``self.events``
        as a plain list.  Patch fallbacks are ``self.adapt.fallback_log``."""
        return self.events.payloads("guard")

    def obs_snapshot(self) -> MetricsSnapshot:
        """Unified host + simulated metrics for this program's run."""
        return MetricsSnapshot.collect(
            self.machine, bus=self.events, cache=self.translation_cache
        )

    def export_obs(self, path: str, fmt: str = "jsonl") -> str:
        """Export the machine's trace buffer + event bus to ``path``.

        ``fmt`` is ``"jsonl"`` or ``"chrome"`` (Perfetto-loadable); see
        :mod:`repro.obs.export`.  Works with obs off too (spans empty,
        events still present).
        """
        return export_trace(
            path,
            self.machine.obs,
            bus=self.events,
            meta={
                "n_procs": self.machine.n_procs,
                "obs": self.obs,
                "simulated_total": float(self.machine.elapsed()),
            },
            fmt=fmt,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IrregularProgram(procs={self.machine.n_procs}, "
            f"arrays={len(self.arrays)}, loops={len(self.records)}, "
            f"nmod={self.registry.nmod})"
        )
