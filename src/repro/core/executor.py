"""The executor: carry out communication and computation (Phase E).

Per execution of a loop's executor:

1. **gather** -- for every pattern the loop reads, prefetch off-processor
   elements into the pattern's ghost buffers (one schedule application);
2. **compute** -- each processor evaluates every statement vectorized
   over its iterations, reading from ``[local segment | ghost buffer]``
   through the localized reference lists; reduction contributions
   accumulate into per-pattern staging (local part + ghost part);
3. **scatter** -- staged off-processor contributions travel back through
   the same schedules and combine at the owners (``scatter_op``), and
   assigned off-processor values are written back (``scatter``).

Phase 2 runs the simulated processors on the host's cores.  The
iterations split into *strips*: runs of whole processors of about
:data:`STRIP_ITERS` iterations, cut only at processor boundaries.  The
dispatching thread materializes everything the strips share first
(combined ``[local | ghost]`` read arrays, reference positions,
staging), then it and a small process-wide thread pool take strips off
one queue.  A strip gathers each distinct read reference once, runs the
loop's statements in program order on its slice and applies their
``ufunc.at`` or store to the staging.  Every staging slot belongs to
exactly one processor, and a strip holds all of that processor's
iterations, so each slot receives the same updates in the same order as
one serial pass over all processors: results, counters and simulated
numbers are bit-identical whatever the strip count or the thread count.
A sweep with one strip -- and every sweep on a host with one usable
CPU -- runs inline and starts no thread.

The machine is charged the loop's declared flops, the indexed-load
memory traffic, and the schedule communication; the Python evaluation
itself is just the simulation vehicle.
"""

from __future__ import annotations

import collections
import os
import threading
import time

import numpy as np

from repro.chaos.gather_scatter import REDUCTION_OPS
from repro.chaos.merge import gather_merged, scatter_op_merged
from repro.core.forall import Reduce
from repro.core.inspector import InspectorProduct
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine
from repro.obs.events import EventBus

#: identity per reduction op, for floating-point staging buffers
_IDENTITY = {"add": 0.0, "multiply": 1.0, "min": np.inf, "max": -np.inf}

#: iterations a compute strip aims for: a strip is the shortest run of
#: whole processors holding at least this many (the last may hold fewer)
STRIP_ITERS = 1 << 16
#: most worker threads the strip pool ever starts
MAX_STRIP_WORKERS = 3


def _staging_fill(kind: str, dtype: np.dtype):
    """The value staging starts from: ``kind``'s identity in ``dtype``
    (assigned staging starts from 0; it is masked at the merge)."""
    if kind in ("min", "max") and dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.max if kind == "min" else info.min
    return _IDENTITY.get(kind, 0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


class _StripPool:
    """The process-wide thread pool that compute strips run on.

    Created on the first sweep with more than one strip, and only on a
    host with more than one usable CPU: ``usable CPUs - 1`` workers
    (at most :data:`MAX_STRIP_WORKERS`), because the dispatching thread
    takes strips too.  A forked child drops the inherited pool, whose
    threads do not exist there, and builds its own on demand.
    """

    _lock = threading.Lock()
    _executor = None
    _workers = None

    @classmethod
    def get(cls):
        """``(executor, n_workers)``, or ``(None, 0)`` on one usable CPU."""
        with cls._lock:
            if cls._workers is None:
                cls._workers = max(0, min(_usable_cpus() - 1, MAX_STRIP_WORKERS))
            if cls._executor is None and cls._workers:
                from concurrent.futures import ThreadPoolExecutor

                cls._executor = ThreadPoolExecutor(
                    cls._workers, thread_name_prefix="repro-strip"
                )
            return cls._executor, cls._workers

    @classmethod
    def forget(cls) -> None:
        """Drop the pool without joining it: a forked child's copy has
        no threads, and its lock may have been held at the fork."""
        cls._lock = threading.Lock()
        cls._executor = None
        cls._workers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_StripPool.forget)


def strip_cuts(iter_bounds: np.ndarray, target: int) -> list[int]:
    """Processor cuts ``[0, ..., P]`` of the compute strips over a
    partition's per-processor iteration bounds (length ``P + 1``): each
    strip is the shortest run of whole processors with ``target``
    iterations or more; the last takes what is left."""
    n_procs = iter_bounds.size - 1
    cuts = [0]
    while cuts[-1] < n_procs:
        p = int(np.searchsorted(iter_bounds, iter_bounds[cuts[-1]] + target))
        cuts.append(min(max(p, cuts[-1] + 1), n_procs))
    return cuts


def _run_strips(run_strip, n_strips: int) -> None:
    """Run ``run_strip(k)`` for every strip ``k``: inline when there is
    one strip or no pool, else on the pool and the calling thread.
    Every strip runs even after one raised; then the error of the
    lowest-numbered failing strip is re-raised as it was raised."""
    todo = collections.deque(range(n_strips))
    errors: list[Exception | None] = [None] * n_strips

    def drain() -> None:
        while True:
            try:
                k = todo.popleft()
            except IndexError:
                return
            try:
                run_strip(k)
            except Exception as exc:
                errors[k] = exc

    pool, workers = _StripPool.get() if n_strips > 1 else (None, 0)
    helpers = [pool.submit(drain) for _ in range(min(workers, n_strips - 1))]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()
    for exc in errors:
        if exc is not None:
            raise exc


def run_executor(
    machine: Machine,
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    n_times: int = 1,
    overhead_factor: float = 1.0,
    merge_communication: bool = False,
    guard: str = "off",
    events: EventBus | None = None,
) -> None:
    """Execute a loop ``n_times`` using saved inspector results.

    ``overhead_factor`` scales the charged compute cost; the compiled
    path passes a value slightly above 1 to model compiler-generated
    (vs. hand-tuned) loop bodies.  ``merge_communication`` applies
    PARTI's schedule-merging optimization: all gather (and all
    reduction-scatter) payloads for one processor pair travel in a
    single message per phase instead of one per access pattern.

    ``guard`` selects post-gather content verification (see
    ``repro.guard.invariants``): at ``"full"`` -- or at any non-off
    level while a fault plan is installed on the machine -- every
    gathered ghost value is checked against the owner's current value;
    a divergence is repaired with one uncharged data-only re-gather
    (emitted on the ``events`` bus, category ``"guard"``, when one is
    passed) or, if irreparable, raised as an
    ``InvariantViolation``.  The check and the repair are host-level:
    they never charge the simulated machine, so guarded runs keep
    bit-identical simulated numbers.
    """
    if n_times < 0:
        raise ValueError(f"negative execution count {n_times}")
    if overhead_factor < 1.0:
        raise ValueError("overhead_factor models slowdown; must be >= 1")
    _check_fresh(product, arrays)
    for _ in range(n_times):
        with machine.obs.span("executor.execute", loop=product.loop.name):
            _execute_once(
                machine,
                product,
                arrays,
                overhead_factor,
                merge_communication,
                guard=guard,
                events=events,
            )


def _check_fresh(product: InspectorProduct, arrays: dict[str, DistArray]) -> None:
    """Defensive staleness check: executing with changed distributions is
    a correctness bug the reuse machinery exists to prevent."""
    for name, sig in product.dist_signatures.items():
        arr = arrays.get(name)
        if arr is None:
            raise KeyError(f"loop {product.loop.name!r} array {name!r} is unbound")
        if arr.distribution.signature() != sig:
            raise ValueError(
                f"stale inspector: array {name!r} was redistributed after "
                f"loop {product.loop.name!r} was inspected"
            )


class _PatternSpace:
    """Flat *combined space* of one access pattern.

    Per processor the executor reads/writes ``[local segment | ghost
    buffer]``; concatenating those per-processor blocks over all
    processors gives one flat combined space.  Localized reference
    values are per-processor offsets into the block, so adding the
    block's combined-space offset (indexed by each reference's
    processor) turns a pattern's flat reference list into direct
    combined-space positions — all processors' loop bodies then run as
    single vector ops.

    ``local_sel``/``ghost_sel`` map the ``DistArray`` flat backing and
    the flat ghost backing into combined-space positions (both are
    offset-shifted ``arange``s).  A space is a pure function of the
    localize product's sizes, so it is built once and kept on the
    pattern's shared :class:`~repro.core.inspector.PatternArrays`; its
    arrays are frozen.
    """

    def __init__(self, localized, ghosts) -> None:
        local_sizes = np.asarray(localized.local_sizes, dtype=np.int64)
        ghost_off = ghosts.offsets
        local_off = np.zeros(local_sizes.size + 1, dtype=np.int64)
        np.cumsum(local_sizes, out=local_off[1:])
        # combined-space offset of processor p's block
        self.offsets = local_off + ghost_off
        self.total = int(self.offsets[-1])
        n_local = int(local_off[-1])
        n_ghost = int(ghost_off[-1])
        # backing position l of processor p -> combined local_off[p]+ghost_off[p]+l-local_off[p]
        self.local_sel = np.arange(n_local, dtype=np.int64) + np.repeat(
            ghost_off[:-1], local_sizes
        )
        self.ghost_sel = np.arange(n_ghost, dtype=np.int64) + np.repeat(
            local_off[1:], np.diff(ghost_off)
        )
        for arr in (self.offsets, self.local_sel, self.ghost_sel):
            arr.flags.writeable = False

    def refs(self, localized, counts: np.ndarray) -> np.ndarray:
        """Combined-space position of every localized reference (frozen);
        ``counts`` is the number of references each processor holds."""
        refs = localized.refs_flat + np.repeat(self.offsets[:-1], counts)
        refs.flags.writeable = False
        return refs


def _verify_gathers(machine, product, arrays, gather_items, events) -> None:
    """Content-check every gather; repair divergences with an uncharged
    re-gather (fault injection suspended so the repair is clean)."""
    from repro.guard.errors import InvariantViolation
    from repro.guard.faults import suspended
    from repro.guard.invariants import gather_divergence

    for sched, arr, ghosts, pat in gather_items:
        bad = gather_divergence(pat, arr)
        if not bad.size:
            continue
        with suspended(machine):
            sched._move_gather(arr, ghosts)
        still = gather_divergence(pat, arr)
        if events is not None:
            events.emit(
                "guard",
                "gather_divergence",
                {
                    "event": "gather_divergence",
                    "loop": product.loop.name,
                    "array": pat.array,
                    "n_bad": int(bad.size),
                    "recovered": not still.size,
                },
            )
        if still.size:
            raise InvariantViolation(
                f"gather for array {pat.array!r} of loop "
                f"{product.loop.name!r} diverges from owner data at "
                f"{int(still.size)} ghost position(s) and a clean "
                "re-gather did not repair it"
            )


def _execute_once(
    machine: Machine,
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    overhead: float,
    merge_communication: bool = False,
    guard: str = "off",
    events: EventBus | None = None,
) -> None:
    loop = product.loop
    n_procs = machine.n_procs
    _, iter_bounds = product.iteration_partition.iters_flat()
    n_it = np.diff(iter_bounds)

    # distinct read references, in a fixed order
    read_keys = sorted({(r.array, r.index) for r in loop.read_refs()}, key=str)
    # 1. gather all read patterns (one gather per distinct schedule --
    # coalesced patterns share a schedule and are fetched once)
    gather_items = []
    seen_schedules: set[int] = set()
    for key in read_keys:
        pat = product.patterns[key]
        sid = id(pat.localized.schedule)
        if sid in seen_schedules:
            continue
        seen_schedules.add(sid)
        gather_items.append(
            (pat.localized.schedule, arrays[pat.array], pat.ghosts, pat)
        )
    obs = machine.obs
    with obs.span("executor.gather", n_schedules=len(gather_items)):
        if merge_communication and gather_items:
            gather_merged([(s, a, g) for s, a, g, _ in gather_items])
        else:
            for sched, arr, ghosts, _ in gather_items:
                sched.gather(arr, ghosts)
    # post-gather content verification: at guard "full" always, and at
    # any level while faults are being injected (detection is the point
    # of injecting them; the patch-verify rung does the same).
    # host-level -- charges nothing.
    if gather_items and (guard == "full" or machine.faults is not None):
        with obs.span("guard.verify_gathers", loop=loop.name):
            _verify_gathers(machine, product, arrays, gather_items, events)

    # flat combined-space setup per pattern, cached on the pattern's
    # shared holder: neither a reused product nor a re-inspected
    # unchanged pattern rebuilds the selector arrays every time step.
    # A space is sized by its localize product alone, so coalesced
    # siblings (one ghost buffer) share one.
    def space_of(key) -> _PatternSpace:
        pat = product.patterns[key]
        if pat.exec_space is None:
            pat.exec_space = next(
                (
                    q.exec_space
                    for q in product.patterns.values()
                    if q.ghosts is pat.ghosts and q.exec_space is not None
                ),
                None,
            ) or _PatternSpace(pat.localized, pat.ghosts)
        return pat.exec_space

    def refs_of(key) -> np.ndarray:
        pat = product.patterns[key]
        if pat.exec_refs is None:
            # every pattern's flat reference list shares the iteration bounds
            pat.exec_refs = space_of(key).refs(pat.localized, n_it)
        return pat.exec_refs

    # combined read arrays, one per distinct (array, schedule, ghost
    # buffer): two scatters assemble [local | ghost] blocks of all
    # processors at once (read-only backing access: acquiring it must
    # not perturb the arrays' content versions)
    combined: dict[tuple, np.ndarray] = {}
    operands: dict[tuple[str, str | None], tuple[np.ndarray, np.ndarray]] = {}
    for key in read_keys:
        pat = product.patterns[key]
        ckey = (pat.array, id(pat.localized.schedule), id(pat.ghosts))
        comb = combined.get(ckey)
        if comb is None:
            arr = arrays[pat.array]
            sp = space_of(key)
            comb = combined[ckey] = np.empty(sp.total, dtype=arr.dtype)
            comb[sp.local_sel] = arr.backing_ro
            comb[sp.ghost_sel] = pat.ghosts.backing
        operands[key] = (comb, refs_of(key))

    # staging for writes, grouped so patterns sharing one (coalesced)
    # schedule accumulate into one staging and scatter once
    write_plan: dict[tuple[str, str | None], str] = {}
    for s in loop.statements:
        key = (s.lhs.array, s.lhs.index)
        kind = s.op if isinstance(s, Reduce) else "assign"
        prev = write_plan.get(key)
        if prev is not None and prev != kind:
            raise ValueError(
                f"loop {loop.name!r} writes pattern {key} with conflicting "
                f"semantics ({prev} vs {kind})"
            )
        write_plan[key] = kind

    group_of: dict[tuple[str, str | None], tuple] = {}
    groups: dict[tuple, tuple] = {}  # gkey -> (pattern key exemplar, kind)
    for key, kind in write_plan.items():
        pat = product.patterns[key]
        gkey = (pat.array, kind, id(pat.localized.schedule))
        group_of[key] = gkey
        prev = groups.get(gkey)
        if prev is not None and prev[1] != kind:  # pragma: no cover - defensive
            raise ValueError("conflicting kinds in one staging group")
        groups.setdefault(gkey, (key, kind))

    staging: dict[tuple, np.ndarray] = {}
    assigned_mask: dict[tuple, np.ndarray] = {}
    for gkey, (key, kind) in groups.items():
        dtype = arrays[product.patterns[key].array].dtype
        staging[gkey] = np.full(
            space_of(key).total, _staging_fill(kind, dtype), dtype=dtype
        )
        if kind == "assign":
            assigned_mask[gkey] = np.zeros(staging[gkey].size, dtype=bool)

    # per statement: kernel, read keys, reduction ufunc (None: a store),
    # staging target, target positions, assigned mask
    plan = []
    for s in loop.statements:
        lhs_key = (s.lhs.array, s.lhs.index)
        gkey = group_of[lhs_key]
        plan.append(
            (
                s.func,
                [(r.array, r.index) for r in s.reads],
                REDUCTION_OPS[s.op] if isinstance(s, Reduce) else None,
                staging[gkey],
                refs_of(lhs_key),
                assigned_mask.get(gkey),
            )
        )

    # 2. compute, one processor strip at a time (see the module
    # docstring): flat order is processor-major with iteration order
    # within, and a strip's positions address only its own processors'
    # staging blocks, so strips touch disjoint slots and duplicate-slot
    # and accumulation semantics match the historical per-processor loop.
    cuts = strip_cuts(iter_bounds, STRIP_ITERS)

    def run_strip(k: int) -> None:
        t0 = time.perf_counter_ns()
        b0, b1 = int(iter_bounds[cuts[k]]), int(iter_bounds[cuts[k + 1]])
        try:
            gathered = {key: comb[refs[b0:b1]] for key, (comb, refs) in operands.items()}
            for func, reads, ufunc, tgt, refs, mask in plan:
                vals = np.asarray(func(*[gathered[r] for r in reads]))
                if vals.shape != (b1 - b0,):
                    vals = np.broadcast_to(vals, (b1 - b0,))
                pos = refs[b0:b1]
                if ufunc is not None:
                    ufunc.at(tgt, pos, vals)
                else:
                    tgt[pos] = vals
                    mask[pos] = True
        finally:
            if obs.enabled:
                obs.record(
                    "executor.strip",
                    t0,
                    time.perf_counter_ns() - t0,
                    parent=compute_span.id,
                    first_proc=cuts[k],
                    n_procs=cuts[k + 1] - cuts[k],
                    n_iters=b1 - b0,
                )

    with obs.span(
        "executor.compute",
        loop=loop.name,
        n_statements=len(loop.statements),
        n_iters=int(iter_bounds[-1]),
        n_strips=len(cuts) - 1,
    ) as compute_span:
        _run_strips(run_strip, len(cuts) - 1)

    # charges from the iteration counts, once every strip has finished
    n_it_f = n_it.astype(np.float64)
    flops = np.zeros(n_procs)
    mem = np.zeros(n_procs)
    for s in loop.statements:
        flops += s.flops * n_it_f
        mem += 2.0 * (len(s.reads) + 1) * n_it_f
    machine.charge_compute_all(flops=flops * overhead, mem=mem * overhead)

    # 3. merge local staging + scatter ghost staging (once per group):
    # the local part of every processor's staging block is one gather
    # (``local_sel``) aligned with the DistArray backing, so the merge is
    # a single masked store (assign) or one vector combine (reduce); the
    # ghost part (``ghost_sel``) is already in flat ghost-backing layout,
    # so the schedule scatters it with no per-processor splits.
    merged_reduce_items = []
    with obs.span("executor.scatter", n_groups=len(groups)):
        for gkey, (key, kind) in groups.items():
            pat = product.patterns[key]
            arr = arrays[pat.array]
            sp = space_of(key)
            stage = staging[gkey]
            stage_local = stage[sp.local_sel]
            ghost_stage = stage[sp.ghost_sel]
            data = arr.backing_mut()  # one version bump per merged group
            if kind == "assign":
                m = assigned_mask[gkey][sp.local_sel]
                data[m] = stage_local[m]
                # only slots actually assigned may overwrite owner data; we
                # ship staged values for every slot but restrict at the owner
                # by shipping the mask too is overkill at this model fidelity:
                # FORALL semantics forbid partially-assigned ghost patterns,
                # so every ghost slot of an assigned pattern is written.
                pat.localized.schedule.scatter(ghost_stage, arr)
            else:
                op = REDUCTION_OPS[kind]
                op(data, stage_local, out=data)
                if merge_communication:
                    merged_reduce_items.append(
                        (pat.localized.schedule, ghost_stage, arr, op)
                    )
                else:
                    pat.localized.schedule.scatter_op(ghost_stage, arr, op)
            # merge cost: one flop per owned element combined
            machine.charge_compute_all(
                flops=np.asarray(pat.localized.local_sizes, dtype=np.float64)
            )
        if merged_reduce_items:
            scatter_op_merged(merged_reduce_items)
    machine.barrier()
