"""The executor: carry out communication and computation (Phase E).

Per execution of a loop's executor:

1. **gather** -- for every pattern the loop reads, prefetch off-processor
   elements into ghost buffers (one schedule application).  The buffers
   are sweep scratch: the tail of the pattern's combined read array,
   allocated with it each sweep and laid out as the schedule's flat
   ghost backing.  The saved product holds only the slot layout;
2. **compute** -- each processor evaluates every statement vectorized
   over its iterations, reading from ``[local segment | ghost buffer]``
   through the localized reference lists; reduction contributions
   accumulate into per-pattern staging (local part + ghost part);
3. **scatter** -- staged off-processor contributions travel back through
   the same schedules and combine at the owners (``scatter_op``), and
   assigned off-processor values are written back (``scatter``).

Phase 2 runs the simulated processors on the host's cores.  The
iterations split into *strips* (``repro.chaos.strips``): runs of whole
processors of about ``STRIP_ITERS`` iterations, cut only at processor
boundaries.  The dispatching thread materializes everything the strips
share first (combined ``[local | ghost]`` read arrays and staging, one
per pattern group -- the product's ``groups`` keys -- and, for a
pattern holder on its second execution, an empty array for its
combined-space reference positions), then it and the process-wide strip
pool take strips off one queue.  A strip computes its slice of each
holder's positions (into that array, or into a temporary on a holder's
first execution: a product that runs once keeps none), gathers each
distinct read reference once, runs the loop's statements in program
order on its slice and applies their ``ufunc.at`` or store to the
staging.  Every staging slot belongs to
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

import time

import numpy as np

from repro.chaos import strips
from repro.chaos.gather_scatter import REDUCTION_OPS
from repro.chaos.merge import gather_merged, scatter_op_merged
from repro.core.forall import Reduce
from repro.core.inspector import InspectorProduct, group_members
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine
from repro.obs.events import EventBus

#: identity per reduction op, for floating-point staging buffers
_IDENTITY = {"add": 0.0, "multiply": 1.0, "min": np.inf, "max": -np.inf}


def _staging_fill(kind: str, dtype: np.dtype):
    """The value staging starts from: ``kind``'s identity in ``dtype``
    (assigned staging starts from 0; it is masked at the merge)."""
    if kind in ("min", "max") and dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.max if kind == "min" else info.min
    return _IDENTITY.get(kind, 0)


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
    the schedule's flat ghost backing into combined-space positions
    (both are offset-shifted ``arange``s).  A space is a pure function
    of the layout's sizes: a sweep builds one per layout, and a pattern's
    :class:`~repro.core.inspector.PatternArrays` keeps it from the
    holder's second finished sweep on; its arrays are frozen.
    """

    def __init__(self, localized) -> None:
        local_sizes = np.asarray(localized.local_sizes, dtype=np.int64)
        ghost_off = localized.schedule._ghost_off
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


def _verify_gathers(machine, product, arrays, gather_items, events) -> None:
    """Content-check every gather; repair divergences with an uncharged
    re-gather (fault injection suspended so the repair is clean)."""
    from repro.guard.errors import InvariantViolation
    from repro.guard.faults import suspended
    from repro.guard.invariants import gather_divergence

    for sched, arr, ghosts, pat in gather_items:
        bad = gather_divergence(pat, arr, ghosts)
        if not bad.size:
            continue
        with suspended(machine):
            sched._move_gather(arr, ghosts)
        still = gather_divergence(pat, arr, ghosts)
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

    # every pattern's group; one combined space per layout this sweep,
    # unless a pattern's holder kept one (neither a reused product nor a
    # re-inspected unchanged pattern rebuilds the selector arrays every
    # time step)
    group_of = {key: g for g in product.groups for key in group_members(g)}
    spaces: dict[tuple, _PatternSpace] = {}  # layout key -> its space

    def space_of(key) -> _PatternSpace:
        layout = product.layout_key(group_of[key])
        space = spaces.get(layout)
        if space is None:
            pat = product.patterns[key]
            space = spaces[layout] = pat.derived.exec_space or _PatternSpace(pat.localized)
        return space

    # combined-space position of every localized reference (its
    # processor's block offset added), per holder.  The compute strips
    # fill them slice by slice: on a holder's first execution into
    # per-strip temporaries, on its second into the array it keeps once
    # every strip has succeeded
    positions: dict[int, tuple] = {}  # id(holder) -> (holder, array to keep or None, space)

    def holder_of(key) -> int:
        held = product.patterns[key].derived
        if id(held) not in positions:
            keep = None
            if held.exec_refs is None and held.ran:
                # every pattern's flat reference list shares the iteration bounds
                keep = np.empty(int(iter_bounds[-1]), dtype=np.int64)
            positions[id(held)] = (held, keep, space_of(key))
        return id(held)

    # distinct read references, in a fixed order
    read_keys = sorted({(r.array, r.index) for r in loop.read_refs()}, key=str)
    # combined read arrays, one per group -- coalesced patterns share a
    # schedule and are fetched once -- each one ghost region longer than
    # its space: the tail is this sweep's ghost buffer, in the
    # schedule's flat ghost backing layout
    combined: dict[tuple, np.ndarray] = {}
    operands: dict[tuple[str, str | None], tuple[np.ndarray, np.ndarray]] = {}
    gather_items = []
    for key in read_keys:
        comb = combined.get(group_of[key])
        if comb is None:
            pat = product.patterns[key]
            sched, arr = pat.localized.schedule, arrays[pat.array]
            total = space_of(key).total
            comb = combined[group_of[key]] = np.empty(
                total + sched.ghost_total(), dtype=arr.dtype
            )
            gather_items.append((sched, arr, comb[total:], pat))
        operands[key] = (comb, holder_of(key))
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

    # two scatters assemble the [local | ghost] blocks of all processors
    # at once (read-only backing access: acquiring it must not perturb
    # the arrays' content versions)
    for (_, arr, ghosts, pat), comb in zip(gather_items, combined.values()):
        sp = space_of((pat.array, pat.index))
        comb[sp.local_sel] = arr.backing_ro
        comb[sp.ghost_sel] = ghosts

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

    groups: dict[tuple, tuple] = {}  # (group, kind) -> (pattern key exemplar, kind)
    for key, kind in write_plan.items():
        groups.setdefault((group_of[key], kind), (key, kind))

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
    # staging target, target positions' holder, assigned mask
    plan = []
    for s in loop.statements:
        lhs_key = (s.lhs.array, s.lhs.index)
        gkey = (group_of[lhs_key], write_plan[lhs_key])
        plan.append(
            (
                s.func,
                [(r.array, r.index) for r in s.reads],
                REDUCTION_OPS[s.op] if isinstance(s, Reduce) else None,
                staging[gkey],
                holder_of(lhs_key),
                assigned_mask.get(gkey),
            )
        )

    # 2. compute, one processor strip at a time (see the module
    # docstring): flat order is processor-major with iteration order
    # within, and a strip's positions address only its own processors'
    # staging blocks, so strips touch disjoint slots and duplicate-slot
    # and accumulation semantics match the historical per-processor loop.
    cuts = strips.strip_cuts(iter_bounds, strips.STRIP_ITERS)

    def run_strip(k: int) -> None:
        t0 = time.perf_counter_ns()
        p0, p1 = cuts[k], cuts[k + 1]
        b0, b1 = int(iter_bounds[p0]), int(iter_bounds[p1])
        try:
            at = {}
            for hid, (held, keep, space) in positions.items():
                if held.exec_refs is not None:
                    at[hid] = held.exec_refs[b0:b1]
                else:
                    offsets = np.repeat(space.offsets[p0:p1], n_it[p0:p1])
                    out = None if keep is None else keep[b0:b1]
                    at[hid] = np.add(held.refs_flat[b0:b1], offsets, out=out)
            gathered = {key: comb[at[h]] for key, (comb, h) in operands.items()}
            for func, reads, ufunc, tgt, h, mask in plan:
                vals = np.asarray(func(*[gathered[r] for r in reads]))
                if vals.shape != (b1 - b0,):
                    vals = np.broadcast_to(vals, (b1 - b0,))
                pos = at[h]
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
                    first_proc=p0,
                    n_procs=p1 - p0,
                    n_iters=b1 - b0,
                )

    with obs.span(
        "executor.compute",
        loop=loop.name,
        n_statements=len(loop.statements),
        n_iters=int(iter_bounds[-1]),
        n_strips=len(cuts) - 1,
    ) as compute_span:
        strips.run_strips(run_strip, len(cuts) - 1)
    for held, keep, space in positions.values():
        if held.ran:  # the holder's second finished sweep: keep what it built
            held.exec_space = space
            if keep is not None:
                keep.flags.writeable = False
                held.exec_refs = keep
        held.ran = True

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
