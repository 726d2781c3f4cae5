"""The patch rung of the product ladder, and a step-wise driver.

:class:`IncrementalInspector` is the *patch* rung of the one product
ladder, ``IrregularProgram.inspect`` (``reuse -> patch -> full``): with
``incremental=True`` the ladder hands it every failed Section 3 reuse
check, and it only routes, diffs, patches and verifies -- saving the
record, running the full inspector and recording the rung taken
(``product.resolved``) stay with the ladder.  It keeps the program's
parts it reads, not the program, so that nothing in a program points
back at its owner and a dropped program is freed at once.  Routing:

* a **condition 1/2** failure (a DAD changed -- some array was
  remapped or resized) is unpatchable: saved owners, local offsets and
  schedules are void; the full inspector runs;
* a **condition 3** failure (indirection *values* may have changed)
  is diffed: if every stale indirection has region information and the
  changed-value fraction is under :data:`MAX_CHANGE_FRACTION`, the saved
  product is patched (:func:`~repro.adapt.patch.patch_product`);
  otherwise the full inspector runs.

:class:`AdaptiveExecutor` is a thin driver for adaptive workloads: it
steps a loop, reads the rung each step's inspection took (``full`` /
``reuse`` / ``patch``, from ``program.last_resolution``) and records
the simulated inspector cost per step -- what
``benchmarks/bench_table_adapt.py`` reports.

Degradation is *graceful and bounded* (the escalation ladder):

1. a patch attempt that raises a typed failure
   (:class:`~repro.guard.errors.PatchAborted`, or
   :class:`~repro.guard.errors.PatchVerifyFailed` when the patched
   product fails post-patch invariant verification) falls back to the
   conservative full inspector, whose product replaces the saved one and
   its state -- correctness never depends on a product that failed
   verification;
2. every fallback, including routine routing ones (unpatchable
   condition, missing region info, churn over threshold),
   emits a structured ``adapt.fallback`` event (read back through
   ``fallback_log``) and is surfaced per-step through
   :class:`AdaptiveExecutor.history`;
3. after :data:`MAX_FAILURES` patch failures on one loop, incremental
   inspection is disabled for that loop (``disabled``) -- a persistent
   bookkeeping bug cannot cause a patch/fail/re-inspect livelock.

Only the typed hierarchy is caught; unexpected exceptions (``KeyError``,
``IndexError``, ...) are bugs and propagate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.adapt.diff import expand_ranges, old_targets
from repro.adapt.patch import patch_product
from repro.adapt.state import LoopAdaptState, build_adapt_state, charge_state_build
from repro.core.dad import DAD
from repro.core.forall import ForallLoop
from repro.core.inspector import InspectorProduct
from repro.core.records import InspectorRecord
from repro.core.reuse import ReuseDecision
from repro.guard.errors import InvariantViolation, PatchError, PatchVerifyFailed
from repro.guard.invariants import verify_product

#: fixed integer ops for deciding whether a reuse failure is patchable
PATCH_CHECK_IOPS = 10.0
#: integer ops per dirty element for the old-vs-current compare (the
#: modelled runtime compares against a snapshot; the host reads the old
#: value off the saved product)
DIFF_IOPS_PER_ELEMENT = 2.0
#: patch only while at most this fraction of the tracked indirection
#: elements changed
MAX_CHANGE_FRACTION = 0.35
#: typed patch failures on one loop before it is disabled
MAX_FAILURES = 3


class IncrementalInspector:
    """Per-program patch routing and failure counters.

    Holds the parts of its program a patch reads (machine, arrays, event
    bus, registry, translation tables, guard level; none is ever
    rebound), never the program: the program holds this object, so a
    back-pointer would make every program a reference cycle, freed only
    by the collector's next full pass instead of by its last user.
    """

    def __init__(self, program):
        self.machine = program.machine
        self.arrays = program.arrays
        self.events = program.events
        self.registry = program.registry
        self.ttables = program.ttables
        self.guard = program.guard
        #: cumulative host wall seconds spent building states (not
        #: simulated time): lands in whichever step first needs a state
        self.state_build_wall = 0.0
        #: per-loop count of typed patch failures (aborts + verify)
        self.failures: dict[str, int] = {}
        #: loops whose incremental inspection was disabled after
        #: :data:`MAX_FAILURES` failures (the ladder's last rung)
        self.disabled: set[str] = set()

    # ------------------------------------------------------------------
    @property
    def fallback_log(self) -> list[dict]:
        """Every fallback to the full inspector so far, as
        ``{"loop", "stage", "reason", "error", **detail}`` records: the
        ``"adapt.fallback"`` category of the program's event bus."""
        return self.events.payloads("adapt.fallback")

    def _fallback(self, loop_name: str, stage: str, reason: str, error=None, **detail):
        """Record one fall-back-to-full-inspection decision; returns None
        (the sentinel ``attempt`` hands the caller)."""
        self.events.emit(
            "adapt.fallback",
            reason,
            {
                "loop": loop_name,
                "stage": stage,
                "reason": reason,
                "error": None if error is None else f"{type(error).__name__}: {error}",
                **detail,
            },
        )
        return None

    # ------------------------------------------------------------------
    def after_inspect(self, loop: ForallLoop, record: InspectorRecord) -> None:
        """Charge the adapt-state bookkeeping the modelled runtime does
        when it inspects; the host-side build waits for :meth:`state_of`
        (``repro.adapt.state`` explains both)."""
        with self.machine.obs.span("adapt.state.charge", loop=loop.name):
            charge_state_build(self.machine, record.product, self.arrays)

    def state_of(self, product: InspectorProduct, reason: str) -> LoopAdaptState:
        """``product``'s adapt state, built and attached now if it has none.

        ``reason`` says who needed it (``"patch"``, ``"checkpoint"``);
        each build records one ``adapt.state.build_adapt_state`` span
        (``n_slots``, ``n_refs``: slots and references tallied) and emits
        one ``adapt.state`` event carrying it.
        """
        if product.adapt_state is None:
            name = product.loop.name
            t0 = time.perf_counter()
            with self.machine.obs.span(
                "adapt.state.build_adapt_state", loop=name, reason=reason
            ) as span:
                product.adapt_state = build_adapt_state(product)
                locs = [pat.localized for pat in product.patterns.values()]
                span.set(
                    n_slots=sum({id(loc.slots): loc.slots.keys.size for loc in locs}.values()),
                    n_refs=sum({id(loc.refs_flat): loc.refs_flat.size for loc in locs}.values()),
                )
            wall = time.perf_counter() - t0
            self.state_build_wall += wall
            self.events.emit(
                "adapt.state", reason, {"loop": name, "reason": reason, "host_seconds": wall}
            )
        return product.adapt_state

    # ------------------------------------------------------------------
    def attempt(
        self, loop: ForallLoop, record: InspectorRecord, decision: ReuseDecision
    ):
        """Try to patch after a failed reuse check: the patched product
        (the ladder saves it), or ``None`` when the caller must run the
        full inspector.  Every ``None`` leaves a structured record in
        ``fallback_log`` saying why."""
        if loop.name in self.disabled:
            # last rung of the ladder: this loop failed too often
            return self._fallback(loop.name, "route", "incremental_disabled")
        if decision.condition != 3:
            # conditions are checked in order, so condition 3 implies
            # every DAD is intact -- the only patchable failure mode
            return self._fallback(
                loop.name, "route", "unpatchable_condition",
                condition=decision.condition,
            )
        machine = self.machine
        registry = self.registry
        arrays = self.arrays
        stale = [
            name
            for name, stamp in record.ind_last_mod.items()
            if registry.last_mod(DAD.of(arrays[name])) != stamp
        ]
        dirty: dict[str, np.ndarray] = {}
        for name in stale:
            ranges = registry.dirty_ranges(
                DAD.of(arrays[name]), since=record.ind_last_mod[name]
            )
            if ranges is None:
                # some write carried no region info: anything may have
                # changed -- fall back to the conservative full inspector
                return self._fallback(
                    loop.name, "route", "no_region_info", array=name
                )
            dirty[name] = ranges

        # every routing check passed: this attempt reads the state
        state = self.state_of(record.product, "patch")
        obs = machine.obs
        with machine.phase("inspector"):
            machine.charge_compute_all(iops=PATCH_CHECK_IOPS)
            # diff: each owner compares its share of the dirty windows
            changed: dict[str, np.ndarray] = {}
            n_changed = 0
            n_tracked = 0
            with obs.span("adapt.diff", loop=loop.name) as diff_span:
                for name in stale:
                    arr = arrays[name]
                    n_tracked += arr.size
                    pos = expand_ranges(dirty[name])
                    if pos.size:
                        # every owner compares its share of the dirty window
                        owners = np.asarray(
                            arr.distribution.owner(pos), dtype=np.int64
                        )
                        machine.charge_compute_all(
                            iops=DIFF_IOPS_PER_ELEMENT
                            * np.bincount(owners, minlength=machine.n_procs).astype(
                                np.float64
                            )
                        )
                    # read at the dirty positions only: assembling the global
                    # view would copy the whole array after every tracked write
                    old = old_targets(record.product, arrays, name, pos)
                    chg = pos[old != arr.global_get(pos)]
                    changed[name] = chg
                    n_changed += int(chg.size)
                diff_span.set(n_changed=n_changed, n_tracked=n_tracked)
            if n_tracked and n_changed > MAX_CHANGE_FRACTION * n_tracked:
                # too much churn: a full inspection is the better deal
                # (the diff work above was the price of finding out).
                # the comparison is strict: exactly-at-threshold patches.
                return self._fallback(
                    loop.name, "route", "over_threshold",
                    n_changed=n_changed, n_tracked=n_tracked,
                    threshold=MAX_CHANGE_FRACTION,
                )
            try:
                with obs.span(
                    "adapt.patch",
                    loop=loop.name,
                    n_changed=n_changed,
                    groups=len(state.groups),
                ):
                    # the full inspection (or the restore) stored a table
                    # or its key under every signature: a missing one is a
                    # bug (KeyError)
                    product = patch_product(
                        machine, record.product, arrays, changed, self.ttables
                    )
                with obs.span("adapt.verify", loop=loop.name):
                    self._verify_patch(loop, product)
            except (PatchError, InvariantViolation) as exc:
                # patch_product mutates nothing it is given, so the
                # conservative full inspector is a safe recovery: count
                # the failure toward the disable threshold and report it
                # through fallback_log.  only the typed hierarchy is
                # recoverable; anything else is a bug and propagates.
                count = self.failures.get(loop.name, 0) + 1
                self.failures[loop.name] = count
                if count >= MAX_FAILURES:
                    self.disabled.add(loop.name)
                stage = "verify" if isinstance(exc, PatchVerifyFailed) else "patch"
                return self._fallback(
                    loop.name,
                    stage,
                    "verify_failed" if stage == "verify" else "patch_aborted",
                    error=exc,
                    failure_count=count,
                    disabled=loop.name in self.disabled,
                )
        return product

    # ------------------------------------------------------------------
    def _verify_patch(self, loop: ForallLoop, product) -> None:
        """Post-patch verification rung of the ladder (host-level, uncharged).

        Runs the invariant checkers over the patched product at the
        program's guard level, raised to at least ``cheap`` while a
        fault plan is installed (skipped entirely only when the guard is
        off and no faults are active).  An installed
        :class:`~repro.guard.faults.FaultPlan` gets its post-patch hook
        first, so injected slot flips face the same verification real
        corruption would.
        """
        faults = self.machine.faults
        if faults is not None:
            faults.on_patched_product(product)
        level = self.guard
        if level == "off":
            if faults is None:
                return
            level = "cheap"
        try:
            verify_product(product, self.arrays, level)
        except InvariantViolation as exc:
            raise PatchVerifyFailed(
                f"patched product for loop {loop.name!r} failed {level} "
                f"verification: {exc}"
            ) from exc


class AdaptiveExecutor:
    """Step-wise driver for one loop of an adaptive computation.

    Each :meth:`step` runs one sweep through the program's FORALL path
    and records the rung its inspection took: a full inspector run, a
    straight reuse hit, or an incremental patch.  ``history``
    keeps per-step ``(mode, simulated inspector seconds, fallbacks)`` so
    adaptive benches can attribute inspector cost to adaptation events
    (``state_build_wall_seconds`` separates out the one-off host cost
    of building adapt state, which the first patch after a full
    inspection pays inside its ``inspect_wall_seconds``)
    and a run can never *silently* continue past a failed verification:
    every fall-back decision the incremental inspector took during a
    step rides along in that step's ``fallbacks`` list.

    Long campaigns survive crashes: ``run(n, checkpoint_every=k,
    checkpoint_path=p)`` writes a full program checkpoint every ``k``
    steps, and :meth:`resume` continues bit-identically from one.
    """

    def __init__(self, program, loop: ForallLoop):
        self.program = program
        self.loop = loop
        self.history: list[dict] = []
        #: set by :meth:`resume`: ``"primary"`` normally, ``"prev"`` when
        #: the primary checkpoint was damaged and the rotated ``.prev``
        #: generation was restored instead (a degraded-but-safe resume)
        self.resumed_from: str | None = None

    def step(self) -> str:
        prog = self.program
        machine = prog.machine
        adapt = prog.adapt
        sim0 = machine.phase_time("inspector")
        n_fallbacks = len(prog.events.category("adapt.fallback"))
        build0 = adapt.state_build_wall if adapt is not None else 0.0
        with machine.obs.span("adapt.step", loop=self.loop.name) as step_span:
            prog.forall(self.loop, n_times=1)
            resolution = prog.last_resolution
            step_span.set(mode=resolution["rung"])
        self.history.append(
            {
                "mode": resolution["rung"],
                "inspector_time": machine.phase_time("inspector") - sim0,
                # host wall spent deciding + satisfying this step's
                # inspection (reuse check, diff + patch, or full run):
                # the number the wall-proportionality bench gate reads
                "inspect_wall_seconds": resolution["host_seconds"],
                # the part of it that built adapt state: a one-off cost
                # of the first step that needs the state after a full
                # inspection, not a marginal cost of that step's patch
                "state_build_wall_seconds": (
                    adapt.state_build_wall - build0 if adapt is not None else 0.0
                ),
                "fallbacks": [
                    rec.payload
                    for rec in prog.events.category("adapt.fallback")[n_fallbacks:]
                ],
            }
        )
        return resolution["rung"]

    def run(
        self,
        n_steps: int,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
    ) -> list[str]:
        """Run ``n_steps`` sweeps; optionally checkpoint every ``k`` steps.

        With ``checkpoint_every=k`` (requires ``checkpoint_path``), the
        full program + driver state is serialized after every ``k``-th
        step; a later :meth:`resume` from that file continues the
        campaign bit-identically with an uninterrupted run.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ValueError("checkpoint_every needs a checkpoint_path")
        modes = []
        for i in range(n_steps):
            modes.append(self.step())
            if checkpoint_every is not None and (i + 1) % checkpoint_every == 0:
                self.checkpoint(checkpoint_path)
        return modes

    def checkpoint(self, path) -> None:
        """Serialize program + driver state to ``path`` (versioned, CRC'd)."""
        from repro.guard.checkpoint import save_checkpoint

        save_checkpoint(path, self.program, driver=self)

    @classmethod
    def resume(cls, path, program, loop: ForallLoop) -> "AdaptiveExecutor":
        """Rebuild an executor mid-campaign from a checkpoint file.

        ``program`` must be a freshly constructed program with the same
        shape (machine size, declared decompositions and arrays,
        options) as the checkpointed one -- the distributions come from
        the file;
        ``loop`` is the campaign loop (loops hold callables, so they are
        re-bound rather than serialized).  The restored executor's next
        :meth:`step` produces the same simulated numbers the
        uninterrupted run would have.

        When the primary file fails its CRC (or is otherwise unreadable)
        and a rotated ``<path>.prev`` generation exists, the resume
        falls back to it -- a kill mid-write or later disk corruption
        costs at most one checkpoint interval, never the campaign.  The
        executor records which generation it came from in
        ``resumed_from`` (``"primary"`` or ``"prev"``).  Each generation
        tried is read once; only an unreadable file falls back -- a
        readable one that does not fit ``program`` raises.
        """
        import os

        from repro.guard.checkpoint import (
            load_checkpoint,
            payload_sections,
            previous_checkpoint_path,
            restore_checkpoint,
        )
        from repro.guard.errors import CheckpointError

        obs = program.machine.obs

        def read(p) -> dict:
            with obs.span("guard.checkpoint.read") as span:
                payload = load_checkpoint(p)
                if obs.enabled:
                    span.set(bytes=os.path.getsize(p), sections=payload_sections(payload))
            return payload

        exe = cls(program, loop)
        try:
            payload, source = read(path), "primary"
        except CheckpointError:
            prev = previous_checkpoint_path(path)
            if not os.path.exists(prev):
                raise
            # damaged too -> CheckpointError, no further fallback
            payload, source = read(prev), "prev"
        restore_checkpoint(payload, program, {loop.name: loop}, driver=exe)
        exe.resumed_from = source
        return exe

    def mode_counts(self) -> dict[str, int]:
        out = {"full": 0, "reuse": 0, "patch": 0}
        for rec in self.history:
            out[rec["mode"]] += 1
        return out

    def inspector_time(self, mode: str | None = None) -> float:
        return sum(
            rec["inspector_time"]
            for rec in self.history
            if mode is None or rec["mode"] == mode
        )
