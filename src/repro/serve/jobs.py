"""Worker-side job execution: build, drive, checkpoint, resume.

:func:`run_job` turns one :class:`~repro.serve.config.JobConfig` into a
finished result dict.  It is deliberately process-agnostic -- the
service runs it inside worker subprocesses, tests call it inline -- and
carries the whole fault-tolerance story of a single attempt:

* every ``checkpoint_every`` steps the full program + driver state is
  saved through ``repro.guard.checkpoint`` (crash-safe, rotated);
* when a checkpoint exists at start (this attempt is a retry of a
  crashed one), the job **resumes** from it instead of starting over --
  falling back to the rotated ``.prev`` generation when the primary is
  damaged -- and continues bit-identically with an uninterrupted run;
* scripted host faults (``crash_at_step`` & co.) kill the process the
  way the chaos harness needs: after the step completes, so the
  supervisor sees a mid-job worker death with a checkpoint on disk.

The result's :func:`bit_identity` projection (simulated totals, counter
CRCs, array CRCs, inspection mode counts) is the service's correctness
contract: it must be byte-for-byte identical no matter how many crashes,
resumes and recovered data faults the attempt history contains.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from repro.adapt.driver import AdaptiveExecutor
from repro.guard.checkpoint import load_checkpoint, previous_checkpoint_path
from repro.guard.errors import CheckpointError
from repro.guard.faults import FaultPlan
from repro.machine.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.serve.config import JobConfig
from repro.workloads.adaptive import apply_adaptation, build_refinement_schedule
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from repro.workloads.mesh import generate_mesh
from repro.workloads.rebalance import drifting_weights, rebalance_moves

#: result fields that must be bit-identical across every fault history
BIT_IDENTITY_FIELDS = (
    "workload",
    "scenario",
    "steps",
    "simulated_total",
    "counter_crcs",
    "array_crcs",
    "mode_counts",
)

#: FaultPlan kinds run_job accepts in ``config.faults`` -- the
#: recoverable ones whose detection + repair leaves simulated counters
#: and array contents untouched
FAULT_KINDS = (
    "corrupt_gather",
    "duplicate_gather",
    "drop_gather",
    "corrupt_remap",
    "duplicate_remap",
    "drop_remap",
    "flip_remap",
)


def bit_identity(result: dict) -> dict:
    """The projection of a result that fault tolerance must preserve."""
    return {k: result[k] for k in BIT_IDENTITY_FIELDS}


def build_fault_plan(config: JobConfig) -> FaultPlan | None:
    """Translate ``config.faults`` pairs into an installed-ready plan."""
    if not config.faults:
        return None
    plan = FaultPlan(seed=config.seed)
    for kind, nth in config.faults:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown/unrecoverable fault kind {kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        getattr(plan, kind)(nth=int(nth))
    return plan


class _Scenario:
    """Per-step mutation stream of one job, derivable from the config.

    ``mutate(prog, step)`` applies whatever adaptation precedes ``step``
    (0-based); it must be a pure function of (config, step, current
    program state) so that a resumed attempt replays the identical
    stream.  ``replay_distributions`` brings a *fresh* program's
    distributions to their state after ``steps_done`` steps -- required
    before ``restore_checkpoint``, which validates distribution
    signatures (array contents and counters are then overwritten by the
    restore, so replay charges are discarded).
    """

    def __init__(self, config: JobConfig, mesh):
        self.config = config
        self.mesh = mesh
        if config.scenario == "adapt":
            n_events = self._n_events(config.steps)
            self.schedule = build_refinement_schedule(
                mesh, config.fraction, max(n_events, 1), seed=config.seed
            )

    def _n_events(self, steps: int) -> int:
        k = self.config.adapt_every
        return len([i for i in range(steps) if i > 0 and i % k == 0])

    def _event_index(self, step: int) -> int | None:
        k = self.config.adapt_every
        if step > 0 and step % k == 0:
            return step // k - 1
        return None

    def mutate(self, prog, step: int) -> None:
        epoch = self._event_index(step)
        if epoch is None:
            return
        if self.config.scenario == "adapt":
            apply_adaptation(prog, self.schedule.updates[epoch])
        elif self.config.scenario == "rebalance":
            self._rebalance(prog, epoch)

    def _rebalance(self, prog, epoch: int) -> None:
        dist = prog.decomps["reg"].distribution
        w = drifting_weights(self.mesh, epoch, seed=self.config.seed)
        move_g, move_to = rebalance_moves(dist, w, slack=self.config.slack)
        if move_g.size:
            prog.redistribute("reg", moved=(move_g, move_to))

    def replay_distributions(self, prog, steps_done: int) -> None:
        if self.config.scenario != "rebalance":
            return  # sweep/adapt never change a distribution
        for step in range(steps_done):
            epoch = self._event_index(step)
            if epoch is not None:
                self._rebalance(prog, epoch)


def _build(config: JobConfig):
    mesh = generate_mesh(config.n_nodes, seed=config.seed)
    machine = Machine(config.n_procs)
    plan = build_fault_plan(config)
    if plan is not None:
        plan.install(machine)
    prog = setup_euler_program(
        machine, mesh, seed=config.seed, incremental=True, guard=config.guard
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"][: mesh.ndim])
    prog.set_distribution("fmt", "G", config.partitioner)
    prog.redistribute("reg", "fmt")
    loop = euler_edge_loop(mesh)
    return mesh, machine, prog, loop, plan


def _select_checkpoint(path: str) -> tuple[str, str] | None:
    """Which checkpoint generation to resume from, if any.

    Returns ``(file, source)`` with ``source`` in ``{"primary", "prev"}``,
    or ``None`` when no usable checkpoint exists (fresh start).  A
    damaged primary falls back to the rotated ``.prev``; both damaged
    means the retry starts from scratch rather than failing -- losing
    progress is a degradation, not an error.
    """
    candidates = [(path, "primary"), (previous_checkpoint_path(path), "prev")]
    for file, source in candidates:
        if not os.path.exists(file):
            continue
        try:
            load_checkpoint(file)
        except CheckpointError:
            continue
        return file, source
    return None


def run_job(
    config: JobConfig,
    checkpoint_path: str | None = None,
    attempt: int = 1,
    heartbeat=None,
) -> dict:
    """Execute one attempt of ``config``; returns the result dict.

    ``heartbeat(step)``, when given, is called after every completed
    step -- the worker wires it to its supervisor pipe so hangs are
    detectable.  ``attempt`` is 1-based; host crash scripting only fires
    while ``attempt <= config.crash_attempts``.
    """
    from repro.guard.checkpoint import restore_checkpoint

    mesh, machine, prog, loop, _plan = _build(config)
    exe = AdaptiveExecutor(prog, loop)
    scenario = _Scenario(config, mesh)

    start_step = 0
    resume_source = None
    if checkpoint_path is not None:
        selected = _select_checkpoint(checkpoint_path)
        if selected is not None:
            file, resume_source = selected
            steps_done = len(load_checkpoint(file)["driver"]["history"])
            scenario.replay_distributions(prog, steps_done)
            restore_checkpoint(file, prog, {loop.name: loop}, driver=exe)
            start_step = steps_done

    for step in range(start_step, config.steps):
        scenario.mutate(prog, step)
        exe.step()
        if heartbeat is not None:
            heartbeat(step)
        if config.step_delay_s:
            import time

            time.sleep(config.step_delay_s)
        checkpointed = (
            checkpoint_path is not None
            and config.checkpoint_every
            and (step + 1) % config.checkpoint_every == 0
        )
        if checkpointed:
            exe.checkpoint(checkpoint_path)
        crash_due = (
            config.crash_at_step is not None
            and step >= config.crash_at_step
            and attempt <= config.crash_attempts
        )
        if crash_due:
            if config.corrupt_checkpoint_on_crash and checkpoint_path and (
                os.path.exists(checkpoint_path)
            ):
                _flip_byte(checkpoint_path)
            # die the way SIGKILL looks to the supervisor: no cleanup,
            # no exception propagation, pipe EOF
            os._exit(17)

    return _result(config, machine, prog, exe, attempt, start_step, resume_source)


def _flip_byte(path: str) -> None:
    """Damage a file mid-byte (chaos scripting for torn checkpoints)."""
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0xFF]))


def _result(
    config, machine, prog, exe, attempt, start_step, resume_source
) -> dict:
    counter_crcs = {
        name: zlib.crc32(
            np.ascontiguousarray(getattr(machine.counters, name)).tobytes()
        )
        for name in COUNTER_FIELDS
    }
    array_crcs = {
        name: zlib.crc32(np.ascontiguousarray(arr.to_global()).tobytes())
        for name, arr in sorted(prog.arrays.items())
    }
    return {
        "workload": config.workload,
        "scenario": config.scenario,
        "steps": config.steps,
        "simulated_total": float(machine.elapsed()),
        "counter_crcs": counter_crcs,
        "array_crcs": array_crcs,
        "mode_counts": exe.mode_counts(),
        # attempt-history fields: NOT part of the bit-identity contract
        "attempt": attempt,
        "start_step": start_step,
        "resumed": resume_source is not None,
        "resume_source": resume_source,
        "n_guard_events": len(prog.events.category("guard")),
        "n_faults_fired": (
            0 if machine.faults is None else len(machine.faults.fired)
        ),
    }
