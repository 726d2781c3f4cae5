"""Worker-side job execution: build, drive, checkpoint, resume.

:func:`run_job` turns one :class:`~repro.serve.config.JobConfig` into a
finished result dict.  It is deliberately process-agnostic -- the
service runs it inside worker subprocesses, tests call it inline -- and
carries the whole fault-tolerance story of a single attempt:

* every ``checkpoint_every`` steps the full program + driver state is
  saved through ``repro.guard.checkpoint`` (crash-safe, rotated);
* every attempt first tries ``AdaptiveExecutor.resume``: a retry of a
  crashed attempt continues bit-identically with an uninterrupted run
  (from the rotated previous generation when the primary is damaged),
  and a ``CheckpointError`` -- no file, both generations damaged, an
  older format -- means it starts over: a degradation, not an error;
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
    program state) so that a resumed attempt continues the identical
    stream.
    """

    def __init__(self, config: JobConfig, mesh):
        self.config = config
        self.mesh = mesh
        if config.scenario == "adapt":
            n_events = max((config.steps - 1) // config.adapt_every, 1)
            self.schedule = build_refinement_schedule(
                mesh, config.fraction, n_events, seed=config.seed
            )

    def mutate(self, prog, step: int) -> None:
        k = self.config.adapt_every
        if step == 0 or step % k:
            return
        epoch = step // k - 1
        if self.config.scenario == "adapt":
            apply_adaptation(prog, self.schedule.updates[epoch])
        elif self.config.scenario == "rebalance":
            dist = prog.decomps["reg"].distribution
            w = drifting_weights(self.mesh, epoch, seed=self.config.seed)
            move_g, move_to = rebalance_moves(dist, w, slack=self.config.slack)
            if move_g.size:
                prog.redistribute("reg", moved=(move_g, move_to))


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
    mesh, machine, prog, loop, _plan = _build(config)
    scenario = _Scenario(config, mesh)

    exe = AdaptiveExecutor(prog, loop)
    if checkpoint_path is not None:
        try:
            exe = AdaptiveExecutor.resume(checkpoint_path, prog, loop)
        except CheckpointError:
            pass  # no usable generation (and nothing restored): start over
    start_step = len(exe.history)

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

    return _result(config, machine, prog, exe, attempt, start_step)


def _flip_byte(path: str) -> None:
    """Damage a file mid-byte (chaos scripting for torn checkpoints)."""
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0xFF]))


def _result(config, machine, prog, exe, attempt, start_step) -> dict:
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
        "resumed": exe.resumed_from is not None,
        "resume_source": exe.resumed_from,
        "n_guard_events": len(prog.events.category("guard")),
        "n_faults_fired": (
            0 if machine.faults is None else len(machine.faults.fired)
        ),
    }
