"""repro.guard: verification and recovery substrate for schedule reuse.

Four layers (see the module docstrings for contracts and details):

* :mod:`repro.guard.errors` -- the typed failure hierarchy recovery
  paths catch (never blanket ``Exception``);
* :mod:`repro.guard.invariants` -- ``off``/``cheap``/``full`` structural
  and content checkers for schedules, localized references, iteration
  partitions, adapt slot bookkeeping, and gathered data;
* :mod:`repro.guard.faults` -- seeded deterministic fault injection
  (corrupt/drop/duplicate wire data, flipped schedule slots, stalled
  processors) so the recovery paths are testable;
* :mod:`repro.guard.checkpoint` -- versioned checkpoint/restore of a
  program's saved products, adapt state, and machine counters for
  bit-identical resume of long adaptive campaigns.

Programs select a checking level with ``IrregularProgram(...,
guard="cheap")`` or the ``REPRO_GUARD`` environment variable.
"""

from repro.guard.checkpoint import (
    load_checkpoint,
    previous_checkpoint_path,
    restore_checkpoint,
    save_checkpoint,
)
from repro.guard.errors import (
    CheckpointError,
    GuardError,
    InvariantViolation,
    PatchAborted,
    PatchError,
    PatchVerifyFailed,
)
from repro.guard.faults import FaultPlan, suspended
from repro.guard.invariants import (
    LEVELS,
    check_level,
    gather_divergence,
    verify_adapt_state,
    verify_partition,
    verify_product,
    verify_schedule,
)

__all__ = [
    "CheckpointError",
    "FaultPlan",
    "GuardError",
    "InvariantViolation",
    "LEVELS",
    "PatchAborted",
    "PatchError",
    "PatchVerifyFailed",
    "check_level",
    "gather_divergence",
    "load_checkpoint",
    "previous_checkpoint_path",
    "restore_checkpoint",
    "save_checkpoint",
    "suspended",
    "verify_adapt_state",
    "verify_partition",
    "verify_product",
    "verify_schedule",
]
