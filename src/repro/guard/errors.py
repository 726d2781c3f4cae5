"""Typed failure hierarchy for the verification + recovery substrate.

The inspector/executor pipeline distinguishes three failure classes:

* :class:`InvariantViolation` -- a structural or content check over a
  runtime product (schedule, localized references, iteration partition,
  adapt state) or over gathered data failed: the product cannot be
  trusted and must not be executed;
* :class:`PatchError` and its subclasses -- the incremental-inspection
  path failed.  :class:`PatchAborted` means the patch itself could not
  be assembled (mid-patch state out of sync, inconsistent slot
  bookkeeping); :class:`PatchVerifyFailed` means the patch assembled but
  the patched product failed post-patch verification.  Both are
  *recoverable*: the driver discards the loop's saved adapt state and
  falls back to a full inspection (the escalation ladder in
  ``repro.adapt.driver``);
* :class:`CheckpointError` -- a checkpoint file is unreadable,
  corrupted, from an incompatible version, or does not match the
  program it is being restored into.

Anything else (``TypeError``, ``IndexError``, ``KeyError``, ...) is a
bug and propagates: the driver's recovery paths catch *only* these
typed exceptions, never ``Exception``.
"""

from __future__ import annotations


class GuardError(Exception):
    """Base class for every failure the guard subsystem raises."""


class InvariantViolation(GuardError):
    """A runtime product failed a structural or content invariant check."""


class PatchError(GuardError):
    """Base class for recoverable incremental-patch failures."""


class PatchAborted(PatchError):
    """The patch could not be assembled: saved state is out of sync."""


class PatchVerifyFailed(PatchError):
    """The patched product failed post-patch invariant verification."""


class CheckpointError(GuardError):
    """A checkpoint is unreadable, corrupted, or incompatible."""
