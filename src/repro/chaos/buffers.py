"""Ghost-buffer allocation and bookkeeping.

CHAOS allocates, per processor, buffer space for copies of off-processor
data ("allocates local memory for each unique off-processor distributed
array element accessed by a loop").  ``GhostBuffers`` owns those arrays
for one (schedule, dtype) pair; the inspector stores one per data array,
and the reuse mechanism keeps them alive together with the schedule.

Layout contract
---------------
All per-processor ghost buffers live in **one contiguous backing
array**, CSR-style (mirroring ``DistArray``'s flat segmented storage):
processor ``p``'s buffer is ``backing[offsets[p]:offsets[p+1]]`` where
``offsets`` is the cumulative sum of the bound schedule's
``ghost_sizes``.  Ghost slot ``s`` of processor ``p`` therefore lives at
flat position ``offsets[p] + s`` -- the *ghost backing position* that
:class:`~repro.chaos.schedule.CommSchedule` resolves its unpack slots
against, which is what lets gather/scatter move every processor's ghost
data with single fancy-indexes instead of a loop over processors.

``buf(p)`` hands out a *live slice view* of the backing (writes through
it hit the flat array) and ``fill`` is one vector operation over the
backing; the schedule's data movement takes the ``GhostBuffers`` itself
(or an equally laid-out flat array).  The layout is fixed for the
lifetime of the object: it is sized by the schedule at construction and
the backing is never reallocated, so views stay valid.

Invariant contract
------------------
Checked by :func:`repro.guard.invariants.verify_ghosts`:

* ``offsets`` is a monotone CSR starting at 0 and ``backing`` is 1-D
  with exactly ``offsets[-1]`` elements;
* ``np.diff(offsets)`` equals the bound schedule's ``ghost_sizes``
  element for element;
* after incremental patching, retired slots are *holes*: they keep
  their backing positions, no schedule entry targets them (schedule
  occupancy must match the adapt state's live reference counts), and
  their contents are dead -- correctness never reads a hole.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.schedule import CommSchedule
from repro.machine.machine import Machine


class GhostBuffers:
    """Flat ghost storage for one schedule: one backing array, CSR offsets."""

    def __init__(
        self,
        machine: Machine,
        schedule: CommSchedule,
        dtype=np.float64,
        charge: bool = True,
    ):
        if schedule.machine is not machine:
            raise ValueError("schedule lives on a different machine")
        self.machine = machine
        self.schedule = schedule
        self.dtype = np.dtype(dtype)
        sizes = np.asarray(schedule.ghost_sizes, dtype=np.int64)
        self.offsets = np.zeros(machine.n_procs + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        #: one np.zeros for every processor's buffer space
        self.backing = np.zeros(int(self.offsets[-1]), dtype=self.dtype)
        if charge:
            machine.charge_compute_all(
                iops=DEFAULT_COSTS.buffer_assign * sizes.astype(np.float64)
            )

    def patched(
        self,
        schedule: CommSchedule,
        appended: np.ndarray | None = None,
    ) -> "GhostBuffers":
        """Append-only regrowth: new buffers for a patched schedule.

        The incremental-inspection subsystem retires ghost slots in
        place (slots keep their positions; retired ones become holes)
        and appends new slots at the end of each processor's region, so
        the new per-processor ghost size is always >= the old one.  The
        returned buffers copy every retained slot's contents to its
        preserved per-processor position and charge the machine
        ``buffer_assign`` only for ``appended`` slots per processor --
        not the whole region, the delta-work contract of schedule
        patching.  ``appended`` defaults to the per-processor backing
        growth; callers assigning new keys into reused holes pass their
        per-processor *newly assigned slot* counts instead (a reused
        hole still needs its buffer address rebound to the new key).
        """
        if schedule.machine is not self.machine:
            raise ValueError("patched schedule lives on a different machine")
        new = GhostBuffers(self.machine, schedule, dtype=self.dtype, charge=False)
        old_sizes = np.diff(self.offsets)
        new_sizes = np.diff(new.offsets)
        if (new_sizes < old_sizes).any():
            p = int(np.flatnonzero(new_sizes < old_sizes)[0])
            raise ValueError(
                f"ghost region of processor {p} shrank "
                f"({int(old_sizes[p])} -> {int(new_sizes[p])}); patching "
                "is append-only"
            )
        if self.backing.size:
            if np.array_equal(new.offsets, self.offsets):
                # unchanged layout: every retained slot keeps its flat
                # position -- one contiguous copy, no index arrays
                new.backing[:] = self.backing
            else:
                # copy each processor's old region to the start of its
                # new region: P contiguous copies, which beat one
                # scatter over shifted positions ~10x at 10^5 slots
                old_off = self.offsets.tolist()
                for p, lo in enumerate(new.offsets[:-1].tolist()):
                    size = old_off[p + 1] - old_off[p]
                    new.backing[lo : lo + size] = self.backing[old_off[p] : old_off[p + 1]]
        if appended is None:
            appended = new_sizes - old_sizes
        self.machine.charge_compute_all(
            iops=DEFAULT_COSTS.buffer_assign * np.asarray(appended, dtype=np.float64)
        )
        return new

    def buf(self, p: int) -> np.ndarray:
        """Ghost buffer of processor ``p`` -- a live slice of the backing."""
        if not 0 <= p < self.machine.n_procs:
            raise ValueError(
                f"processor id {p} out of range [0, {self.machine.n_procs})"
            )
        return self.backing[self.offsets[p] : self.offsets[p + 1]]

    def fill(self, value) -> None:
        """Reset every buffer (e.g. zero ghosts before accumulating)."""
        self.backing.fill(value)

    def total_elements(self) -> int:
        return self.backing.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GhostBuffers(dtype={self.dtype}, total={self.total_elements()})"
        )
