"""The global modification timestamp: ``nmod``, ``last_mod``, dirty regions.

"We maintain a global variable nmod which represents the cumulative
number of Fortran 90D loops, array intrinsics or statements that have
modified any distributed array.  [...]  nmod may be viewed as a global
time stamp.  Each time we modify an array a with a given data access
descriptor DAD(a), we update a global data structure last_mod to
associate DAD(a) with the current value of the global variable nmod."
(Section 3.)

Crucially this counts *executions of writing code blocks*, not element
assignments -- one increment per loop / intrinsic / statement execution,
which is what keeps the tracking overhead negligible in compute-heavy
data-parallel codes.

Region-level dirty tracking (the ``repro.adapt`` extension)
-----------------------------------------------------------
The paper's check is binary: any write to a DAD invalidates every saved
inspector that dereferences it.  The incremental-inspection subsystem
needs one more bit of precision: *which global index ranges* a writing
block may have touched.  Each stamped write therefore optionally records
a ``(k, 2)`` array of half-open ``[lo, hi)`` ranges alongside the
timestamp; :meth:`ModificationRegistry.dirty_ranges` returns the merged
union of every range recorded for a DAD after a given stamp, or ``None``
when some write in that window carried no region information (the
conservative answer: anything may have changed).  Writes recorded the
paper's way -- no regions -- therefore degrade gracefully to the
Section 3 behaviour.  The per-DAD event log is bounded: saving a record
drops a DAD's events at or below the smallest stamp any record over it
holds (:meth:`ModificationRegistry.drop_events`; a record only asks past
its own), and old events are coalesced (union of ranges at the *newest*
stamp of the folded window) once the log exceeds a small cap, which can
only widen -- never shrink -- what a later ``dirty_ranges`` query reports.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.chaos.kernels import sorted_unique
from repro.core.dad import DAD

#: per-DAD event-log length that triggers coalescing of the older half
_MAX_EVENTS = 64


def normalize_ranges(ranges, size: int | None = None) -> np.ndarray:
    """Validate and normalize ranges to a ``(k, 2)`` int64 array."""
    arr = np.asarray(ranges)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"ranges must be integer [lo, hi) pairs, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"ranges must be (k, 2) [lo, hi) pairs, got shape {arr.shape}")
    if (arr[:, 0] > arr[:, 1]).any() or (arr[:, 0] < 0).any():
        raise ValueError("ranges must satisfy 0 <= lo <= hi")
    if size is not None and arr.size and arr[:, 1].max() > size:
        raise ValueError(f"range end {int(arr[:, 1].max())} exceeds array size {size}")
    return arr[arr[:, 0] < arr[:, 1]]


def ranges_from_positions(positions) -> np.ndarray:
    """Minimal ``(k, 2)`` range cover of a position set.

    Consecutive runs collapse into one range; scattered positions become
    unit ranges.  Used by write APIs that update scattered elements and
    need to record what they touched.
    """
    pos = np.asarray(positions)
    if pos.size and not np.issubdtype(pos.dtype, np.integer):
        raise ValueError(f"positions must be integers, got dtype {pos.dtype}")
    pos = sorted_unique(pos.astype(np.int64, copy=False).ravel())
    if not pos.size:
        return np.empty((0, 2), dtype=np.int64)
    if pos[0] < 0:
        raise ValueError("positions must be non-negative")
    breaks = np.flatnonzero(np.diff(pos) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, pos.size - 1)
    return np.stack([pos[starts], pos[ends] + 1], axis=1)


def merge_ranges(ranges: np.ndarray) -> np.ndarray:
    """Union of half-open ranges: sorted, overlap/adjacency-merged."""
    arr = normalize_ranges(ranges)
    if (arr[1:, 0] > arr[:-1, 1]).all():
        # already merged (an earlier merge's output, a position cover)
        return arr.copy()
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    # a range starts a new merged group iff it begins after the running
    # maximum end of everything before it
    ends = np.maximum.accumulate(arr[:, 1])
    new_group = np.empty(arr.shape[0], dtype=bool)
    new_group[0] = True
    new_group[1:] = arr[1:, 0] > ends[:-1]
    group = np.cumsum(new_group) - 1
    n_groups = int(group[-1]) + 1
    lo = arr[new_group, 0]
    hi = np.zeros(n_groups, dtype=np.int64)
    np.maximum.at(hi, group, arr[:, 1])
    return np.stack([lo, hi], axis=1)


class ModificationRegistry:
    """Tracks ``nmod``, ``last_mod(DAD)``, and per-DAD dirty regions."""

    def __init__(self) -> None:
        self.nmod = 0
        self._last_mod: dict[tuple, int] = {}
        #: DAD signature -> [(stamp, (k, 2) ranges | None), ...]
        self._events: dict[tuple, list[tuple[int, np.ndarray | None]]] = {}

    def _record_event(self, sig: tuple, ranges: np.ndarray | None) -> None:
        events = self._events.setdefault(sig, [])
        events.append((self.nmod, ranges))
        if len(events) > _MAX_EVENTS:
            # coalesce the older half into one conservative event: union
            # of its ranges at the *newest* stamp of the folded window.
            # A query with `since` inside the window then still sees the
            # whole union (stamp > since holds), i.e. a superset of the
            # truth; stamping with the oldest would let such a query
            # skip the merged event and *miss* dirty ranges.
            half = len(events) // 2
            old, keep = events[:half], events[half:]
            if any(r is None for _, r in old):
                merged: np.ndarray | None = None
            else:
                merged = merge_ranges(np.concatenate([r for _, r in old]))
            self._events[sig] = [(old[-1][0], merged)] + keep

    def record_block_write(
        self,
        dads: Iterable[DAD],
        regions: Sequence[np.ndarray | None] | None = None,
    ) -> int:
        """One writing block (loop / intrinsic / statement) executed.

        Increments ``nmod`` once and stamps every DAD the block may have
        written.  ``regions``, when given, is aligned with ``dads``: per
        DAD either a ``(k, 2)`` array of touched ``[lo, hi)`` global
        index ranges or ``None`` (touched indices unknown).  Returns the
        new ``nmod``.
        """
        dads = list(dads)
        for dad in dads:
            if not isinstance(dad, DAD):
                raise ValueError(
                    f"record_block_write takes DAD instances, got {type(dad).__name__}"
                )
        if regions is not None and len(regions) != len(dads):
            raise ValueError(
                f"got {len(regions)} region entries for {len(dads)} DADs"
            )
        self.nmod += 1
        for i, dad in enumerate(dads):
            self._last_mod[dad.signature] = self.nmod
            ranges = regions[i] if regions is not None else None
            if ranges is not None:
                ranges = normalize_ranges(ranges, dad.size)
            self._record_event(dad.signature, ranges)
        return self.nmod

    def drop_events(self, dad: DAD, upto: int) -> None:
        """Forget ``dad``'s events stamped at or below ``upto``: no
        ``dirty_ranges(dad, since)`` with ``since >= upto`` changes."""
        if dad.signature in self._events:
            self._events[dad.signature] = [e for e in self._events[dad.signature] if e[0] > upto]

    def record_remap(self, new_dad: DAD) -> int:
        """An array was remapped: its DAD changed.

        "If the array a is remapped, it means that DAD(a) changes.  In
        this case, we increment nmod and then set
        last_mod(DAD(a)) = nmod."
        """
        self.nmod += 1
        self._last_mod[new_dad.signature] = self.nmod
        # a remap relocates every element: region information is void
        self._record_event(new_dad.signature, None)
        return self.nmod

    def last_mod(self, dad: DAD) -> int:
        """Timestamp of the last possible write to arrays with this DAD.

        A DAD never recorded returns 0 (older than every real stamp).
        """
        return self._last_mod.get(dad.signature, 0)

    def dirty_ranges(self, dad: DAD, since: int) -> np.ndarray | None:
        """Union of index ranges possibly written after stamp ``since``.

        Returns a merged ``(k, 2)`` array (possibly empty: nothing was
        written after ``since``), or ``None`` when some write in the
        window recorded no region information -- the caller must assume
        the whole array is dirty.
        """
        since = int(since)
        if since < 0:
            raise ValueError(f"since must be a stamp >= 0, got {since}")
        parts = []
        for stamp, ranges in self._events.get(dad.signature, ()):
            if stamp <= since:
                continue
            if ranges is None:
                return None
            parts.append(ranges)
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return merge_ranges(np.concatenate(parts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModificationRegistry(nmod={self.nmod}, tracked={len(self._last_mod)})"
