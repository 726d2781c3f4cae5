"""Reference-diff kernels: from dirty ranges to changed positions.

The registry tells us *which index ranges* of an indirection array some
write may have touched (:meth:`ModificationRegistry.dirty_ranges`); the
snapshot taken at the last inspection tells us what the values were.
Comparing the two inside the dirty ranges yields the exact positions
whose values actually changed -- typically a small fraction even of the
dirty window (rewriting an edge list in place leaves most entries
equal).  Everything downstream of this diff is sized by those positions,
which is what makes patching delta-proportional.

All kernels are pure vector code in the ``sorted_unique_inverse`` style
of ``chaos/localize.py``: no Python loop over ranges or elements.
"""

from __future__ import annotations

import numpy as np

from repro.core.timestamps import merge_ranges, ranges_from_positions

__all__ = ["expand_ranges", "ranges_from_positions"]


def expand_ranges(ranges: np.ndarray) -> np.ndarray:
    """All positions covered by ``(k, 2)`` half-open ranges, ascending.

    Ranges are merged first, so overlapping inputs never duplicate a
    position.  The expansion is the standard repeat/cumsum trick: one
    ``np.repeat`` + one ``np.arange`` regardless of how many ranges
    there are.
    """
    arr = merge_ranges(ranges)
    if not arr.size:
        return np.empty(0, dtype=np.int64)
    lens = arr[:, 1] - arr[:, 0]
    total = int(lens.sum())
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.repeat(arr[:, 0] - offsets, lens) + np.arange(total, dtype=np.int64)

