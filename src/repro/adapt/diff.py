"""Reference-diff kernels: from dirty ranges to changed positions.

The registry tells us *which index ranges* of an indirection array some
write may have touched (:meth:`ModificationRegistry.dirty_ranges`); the
saved product tells us what the values were (:func:`old_targets`: each
localized reference names the element its iteration read through the
indirection).  Comparing the two inside the dirty ranges yields the
exact positions whose values actually changed -- typically a small
fraction even of the dirty window (rewriting an edge list in place
leaves most entries equal).  Everything downstream of this diff is sized
by those positions, which is what makes patching delta-proportional.

All kernels are pure vector code in the ``sorted_unique_inverse`` style
of ``chaos/localize.py``: no Python loop over ranges or elements.
"""

from __future__ import annotations

import numpy as np

from repro.core.inspector import InspectorProduct
from repro.core.timestamps import merge_ranges, ranges_from_positions
from repro.distribution.distarray import DistArray

__all__ = ["expand_ranges", "old_targets", "ranges_from_positions"]


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


def old_targets(
    product: InspectorProduct,
    arrays: dict[str, DistArray],
    name: str,
    pos: np.ndarray,
) -> np.ndarray:
    """What indirection ``name`` held at positions ``pos`` when
    ``product`` was built (by the inspector or the last patch).

    Position ``i`` of an indirection is iteration ``i`` (the inspector
    rejects any other size), so the value is the global element
    iteration ``i`` references through ``name`` in any pattern indexed
    by it: its localized value ``v`` on processor ``p`` is local offset
    ``v`` of the data array's distribution, or ghost slot
    ``v - local_sizes[p]``, whose key the group's slot state records
    (a referenced slot is live, never a hole).  Exact while every DAD is
    the product's -- the diff runs only after a condition-3 refusal.
    """
    pat = next(p for (_, index), p in product.patterns.items() if index == name)
    loc = pat.localized
    part = product.iteration_partition
    f = part.inverse()[pos]
    p = np.searchsorted(part.bounds, f, side="right") - 1
    v = loc.refs_flat[f]
    local_size = np.asarray(loc.local_sizes, dtype=np.int64)[p]
    dist = arrays[pat.array].distribution
    local = np.take(dist.global_perm(), dist.flat_offsets()[p] + v, mode="clip")
    keys = loc.slots.keys
    if not keys.size:
        return local
    slot = loc.slots.slot_bounds[p] + (v - local_size)
    return np.where(v < local_size, local, np.take(keys, slot, mode="clip"))
