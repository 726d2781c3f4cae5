"""Recursive coordinate bisection (Berger & Bokhari 1987).

The paper's "recursive binary dissection" / "binary coordinate
bisection": recursively cut the vertex set by a plane orthogonal to the
coordinate axis of greatest extent, placing the cut at the weighted
median.  Handles any number of parts (not just powers of two) by
splitting weight in proportion to the part counts assigned to each side.

The modeled parallel cost reflects the classic distributed
implementation: each median is found by iterative probing (every probe
scans local coordinates and takes a global sum), and each level ends by
exchanging vertex records across the cut.

The host computation bisects a whole level of sub-domains at a time:

* **Presort.**  Each axis is sorted once (``kernels.stable_argsort``).
  Every axis order is kept grouped by sub-domain, each sub-domain a
  contiguous segment with the same bounds in every order, so a
  sub-domain's extent on an axis is its segment's last key minus its
  first, and its order along the cut axis is a slice.
* **Split.**  Each segment is cut by ``weighted._left_count`` over its
  slice of the cut axis's order: the split ``weighted_median_split``
  makes, branch for branch.
* **Regroup.**  The children are labelled in level order, finished ones
  (one part, or no vertex) take their owner and drop out, and every
  axis order is regrouped by the new label with one stable counting
  pass (``kernels.stable_order``).

Why this is the per-sub-domain recursion bit for bit: a sub-domain's
vertices were always an ascending index array, so its stable sort along
an axis is the global stable order filtered to it, ties included -- and
a stable regroup preserves exactly that within each child.  So every cut
puts the same vertices on each side, and the modeled charges, formulas
over the number of vertices split per level, are unchanged too.
"""

from __future__ import annotations

import numpy as np

from repro.chaos import kernels
from repro.partitioners.base import (
    PartitionProblem,
    PartitionResult,
    Partitioner,
    register_partitioner,
)
from repro.partitioners.weighted import _left_count

#: modeled median-probe rounds per bisection (parallel bisection search)
MEDIAN_PROBES = 16
#: modeled integer ops per vertex per probe (compare + partial count)
PROBE_IOPS = 4.0
#: modeled bytes per vertex record exchanged when a level re-buckets
RECORD_BYTES = 32.0


@register_partitioner("RCB")
class RCBPartitioner(Partitioner):
    """Geometry-based partitioner; needs GEOMETRY, honours LOAD."""

    needs_coords = True

    def partition(self, problem: PartitionProblem, n_parts: int) -> PartitionResult:
        self.validate(problem, n_parts)
        n = problem.n_vertices
        owners = np.zeros(n, dtype=np.int64)
        coords = problem.coords
        weights = problem.effective_weights()

        flops = 0.0
        iops = 0.0
        rounds = 0
        comm_bytes = 0.0
        levels = 0

        # the level's sub-domains still to split (one part or no vertex
        # means done): first part id, part count, segment bounds
        part0 = np.zeros(1, dtype=np.int64)
        parts = np.full(1 if n and n_parts > 1 else 0, n_parts, dtype=np.int64)
        bounds = np.array([0, n], dtype=np.int64)
        orders = [kernels.stable_argsort(key) for key in coords] if parts.size else []
        label = np.empty(n, dtype=np.int64)
        while parts.size:
            level_vertices = int(bounds[-1])
            starts, ends = bounds[:-1], bounds[1:]
            extent = [key[order[ends - 1]] - key[order[starts]] for key, order in zip(coords, orders)]
            cut_axis = np.argmax(extent, axis=0).tolist()
            left_parts = (parts + 1) // 2
            # ``cut``: each segment s in its cut axis's order; the first
            # ``_left_count`` vertices form child 2s (left), the rest 2s + 1
            cut = np.empty(level_vertices, dtype=np.int64)
            child_bounds = np.empty(2 * parts.size + 1, dtype=np.int64)
            child_bounds[::2] = bounds
            for s, (b0, b1, axis, lp, p) in enumerate(
                zip(starts.tolist(), ends.tolist(), cut_axis, left_parts.tolist(), parts.tolist())
            ):
                cut[b0:b1] = seg = orders[axis][b0:b1]
                child_bounds[2 * s + 1] = b0 + _left_count(weights[seg], lp / p)

            levels += 1
            # extent scan + median probes over every active vertex
            flops += 2.0 * level_vertices
            iops += MEDIAN_PROBES * PROBE_IOPS * level_vertices
            rounds += MEDIAN_PROBES
            # re-bucketing: half the records cross the cut on average
            comm_bytes += 0.5 * RECORD_BYTES * level_vertices

            child_part0 = np.stack([part0, part0 + left_parts], axis=1).ravel()
            child_parts = np.stack([left_parts, parts - left_parts], axis=1).ravel()
            child_sizes = np.diff(child_bounds)
            child = np.repeat(np.arange(child_sizes.size), child_sizes)
            # every vertex takes its child's first part: final once the
            # child is done, overwritten by a later level otherwise
            owners[cut] = child_part0[child]
            live = (child_parts > 1) & (child_sizes > 0)
            part0, parts = child_part0[live], child_parts[live]
            bounds = np.concatenate(([0], np.cumsum(child_sizes[live])))
            if parts.size:
                # live children renumbered in level order, done ones last
                label[cut] = np.where(live, np.cumsum(live) - 1, parts.size)[child]
                orders = [
                    order[kernels.stable_order(label[order], parts.size + 1)[: bounds[-1]]]
                    for order in orders
                ]

        return PartitionResult(
            owner_map=owners,
            n_parts=n_parts,
            flops=flops,
            iops=iops,
            sync_rounds=rounds,
            comm_bytes=comm_bytes,
            info={"levels": levels},
        )
