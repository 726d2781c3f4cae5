"""Weight handling: weighted-median splits and the LOAD-only partitioner.

"Vertex weights can be used as a sole partitioning criterion in
embarrassingly parallel problems" (Section 4.1.1) -- that is
:class:`LoadPartitioner`.  The weighted-median split is the primitive the
recursive bisection partitioners (RCB/RSB) share: order vertices by a
key and cut so the two sides carry prescribed fractions of total weight.
"""

from __future__ import annotations

import numpy as np

from repro.partitioners.base import (
    PartitionProblem,
    PartitionResult,
    Partitioner,
    register_partitioner,
)


def weighted_median_split(
    key: np.ndarray, weights: np.ndarray, left_fraction: float = 0.5
) -> np.ndarray:
    """Boolean mask of the 'left' side of a weighted split along ``key``.

    Vertices are ordered by ``key``; the cut is placed so the left side's
    weight is as close as possible to ``left_fraction`` of the total,
    with ties broken deterministically by sort order.  Every split leaves
    both sides non-empty when there are at least two vertices.
    """
    key = np.asarray(key, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if key.shape != weights.shape:
        raise ValueError(f"key shape {key.shape} != weights shape {weights.shape}")
    if not 0.0 < left_fraction < 1.0:
        raise ValueError(f"left_fraction must be in (0, 1), got {left_fraction}")
    mask = np.zeros(key.size, dtype=bool)
    order = np.argsort(key, kind="stable")
    mask[order[: _left_count(weights[order], left_fraction)]] = True
    return mask


def _left_count(ordered_weights: np.ndarray, left_fraction: float) -> int:
    """How many of the key-ordered vertices a weighted split puts left.

    The first vertex whose running weight reaches ``left_fraction`` of
    the total closes the left side; with no positive weight the count is
    ``round(n * left_fraction)``.  Either way it is clamped to
    ``[1, n - 1]``, so two or more vertices leave both sides non-empty;
    a lone vertex goes left.
    """
    n = ordered_weights.size
    if n < 2:
        return n
    cum = np.cumsum(ordered_weights)
    total = cum[-1]
    if total <= 0:
        k = int(round(n * left_fraction))
    else:
        k = int(np.searchsorted(cum, left_fraction * total, side="left")) + 1
    return min(max(k, 1), n - 1)


@register_partitioner("LOAD")
class LoadPartitioner(Partitioner):
    """Greedy list scheduling on vertex weights (longest-processing-time).

    Ignores connectivity and geometry entirely: appropriate when
    computational cost dominates and communication is negligible.
    """

    def partition(self, problem: PartitionProblem, n_parts: int) -> PartitionResult:
        self.validate(problem, n_parts)
        w = problem.effective_weights()
        n = problem.n_vertices
        owners = np.empty(n, dtype=np.int64)
        loads = np.zeros(n_parts, dtype=np.float64)
        # LPT: place heaviest first on the lightest part.  A binary heap
        # would be O(n log P); argmin per step is fine at these sizes and
        # we charge the modeled parallel cost, not Python's.
        for v in np.argsort(-w, kind="stable"):
            p = int(np.argmin(loads))
            owners[v] = p
            loads[p] += w[v]
        return PartitionResult(
            owner_map=owners,
            n_parts=n_parts,
            iops=float(n) * (np.log2(max(n, 2)) + np.log2(max(n_parts, 2))),
            flops=float(n),
            sync_rounds=1,
            info={"max_load": float(loads.max(initial=0.0))},
        )
