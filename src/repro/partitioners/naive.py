"""The naive partitioner: BLOCK.

BLOCK is the paper's baseline ("we assigned each processor contiguous
blocks of array elements", Table 4): free to compute, oblivious to
structure, and therefore the partition the irregular ones must beat.
"""

from __future__ import annotations

import numpy as np

from repro.partitioners.base import (
    PartitionProblem,
    PartitionResult,
    Partitioner,
    register_partitioner,
)


@register_partitioner("BLOCK")
class BlockPartitioner(Partitioner):
    """Contiguous chunks of ceil(N/P), exactly HPF BLOCK."""

    def partition(self, problem: PartitionProblem, n_parts: int) -> PartitionResult:
        self.validate(problem, n_parts)
        n = problem.n_vertices
        chunk = -(-n // n_parts) if n else 1
        owners = np.arange(n, dtype=np.int64) // chunk
        return PartitionResult(
            owner_map=owners,
            n_parts=n_parts,
            iops=float(n),  # one pass to write the map
            sync_rounds=0,
        )
