"""Communication and computation cost model.

Message cost follows the classic alpha-beta (Hockney) model with a small
per-hop term for store-and-forward networks:

    t(msg) = alpha + beta * nbytes + hop_cost * (hops - 1)

Compute cost is charged per abstract operation: floating-point ops, integer
index ops, and (local) memory traffic all convert to seconds through
per-operation rates.  The ``IPSC860`` preset is calibrated to published
Intel iPSC/860 microbenchmarks: ~100 microsecond message startup,
~2.8 MB/s sustained point-to-point bandwidth, and an *effective* (not
peak) compute rate of ~2 MFLOP/s on irregular Fortran loop bodies.

Only ratios matter for the reproduction -- the ablation bench
(`bench_ablation_costmodel`) shows the paper-table *shapes* survive 10x
perturbations of each constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class CostModel:
    """Converts operation counts to simulated seconds."""

    alpha: float = 100e-6
    """Message startup latency, seconds."""

    beta: float = 1.0 / 2.8e6
    """Per-byte transfer time, seconds (inverse bandwidth)."""

    hop_cost: float = 10e-6
    """Extra latency per network hop beyond the first, seconds."""

    flop_time: float = 1.0 / 2.0e6
    """Seconds per floating-point operation (effective, not peak)."""

    iop_time: float = 1.0 / 1.5e6
    """Seconds per integer/index operation (table lookups, hashing).

    Irregular integer/pointer code (hash probes, indirect loads) ran at
    an effective ~1-1.5 M ops/s on the i860 -- far below peak -- which
    is what makes the paper's inspector/remap phases cost seconds.
    """

    mem_time: float = 1.0 / 20.0e6
    """Seconds per 8-byte local memory access (copies, buffer packing)."""

    name: str = "custom"

    def __post_init__(self) -> None:
        for field in ("alpha", "beta", "hop_cost", "flop_time", "iop_time", "mem_time"):
            if getattr(self, field) < 0:
                raise ValueError(f"cost model field {field} must be non-negative")

    # -- communication -----------------------------------------------------
    def message_time(self, nbytes: int, hops: int = 1) -> float:
        """Time for one point-to-point message of ``nbytes`` over ``hops``."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if hops < 0:
            raise ValueError(f"negative hop count {hops}")
        extra = max(hops - 1, 0)
        return self.alpha + self.beta * nbytes + self.hop_cost * extra

    def message_time_array(self, nbytes: np.ndarray, hops: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`message_time` over parallel size/hop arrays.

        The arithmetic matches the scalar path term for term (same
        operation order), so simulated times are bit-identical whether a
        message is costed one at a time or in bulk.
        """
        nbytes = np.asarray(nbytes)
        hops = np.asarray(hops)
        if nbytes.size and nbytes.min() < 0:
            raise ValueError(f"negative message size {int(nbytes.min())}")
        if hops.size and hops.min() < 0:
            raise ValueError(f"negative hop count {int(hops.min())}")
        extra = np.maximum(hops - 1, 0)
        return self.alpha + self.beta * nbytes + self.hop_cost * extra

    # -- computation -------------------------------------------------------
    def compute_time(self, flops: float = 0.0, iops: float = 0.0, mem: float = 0.0) -> float:
        """Time for a block of local work.

        ``mem`` counts 8-byte word accesses beyond those implied by flops
        (e.g. buffer packing/unpacking, copies).
        """
        if min(flops, iops, mem) < 0:
            raise ValueError("operation counts must be non-negative")
        return flops * self.flop_time + iops * self.iop_time + mem * self.mem_time

    def compute_time_array(
        self,
        flops: np.ndarray | float = 0.0,
        iops: np.ndarray | float = 0.0,
        mem: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Vectorized :meth:`compute_time`; same term order, so charging
        work in bulk or per processor yields bit-identical times."""
        flops = np.asarray(flops, dtype=np.float64)
        iops = np.asarray(iops, dtype=np.float64)
        mem = np.asarray(mem, dtype=np.float64)
        for counts in (flops, iops, mem):
            if counts.size and counts.min() < 0:
                raise ValueError("operation counts must be non-negative")
        return flops * self.flop_time + iops * self.iop_time + mem * self.mem_time

    def scaled(self, **factors: float) -> "CostModel":
        """Return a copy with named fields multiplied by given factors.

        Used by the calibration ablation: ``model.scaled(alpha=10, beta=0.1)``.
        """
        updates = {}
        for key, factor in factors.items():
            if key == "name":
                raise ValueError("cannot scale the model name")
            updates[key] = getattr(self, key) * factor
        return replace(self, name=f"{self.name}-scaled", **updates)


IPSC860 = CostModel(name="ipsc860")
"""Calibrated to the Intel iPSC/860 hypercube used in the paper."""
