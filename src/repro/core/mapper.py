"""The mapper coupler: feed a GeoCoL graph to a partitioner.

Implements the directive
``SET distfmt BY PARTITIONING G USING RSB`` (K2/K3 in Figure 6):
convert the GeoCoL graph to the standardized
:class:`~repro.partitioners.base.PartitionProblem`, run the named (or
custom) partitioner, charge its *modeled parallel execution* to the
machine, and return the new irregular distribution.
"""

from __future__ import annotations

from repro.core.geocol import GeoCoL
from repro.distribution.irregular import IrregularDistribution
from repro.machine.machine import Machine
from repro.partitioners.base import PartitionResult, Partitioner, get_partitioner


def partition_geocol(
    machine: Machine,
    geocol: GeoCoL,
    partitioner: str | Partitioner,
    n_parts: int | None = None,
    **partitioner_kwargs,
) -> tuple[IrregularDistribution, PartitionResult]:
    """Partition a GeoCoL graph; returns (new distribution, raw result).

    ``partitioner`` may be a registry name ("RSB", "RCB", ...) or any
    object with a matching ``partition(problem, n_parts)`` calling
    sequence -- the paper's "customized partitioner" hook.
    """
    if n_parts is None:
        n_parts = machine.n_procs
    if isinstance(partitioner, str):
        partitioner = get_partitioner(partitioner, **partitioner_kwargs)
    elif not hasattr(partitioner, "partition"):
        raise TypeError(
            "custom partitioner must provide partition(problem, n_parts)"
        )
    problem = geocol.to_problem()
    with machine.obs.span(
        "partitioners.partition",
        partitioner=getattr(partitioner, "name", type(partitioner).__name__),
        n_parts=n_parts,
        n_vertices=problem.n_vertices,
    ) as span:
        result = partitioner.partition(problem, n_parts)
        if "levels" in result.info:
            span.set(levels=result.info["levels"])
    if result.owner_map.size != geocol.n_vertices:
        raise ValueError(
            f"partitioner returned {result.owner_map.size} owners for "
            f"{geocol.n_vertices} vertices"
        )
    _charge_partitioner(machine, result)
    dist = IrregularDistribution(result.owner_map, machine.n_procs)
    return dist, result


def _charge_partitioner(machine: Machine, result: PartitionResult) -> None:
    """Charge the partitioner's modeled parallel cost.

    Work (flops/iops) is divided evenly across processors -- the paper's
    partitioners are parallelized -- and each synchronization round costs
    a tree allreduce of a scalar.
    """
    n = machine.n_procs
    machine.charge_compute_all(
        flops=result.flops / n,
        iops=result.iops / n,
    )
    if result.comm_bytes:
        # bulk data movement spread across the machine
        per_proc_bytes = result.comm_bytes / n
        machine.counters.clock += machine.cost.message_time(int(per_proc_bytes))
    if result.sync_rounds and n > 1:
        depth = max(1, (n - 1).bit_length())
        machine.counters.clock += (
            result.sync_rounds * 2 * depth * machine.cost.message_time(8)
        )
    machine.barrier()
