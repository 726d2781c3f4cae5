"""Partitioner library.

"The user will be provided a library of commonly available partitioners
and the user can choose any one of them.  Also, the user can link a
customized partitioner as long as the calling sequence matches."
(Section 4.2.)

The standard calling sequence is :class:`PartitionProblem` (the
standardized representation the compiler builds from a GeoCoL graph) in,
:class:`PartitionResult` out.  Partitioners register themselves by name
in a registry; ``SET distfmt BY PARTITIONING G USING RSB`` resolves
``RSB`` here, and users register custom partitioners the same way.

Included partitioners:

========  ==========================================  ===================
name      method                                      GeoCoL inputs used
========  ==========================================  ===================
BLOCK     contiguous chunks (HPF BLOCK)               none
LOAD      greedy weighted list scheduling             LOAD
RCB       recursive coordinate bisection [Berger87]   GEOMETRY (+LOAD)
RSB       recursive spectral bisection [Simon91]      LINK (+LOAD)
========  ==========================================  ===================
"""

from repro.partitioners.base import (
    PartitionProblem,
    PartitionResult,
    Partitioner,
    available_partitioners,
    get_partitioner,
    register_partitioner,
)
from repro.partitioners.naive import BlockPartitioner
from repro.partitioners.weighted import LoadPartitioner, weighted_median_split
from repro.partitioners.rcb import RCBPartitioner
from repro.partitioners.rsb import RSBPartitioner, fiedler_vector
from repro.partitioners.metrics import edge_cut, load_imbalance

__all__ = [
    "PartitionProblem",
    "PartitionResult",
    "Partitioner",
    "available_partitioners",
    "get_partitioner",
    "register_partitioner",
    "BlockPartitioner",
    "LoadPartitioner",
    "weighted_median_split",
    "RCBPartitioner",
    "RSBPartitioner",
    "fiedler_vector",
    "edge_cut",
    "load_imbalance",
]
