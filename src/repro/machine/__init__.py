"""Simulated distributed-memory machine substrate.

The paper's experiments ran on an Intel iPSC/860 hypercube.  This package
provides a deterministic stand-in: ``P`` virtual processors, each with a
private clock and operation counters, connected by a configurable topology
and charged for work through an alpha-beta communication cost model plus a
per-operation compute cost.  Execution is *loosely synchronous* -- the
model the CHAOS runtime assumes -- so simulated time advances per
communication/computation phase and barriers take the per-phase maximum.

All times reported by the benchmark harness are **simulated machine
seconds** derived from these counters, never Python wall-clock time.
"""

from repro.machine.topology import (
    Topology,
    HypercubeTopology,
    FullyConnectedTopology,
    make_topology,
)
from repro.machine.costmodel import CostModel, IPSC860
from repro.machine.stats import CounterBlock, MachineStats, PhaseRecord
from repro.machine.machine import Machine
from repro.machine.collectives import allgather_cost

__all__ = [
    "Topology",
    "HypercubeTopology",
    "FullyConnectedTopology",
    "make_topology",
    "CostModel",
    "IPSC860",
    "CounterBlock",
    "MachineStats",
    "PhaseRecord",
    "Machine",
    "allgather_cost",
]
