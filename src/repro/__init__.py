"""repro: a reproduction of Ponnusamy, Saltz & Choudhary (SC '93),
"Runtime Compilation Techniques for Data Partitioning and Communication
Schedule Reuse".

The package rebuilds the paper's full stack in Python:

* :mod:`repro.machine` -- a simulated iPSC/860-style distributed-memory
  machine (hypercube topology, alpha-beta communication costs, per-
  processor clocks);
* :mod:`repro.distribution` -- BLOCK/CYCLIC/BLOCK-CYCLIC/irregular
  distributions, Fortran-D decompositions, distributed arrays;
* :mod:`repro.chaos` -- the CHAOS/PARTI runtime: translation tables,
  communication schedules, localize, gather/scatter, remap;
* :mod:`repro.partitioners` -- BLOCK/LOAD/RCB/RSB with a registry for
  custom partitioners and quality metrics;
* :mod:`repro.core` -- the paper's contribution: data access
  descriptors, the nmod/last_mod registry, the conservative schedule-
  reuse check, GeoCoL construction, the mapper coupler, iteration
  partitioning, and the inspector/executor transformation;
* :mod:`repro.adapt` -- incremental inspection for adaptive codes:
  region-level dirty tracking, reference diffing, and schedule/ghost
  patching instead of full re-inspection;
* :mod:`repro.guard` -- robustness substrate: invariant verification,
  deterministic fault injection, typed failure recovery, and
  checkpoint/restore of long campaigns;
* :mod:`repro.lang` -- a Fortran-90D-like directive frontend that
  performs the paper's compile-time transformation (Figure 6);
* :mod:`repro.workloads` -- unstructured-mesh (Euler) and molecular-
  dynamics workload generators used by the benchmarks;
* :mod:`repro.bench` -- the harness regenerating the paper's tables.

Quickstart::

    import numpy as np
    from repro import Machine, IrregularProgram, ForallLoop, Reduce, ArrayRef

    m = Machine(4)
    prog = IrregularProgram(m)
    prog.decomposition("reg", 8)
    prog.distribute("reg", "block")
    prog.decomposition("reg2", 12)
    prog.distribute("reg2", "block")
    prog.array("x", "reg", values=np.arange(8.0))
    prog.array("y", "reg", values=np.zeros(8))
    prog.array("end_pt1", "reg2", values=np.random.randint(0, 8, 12), dtype=np.int64)
    prog.array("end_pt2", "reg2", values=np.random.randint(0, 8, 12), dtype=np.int64)
    loop = ForallLoop("sweep", 12, [
        Reduce("add", ArrayRef("y", "end_pt1"), lambda a, b: a - b,
               (ArrayRef("x", "end_pt1"), ArrayRef("x", "end_pt2")), flops=2),
    ])
    prog.forall(loop, n_times=10)          # inspector runs once, reused 9x
    print(m.elapsed(), prog.reuse_hits)
"""

from repro.machine import Machine, IPSC860
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    BlockCyclicDistribution,
    IrregularDistribution,
    Decomposition,
    DistArray,
)
from repro.core import (
    DAD,
    ModificationRegistry,
    InspectorRecord,
    can_reuse,
    ArrayRef,
    Assign,
    Reduce,
    ForallLoop,
    GeoCoL,
    construct_geocol,
    partition_geocol,
    partition_iterations,
    run_inspector,
    run_executor,
    IrregularProgram,
)
from repro.partitioners import get_partitioner, available_partitioners
from repro.adapt import AdaptiveExecutor
from repro.guard import (
    CheckpointError,
    FaultPlan,
    GuardError,
    InvariantViolation,
    PatchAborted,
    PatchError,
    PatchVerifyFailed,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
    verify_product,
)

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "IPSC860",
    "BlockDistribution",
    "CyclicDistribution",
    "BlockCyclicDistribution",
    "IrregularDistribution",
    "Decomposition",
    "DistArray",
    "DAD",
    "ModificationRegistry",
    "InspectorRecord",
    "can_reuse",
    "ArrayRef",
    "Assign",
    "Reduce",
    "ForallLoop",
    "GeoCoL",
    "construct_geocol",
    "partition_geocol",
    "partition_iterations",
    "run_inspector",
    "run_executor",
    "IrregularProgram",
    "AdaptiveExecutor",
    "get_partitioner",
    "available_partitioners",
    "CheckpointError",
    "FaultPlan",
    "GuardError",
    "InvariantViolation",
    "PatchAborted",
    "PatchError",
    "PatchVerifyFailed",
    "load_checkpoint",
    "restore_checkpoint",
    "save_checkpoint",
    "verify_product",
    "__version__",
]
