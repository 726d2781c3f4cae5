"""CHAOS runtime library (a faithful superset of PARTI, in Python).

The paper (Section 2.1, Section 8) describes CHAOS as a portable,
compiler-independent runtime whose procedures

* support static and dynamic distributed-array partitioning,
* partition loop iterations and indirection arrays,
* remap arrays from one distribution to another, and
* carry out index translation, buffer allocation and communication
  schedule generation.

This package implements all four groups against the simulated machine:

``ttable``
    Translation tables mapping global indices of irregularly distributed
    arrays to ``(owner, local offset)``; replicated and distributed
    (paged) variants, the latter charging dereference communication.
``schedule``
    ``CommSchedule`` -- the paper's *communication schedule*: per
    processor-pair send lists and ghost-buffer placement, with
    ``gather`` / ``scatter`` / ``scatter_op`` executors that move ghost
    data through one flat array in the schedule's layout (the executor
    allocates it per sweep; no ghost buffer is saved), read off a
    ``SlotState``, the layout's one form.
``localize``
    The PARTI *localize* primitive at the heart of every inspector:
    translate a reference list, deduplicate off-processor accesses,
    assign ghost-buffer slots (the slot state), and read the
    communication schedule off them.
``gather_scatter``
    The reduction operators a REDUCE statement may name.
``remap``
    Distribution-to-distribution array remapping (Phase C of Figure 2).
``costs``
    The operation-count constants CHAOS procedures charge: one
    documented, fixed table (``DEFAULT_COSTS``).
"""

from repro.chaos.costs import ChaosCosts, DEFAULT_COSTS
from repro.chaos.ttable import (
    Translator,
    RegularTranslationTable,
    ReplicatedTranslationTable,
    DistributedTranslationTable,
    build_translation_table,
)
from repro.chaos.schedule import CommSchedule
from repro.chaos.localize import LocalizeResult, localize
from repro.chaos.gather_scatter import REDUCTION_OPS
from repro.chaos.remap import RemapSchedule, build_remap_schedule, remap_arrays

__all__ = [
    "ChaosCosts",
    "DEFAULT_COSTS",
    "Translator",
    "RegularTranslationTable",
    "ReplicatedTranslationTable",
    "DistributedTranslationTable",
    "build_translation_table",
    "CommSchedule",
    "LocalizeResult",
    "localize",
    "REDUCTION_OPS",
    "RemapSchedule",
    "build_remap_schedule",
    "remap_arrays",
]
