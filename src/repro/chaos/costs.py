"""Operation-count constants charged by CHAOS procedures.

CHAOS/PARTI inspectors are integer/pointer code: hash tables to
deduplicate off-processor references, translation-table probes, schedule
assembly, buffer bookkeeping.  On the i860 this code ran at an effective
~1-1.5 M integer ops/s (poor cache behaviour), which is why the paper's
inspector and remap phases cost whole seconds for tens of thousands of
references.  We reproduce that balance by charging explicit per-element
operation counts, centralized here so tests can assert on them.

Counts are rough i860-era instruction estimates per element for each
primitive; only their ratios to the flop/byte costs matter for the
reproduction's table shapes.  They are a fixed calibration: every charge
site reads the one instance, :data:`DEFAULT_COSTS`.  The calibration
ablation perturbs the machine's :class:`~repro.machine.costmodel.CostModel`
instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChaosCosts:
    """Per-element integer-operation counts for CHAOS primitives."""

    hash_insert: float = 10.0
    """Insert a global index into the dedup hash table (one probe chain)."""

    hash_lookup: float = 5.0
    """Probe the dedup hash table for an already-seen index."""

    translate_regular: float = 3.0
    """Closed-form owner/offset computation (div/mod) for regular dists."""

    translate_replicated: float = 4.0
    """Local translation-table lookup (two array reads + bounds check)."""

    translate_remote: float = 6.0
    """Table-page probe executed at the page owner (distributed table)."""

    schedule_build: float = 14.0
    """Per unique off-processor reference: send-list/recv-slot assembly."""

    buffer_assign: float = 4.0
    """Per ghost slot: buffer address assignment and index rewrite."""

    remap_build: float = 18.0
    """Per element: new-translation-table entry + remap schedule slot."""

    pack_unpack_mem: float = 2.0
    """8-byte memory accesses per element when packing/unpacking buffers."""

    index_bytes: int = 4
    """Wire size of one index in request messages (PARTI used 32-bit ints)."""


DEFAULT_COSTS = ChaosCosts()
