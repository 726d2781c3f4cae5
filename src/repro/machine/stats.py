"""Per-processor and machine-wide counters.

Every runtime operation charges a processor's clock and counters.  The
benchmark harness reads phase records (named, nestable timing regions) to
produce the paper's table rows; the raw counters (messages, bytes, flops)
back the ablation benches and give tests something exact to assert on.

Counters are stored as a struct-of-arrays :class:`CounterBlock` (one
ndarray per counter across all processors) so the machine's hot paths --
``exchange``, ``charge_compute_all``, the collectives -- update them with
single vectorized operations instead of a Python fold over per-processor
objects.  :class:`ProcessorStats` remains the scalar snapshot type, and
:class:`ProcessorStatsView` keeps the historical ``machine.procs[p].stats``
attribute API working as a live view into the block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: counter names, in the order ProcessorStats declares them
COUNTER_FIELDS = (
    "clock",
    "messages_sent",
    "messages_received",
    "bytes_sent",
    "bytes_received",
    "flops",
    "iops",
    "mem_ops",
)

#: counters stored as int64 arrays; the rest are float64
INT_COUNTER_FIELDS = frozenset(
    ("messages_sent", "messages_received", "bytes_sent", "bytes_received")
)


@dataclass
class ProcessorStats:
    """Counters for one virtual processor (a plain scalar snapshot)."""

    clock: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    flops: float = 0.0
    iops: float = 0.0
    mem_ops: float = 0.0

    def snapshot(self) -> "ProcessorStats":
        return ProcessorStats(
            clock=self.clock,
            messages_sent=self.messages_sent,
            messages_received=self.messages_received,
            bytes_sent=self.bytes_sent,
            bytes_received=self.bytes_received,
            flops=self.flops,
            iops=self.iops,
            mem_ops=self.mem_ops,
        )

    def delta(self, earlier: "ProcessorStats") -> "ProcessorStats":
        """Counter difference ``self - earlier`` (for phase accounting)."""
        return ProcessorStats(
            clock=self.clock - earlier.clock,
            messages_sent=self.messages_sent - earlier.messages_sent,
            messages_received=self.messages_received - earlier.messages_received,
            bytes_sent=self.bytes_sent - earlier.bytes_sent,
            bytes_received=self.bytes_received - earlier.bytes_received,
            flops=self.flops - earlier.flops,
            iops=self.iops - earlier.iops,
            mem_ops=self.mem_ops - earlier.mem_ops,
        )


class CounterBlock:
    """Struct-of-arrays counters for all processors of one machine.

    One ndarray per counter; ``block.clock[p]`` is processor ``p``'s
    clock.  Hot paths add whole vectors (``block.clock += dt``); the
    object-per-processor API survives through :class:`ProcessorStatsView`.
    """

    __slots__ = ("n_procs",) + COUNTER_FIELDS

    def __init__(self, n_procs: int):
        self.n_procs = int(n_procs)
        for name in COUNTER_FIELDS:
            dtype = np.int64 if name in INT_COUNTER_FIELDS else np.float64
            setattr(self, name, np.zeros(self.n_procs, dtype=dtype))

    def copy(self) -> "CounterBlock":
        out = CounterBlock.__new__(CounterBlock)
        out.n_procs = self.n_procs
        for name in COUNTER_FIELDS:
            setattr(out, name, getattr(self, name).copy())
        return out

    def delta(self, earlier: "CounterBlock") -> "CounterBlock":
        """Per-counter difference ``self - earlier`` as a new block."""
        out = CounterBlock.__new__(CounterBlock)
        out.n_procs = self.n_procs
        for name in COUNTER_FIELDS:
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        return out

    def reset(self) -> None:
        for name in COUNTER_FIELDS:
            getattr(self, name)[:] = 0

    def snapshot(self, p: int) -> ProcessorStats:
        """Materialize processor ``p``'s counters as a ProcessorStats."""
        return ProcessorStats(
            clock=float(self.clock[p]),
            messages_sent=int(self.messages_sent[p]),
            messages_received=int(self.messages_received[p]),
            bytes_sent=int(self.bytes_sent[p]),
            bytes_received=int(self.bytes_received[p]),
            flops=float(self.flops[p]),
            iops=float(self.iops[p]),
            mem_ops=float(self.mem_ops[p]),
        )

    def snapshots(self) -> list[ProcessorStats]:
        return [self.snapshot(p) for p in range(self.n_procs)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterBlock(n_procs={self.n_procs}, clock={self.clock!r})"


def _view_field(name: str):
    cast = int if name in INT_COUNTER_FIELDS else float

    def fget(self):
        return cast(getattr(self._block, name)[self._rank])

    def fset(self, value):
        getattr(self._block, name)[self._rank] = value

    return property(fget, fset, doc=f"Live {name} counter in the machine's CounterBlock.")


class ProcessorStatsView:
    """Live per-processor window into a :class:`CounterBlock`.

    Reads and writes go straight to the block's arrays, so code written
    against the old object store (``machine.procs[p].stats.clock += dt``)
    keeps working unchanged.
    """

    __slots__ = ("_block", "_rank")

    def __init__(self, block: CounterBlock, rank: int):
        self._block = block
        self._rank = rank

    def snapshot(self) -> ProcessorStats:
        return self._block.snapshot(self._rank)

    def delta(self, earlier: ProcessorStats) -> ProcessorStats:
        return self.snapshot().delta(earlier)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessorStatsView(rank={self._rank}, {self.snapshot()!r})"


for _name in COUNTER_FIELDS:
    setattr(ProcessorStatsView, _name, _view_field(_name))
del _name


class PhaseRecord:
    """One named timing region, as the harness reports it.

    ``elapsed`` is wall time on the simulated machine: the maximum clock
    advance over all processors between phase start and end (the loosely
    synchronous convention -- everyone waits for the slowest).

    ``arrays`` is the :class:`CounterBlock` of per-phase deltas, the
    only storage: the aggregates are vectorized sums over it and
    ``per_proc`` is a read-only list of :class:`ProcessorStats`
    snapshots materialized on first access.
    """

    __slots__ = ("name", "elapsed", "_per_proc", "arrays")

    def __init__(self, name: str, elapsed: float, arrays: CounterBlock):
        self.name = name
        self.elapsed = elapsed
        self._per_proc: list[ProcessorStats] | None = None
        self.arrays = arrays

    @property
    def per_proc(self) -> list[ProcessorStats]:
        if self._per_proc is None:
            self._per_proc = self.arrays.snapshots()
        return self._per_proc

    @property
    def total_messages(self) -> int:
        return int(self.arrays.messages_sent.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.arrays.bytes_sent.sum())

    @property
    def total_flops(self) -> float:
        return float(self.arrays.flops.sum())

    @property
    def max_clock(self) -> float:
        return float(self.arrays.clock.max()) if self.arrays.n_procs else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseRecord(name={self.name!r}, elapsed={self.elapsed!r})"


@dataclass
class MachineStats:
    """Machine-wide aggregation over all processors and phases.

    When bound to a machine's :class:`CounterBlock` (the ``counters``
    field), ``stats[p]`` lazily materializes processor ``p``'s current
    counters as a :class:`ProcessorStats` snapshot.
    """

    phases: list[PhaseRecord] = field(default_factory=list)
    counters: CounterBlock | None = field(default=None, repr=False, compare=False)

    def __getitem__(self, p: int) -> ProcessorStats:
        if self.counters is None:
            raise TypeError("MachineStats is not bound to a machine's counters")
        return self.counters.snapshot(p)

    def add(self, record: PhaseRecord) -> None:
        self.phases.append(record)

    def phase_time(self, name: str) -> float:
        """Total elapsed simulated time across all phases named ``name``."""
        return sum(p.elapsed for p in self.phases if p.name == name)

    def phase_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for p in self.phases:
            seen.setdefault(p.name, None)
        return list(seen)

    def total_time(self) -> float:
        return sum(p.elapsed for p in self.phases)

    def clear(self) -> None:
        self.phases.clear()
