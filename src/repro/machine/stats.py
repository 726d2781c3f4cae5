"""Per-processor and machine-wide counters.

Every runtime operation charges a processor's clock and counters.  The
benchmark harness reads phase records (named, nestable timing regions) to
produce the paper's table rows; the raw counters (messages, bytes, flops)
back the ablation benches and give tests something exact to assert on.

Counters are stored as a struct-of-arrays :class:`CounterBlock` (one
ndarray per counter across all processors) so the machine's hot paths --
``exchange``, ``charge_compute_all``, the collectives -- update them with
single vectorized operations instead of a Python fold over per-processor
objects.  The block is the only form: ``machine.counters.<field>[p]`` is
processor ``p``'s live counter, ``record.arrays.<field>[p]`` its share of
one phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: counter names, in CounterBlock slot order
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


class CounterBlock:
    """Struct-of-arrays counters for all processors of one machine.

    One ndarray per counter; ``block.clock[p]`` is processor ``p``'s
    clock.  Hot paths add whole vectors (``block.clock += dt``).
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterBlock(n_procs={self.n_procs}, clock={self.clock!r})"


class PhaseRecord:
    """One named timing region, as the harness reports it.

    ``elapsed`` is wall time on the simulated machine: the maximum clock
    advance over all processors between phase start and end (the loosely
    synchronous convention -- everyone waits for the slowest).

    ``arrays`` is the :class:`CounterBlock` of per-phase deltas.
    """

    __slots__ = ("name", "elapsed", "arrays")

    def __init__(self, name: str, elapsed: float, arrays: CounterBlock):
        self.name = name
        self.elapsed = elapsed
        self.arrays = arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseRecord(name={self.name!r}, elapsed={self.elapsed!r})"


@dataclass
class MachineStats:
    """Machine-wide aggregation over all phases."""

    phases: list[PhaseRecord] = field(default_factory=list)

    def add(self, record: PhaseRecord) -> None:
        self.phases.append(record)

    def phase_time(self, name: str) -> float:
        """Total elapsed simulated time across all phases named ``name``."""
        return sum(p.elapsed for p in self.phases if p.name == name)

    def clear(self) -> None:
        self.phases.clear()
