"""The simulated machine: virtual processors, clocks, and phases.

``Machine`` is the hub every other layer charges work to.  The execution
model is *loosely synchronous*, exactly what CHAOS assumes: computation
proceeds in clearly demarcated phases; within a phase each processor
accumulates compute and communication time on its own clock; at a phase
boundary (``barrier``/``phase`` exit) all clocks jump to the maximum.

The data itself lives in ``DistArray`` local segments (see
``repro.distribution.distarray``); the machine only tracks *time* and
*counters*, which keeps the simulation deterministic and fast.  Counters
live in a struct-of-arrays :class:`~repro.machine.stats.CounterBlock`
(``machine.counters``), so ``exchange`` and ``charge_compute_all`` are
pure bincount/add.at/ufunc updates with no Python loop over processors;
``machine.procs[p].stats`` remains a live per-processor view.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.machine.costmodel import CostModel, IPSC860
from repro.obs.tracer import NULL_TRACER
from repro.machine.stats import (
    CounterBlock,
    MachineStats,
    PhaseRecord,
    ProcessorStatsView,
)
from repro.machine.topology import Topology, make_topology


class Processor:
    """One virtual processor: a rank and a live view of its counters."""

    __slots__ = ("rank", "stats")

    def __init__(self, rank: int, counters: CounterBlock):
        self.rank = rank
        self.stats = ProcessorStatsView(counters, rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Processor(rank={self.rank}, clock={self.stats.clock:.6f})"


class Machine:
    """A P-processor distributed-memory machine with modeled time.

    Parameters
    ----------
    n_procs:
        Number of virtual processors.  With the default hypercube
        topology this must be a power of two (as on the iPSC/860).
    cost_model:
        A :class:`~repro.machine.costmodel.CostModel`; defaults to the
        iPSC/860 calibration.
    topology:
        Either a :class:`~repro.machine.topology.Topology` instance or a
        name accepted by :func:`~repro.machine.topology.make_topology`.
    """

    def __init__(
        self,
        n_procs: int,
        cost_model: CostModel = IPSC860,
        topology: Topology | str = "hypercube",
    ):
        if n_procs < 1:
            raise ValueError(f"need at least one processor, got {n_procs}")
        self.n_procs = int(n_procs)
        self.cost = cost_model
        if isinstance(topology, str):
            topology = make_topology(topology, self.n_procs)
        if topology.n_procs != self.n_procs:
            raise ValueError(
                f"topology is for {topology.n_procs} processors, machine has {self.n_procs}"
            )
        self.topology = topology
        self.counters = CounterBlock(self.n_procs)
        self.procs = [Processor(p, self.counters) for p in range(self.n_procs)]
        self.stats = MachineStats(counters=self.counters)
        self._phase_depth = 0
        #: optional repro.guard.faults.FaultPlan; hooks fire when set
        self.faults = None
        #: host-side span tracer (repro.obs); the shared no-op by
        #: default -- IrregularProgram installs a real Tracer when
        #: obs is on.  Never charges the simulated clocks.
        self.obs = NULL_TRACER

    # ------------------------------------------------------------------
    # clock primitives
    # ------------------------------------------------------------------
    def _check_rank(self, p: int) -> None:
        if not 0 <= p < self.n_procs:
            raise ValueError(f"processor id {p} out of range [0, {self.n_procs})")

    def clock(self, p: int) -> float:
        """Current simulated time on processor ``p``."""
        self._check_rank(p)
        return float(self.counters.clock[p])

    def elapsed(self) -> float:
        """Machine time so far: the maximum processor clock."""
        return float(self.counters.clock.max())

    def charge_compute(
        self, p: int, flops: float = 0.0, iops: float = 0.0, mem: float = 0.0
    ) -> float:
        """Charge local work to processor ``p``; returns the time charged."""
        self._check_rank(p)
        dt = self.cost.compute_time(flops=flops, iops=iops, mem=mem)
        c = self.counters
        c.clock[p] += dt
        c.flops[p] += flops
        c.iops[p] += iops
        c.mem_ops[p] += mem
        return dt

    def charge_compute_all(
        self,
        flops: Sequence[float] | np.ndarray | float = 0.0,
        iops: Sequence[float] | np.ndarray | float = 0.0,
        mem: Sequence[float] | np.ndarray | float = 0.0,
    ) -> None:
        """Charge per-processor work vectors (scalars broadcast).

        Accepts ndarrays, sequences, or scalars directly; both the time
        conversion and the counter updates are whole-array operations --
        no Python loop over processors.
        """
        n = self.n_procs
        fl = np.broadcast_to(np.asarray(flops, dtype=np.float64), (n,))
        io = np.broadcast_to(np.asarray(iops, dtype=np.float64), (n,))
        me = np.broadcast_to(np.asarray(mem, dtype=np.float64), (n,))
        dt = self.cost.compute_time_array(flops=fl, iops=io, mem=me)
        c = self.counters
        c.clock += dt
        c.flops += fl
        c.iops += io
        c.mem_ops += me

    # ------------------------------------------------------------------
    # communication primitives
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int) -> float:
        """Model one point-to-point message; returns the message time.

        Both endpoints are charged the full message time (blocking
        send/recv, the NX-library style the paper's runtime used).
        A message to self is a local memory copy.
        """
        self._check_rank(src)
        self._check_rank(dst)
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if src == dst:
            words = nbytes / 8.0
            return self.charge_compute(src, mem=words)
        hops = self.topology.hops(src, dst)
        dt = self.cost.message_time(nbytes, hops)
        c = self.counters
        c.clock[src] += dt
        c.messages_sent[src] += 1
        c.bytes_sent[src] += nbytes
        c.clock[dst] += dt
        c.messages_received[dst] += 1
        c.bytes_received[dst] += nbytes
        return dt

    def exchange(
        self,
        *,
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        nbytes: np.ndarray | Sequence[int],
    ) -> None:
        """Model an all-to-all-ish exchange phase.

        Traffic is given as parallel ``src``/``dst``/``nbytes`` arrays,
        one entry per message -- no Python loop over message pairs.
        Each processor's clock advances by the sum of the costs of the
        messages it sends plus those it receives (sequential injection,
        which is how the single-port iPSC/860 behaved); zero-byte
        entries are skipped entirely -- CHAOS schedules never post empty
        messages.  Per-processor time and counter updates accumulate in
        pair order.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if not (src.shape == dst.shape == nbytes.shape):
            raise ValueError("src, dst, and nbytes must have matching shapes")
        if src.size == 0:
            return
        n = self.n_procs
        if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
            bad = src if src.min() < 0 or src.max() >= n else dst
            bad = bad[(bad < 0) | (bad >= n)][0]
            raise ValueError(f"processor id {int(bad)} out of range [0, {n})")
        if nbytes.min() < 0:
            raise ValueError(f"negative message size {int(nbytes.min())}")
        live = nbytes != 0
        if not live.all():
            src, dst, nbytes = src[live], dst[live], nbytes[live]
            if src.size == 0:
                return

        self_mask = src == dst
        clock_add = np.zeros(n)
        mem_add = np.zeros(n)
        if self_mask.any():
            # messages to self are local memory copies (charge_compute)
            words = nbytes[self_mask] / 8.0
            np.add.at(clock_add, src[self_mask], self.cost.compute_time_array(mem=words))
            np.add.at(mem_add, src[self_mask], words)

        cross = ~self_mask
        xsrc, xdst, xbytes = src[cross], dst[cross], nbytes[cross]
        send_time = np.zeros(n)
        recv_time = np.zeros(n)
        msg_sent = np.zeros(n, dtype=np.int64)
        msg_recv = np.zeros(n, dtype=np.int64)
        bytes_sent = np.zeros(n, dtype=np.int64)
        bytes_recv = np.zeros(n, dtype=np.int64)
        if xsrc.size:
            hops = self.topology.hops_array(xsrc, xdst)
            dt = self.cost.message_time_array(xbytes, hops)
            np.add.at(send_time, xsrc, dt)
            np.add.at(recv_time, xdst, dt)
            msg_sent = np.bincount(xsrc, minlength=n)
            msg_recv = np.bincount(xdst, minlength=n)
            bytes_sent = np.bincount(xsrc, weights=xbytes, minlength=n).astype(np.int64)
            bytes_recv = np.bincount(xdst, weights=xbytes, minlength=n).astype(np.int64)

        c = self.counters
        c.clock += clock_add
        c.mem_ops += mem_add
        c.messages_sent += msg_sent
        c.bytes_sent += bytes_sent
        c.messages_received += msg_recv
        c.bytes_received += bytes_recv
        c.clock += send_time + recv_time

    def barrier(self) -> float:
        """Synchronize all clocks to the maximum plus a small sync cost."""
        t = self.elapsed()
        if self.n_procs > 1:
            # tree barrier: up + down sweep of tiny messages
            depth = max(1, (self.n_procs - 1).bit_length())
            t += 2 * depth * self.cost.alpha
        self.counters.clock[:] = t
        return t

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Named loosely synchronous region; records a PhaseRecord.

        The region begins and ends with a barrier; ``elapsed`` is the
        wall time between them on the synchronized machine clock.  An
        installed :class:`~repro.guard.faults.FaultPlan` gets to stall
        processors just inside the opening barrier and just before the
        closing one, so injected straggler time lands inside the phase.
        """
        self.barrier()
        start = self.elapsed()
        before = self.counters.copy()
        self._phase_depth += 1
        if self.faults is not None:
            self.faults.on_phase(self, name, "enter")
        try:
            yield
        finally:
            self._phase_depth -= 1
            if self.faults is not None:
                self.faults.on_phase(self, name, "exit")
            self.barrier()
            end = self.elapsed()
            self.stats.add(
                PhaseRecord(
                    name=name,
                    elapsed=end - start,
                    arrays=self.counters.delta(before),
                )
            )

    def phase_time(self, name: str) -> float:
        """Sum of elapsed time over phases with this name."""
        return self.stats.phase_time(name)

    def reset(self) -> None:
        """Zero all clocks, counters, and phase records."""
        self.counters.reset()
        self.stats.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(n_procs={self.n_procs}, cost={self.cost.name!r}, "
            f"topology={type(self.topology).__name__}, t={self.elapsed():.6f}s)"
        )
