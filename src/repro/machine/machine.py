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
``machine.counters.<field>[p]`` is processor ``p``'s live counter.

Charging has the same inspector/executor split as the runtime above it:
``plan_exchange`` / ``plan_compute_all`` turn a call's arguments into
frozen per-processor vectors (:class:`ExchangeCharge`,
:class:`ComputeCharge`) and ``charge_exchange`` /
``charge_planned_compute`` add them to the counters.  The one-shot
``exchange`` / ``charge_compute_all`` are plan-then-charge, so whoever
charges the same traffic again keeps the plan and pays O(P) per repeat.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.machine.costmodel import CostModel, IPSC860
from repro.obs.tracer import NULL_TRACER
from repro.machine.stats import CounterBlock, MachineStats, PhaseRecord
from repro.machine.topology import Topology, make_topology


@dataclass(frozen=True, slots=True, eq=False)
class ExchangeCharge:
    """What one ``exchange`` call adds to the counters, planned once.

    Built by :meth:`Machine.plan_exchange`, applied (any number of
    times) by :meth:`Machine.charge_exchange`.  The seven per-processor
    vectors are read-only; ``src``/``dst``/``nbytes`` are the validated,
    zero-byte-filtered traffic they were folded from, held by reference
    so whoever observes ``charge_exchange`` sees every message of a
    charge that is replayed rather than re-planned.
    ``n_procs``/``topology``/``cost`` are the machine parameters the
    vectors depend on; a machine refuses a charge planned against others.
    """

    n_procs: int
    topology: Topology
    cost: CostModel
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    #: cross-processor messages / bytes (self copies excluded)
    n_messages: int
    n_bytes: int
    #: self-copy time and word counts (messages to self are memory copies)
    clock_add: np.ndarray
    mem_add: np.ndarray
    messages_sent: np.ndarray
    bytes_sent: np.ndarray
    messages_received: np.ndarray
    bytes_received: np.ndarray
    #: send time + receive time of the cross-processor messages
    msg_time: np.ndarray

    def __post_init__(self) -> None:
        for vec in (
            self.clock_add,
            self.mem_add,
            self.messages_sent,
            self.bytes_sent,
            self.messages_received,
            self.bytes_received,
            self.msg_time,
        ):
            vec.flags.writeable = False


@dataclass(frozen=True, slots=True, eq=False)
class ComputeCharge:
    """What one ``charge_compute_all`` call adds, planned once: the
    broadcast ``flops``/``iops``/``mem`` vectors (read-only views of the
    caller's arguments) and the time ``dt`` they cost under ``cost``."""

    n_procs: int
    cost: CostModel
    dt: np.ndarray
    flops: np.ndarray
    iops: np.ndarray
    mem: np.ndarray

    def __post_init__(self) -> None:
        self.dt.flags.writeable = False


def get_or_plan(plans: dict, key, plan):
    """``plans[key]``, filled from ``plan()`` on first use: how a schedule
    holds the charges that depend on a call argument (an itemsize, a
    cost table) -- planned once, applied from the dict ever after."""
    held = plans.get(key)
    if held is None:
        held = plans[key] = plan()
    return held


class Machine:
    """A P-processor distributed-memory machine with modeled time.

    Every charge is *planned*, then *applied*.  ``plan_exchange`` does
    the O(messages) part of an exchange once -- validation, zero-byte
    filter, hop counts, message times, the per-processor fold in pair
    order -- and returns a frozen :class:`ExchangeCharge`;
    ``charge_exchange`` adds its seven vectors to the counters in a
    fixed order, O(P) per application and bit-identical every time.
    ``exchange`` is exactly ``charge_exchange(plan_exchange(...))``;
    charge tapes (``repro.chaos.transcache.ChargeLog``), communication
    and remap schedules and the patch rung's shared-layout replay hold
    the plan and skip straight to the apply.  ``plan_compute_all`` /
    ``charge_planned_compute`` split ``charge_compute_all`` the same
    way.  A charge records the ``(n_procs, topology, cost model)`` it
    was planned against and is refused (``ValueError``) by any other
    machine.

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
        self.stats = MachineStats()
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
        self.charge_planned_compute(
            self.plan_compute_all(flops=flops, iops=iops, mem=mem)
        )

    def plan_compute_all(
        self,
        flops: Sequence[float] | np.ndarray | float = 0.0,
        iops: Sequence[float] | np.ndarray | float = 0.0,
        mem: Sequence[float] | np.ndarray | float = 0.0,
    ) -> ComputeCharge:
        """Broadcast, validate and cost one ``charge_compute_all`` call
        without charging it."""
        n = self.n_procs
        fl = np.broadcast_to(np.asarray(flops, dtype=np.float64), (n,))
        io = np.broadcast_to(np.asarray(iops, dtype=np.float64), (n,))
        me = np.broadcast_to(np.asarray(mem, dtype=np.float64), (n,))
        dt = self.cost.compute_time_array(flops=fl, iops=io, mem=me)
        return ComputeCharge(n, self.cost, dt, fl, io, me)

    def charge_planned_compute(self, charge: ComputeCharge) -> None:
        """Apply a :class:`ComputeCharge` planned against this machine."""
        if charge.n_procs != self.n_procs or charge.cost is not self.cost:
            raise ValueError(
                f"compute charge planned for {charge.n_procs} processors / "
                f"{charge.cost.name!r}, machine has {self.n_procs} / "
                f"{self.cost.name!r}"
            )
        c = self.counters
        c.clock += charge.dt
        c.flops += charge.flops
        c.iops += charge.iops
        c.mem_ops += charge.mem

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

        One-shot form of :meth:`plan_exchange` + :meth:`charge_exchange`;
        callers that charge the same traffic repeatedly keep the plan.
        """
        self.charge_exchange(
            self.plan_exchange(src=src, dst=dst, nbytes=nbytes), planned=False
        )

    def plan_exchange(
        self,
        *,
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        nbytes: np.ndarray | Sequence[int],
    ) -> ExchangeCharge:
        """Validate and cost an exchange phase without charging it.

        Does all the O(messages) work of :meth:`exchange` -- the shape,
        range and size checks, the zero-byte filter, the self-copy /
        cross-processor split, hop counts, message times and the
        per-processor fold in pair order -- and returns the result as a
        frozen :class:`ExchangeCharge`.  No counter moves.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if not (src.shape == dst.shape == nbytes.shape):
            raise ValueError("src, dst, and nbytes must have matching shapes")
        n = self.n_procs
        if src.size:
            if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
                bad = src if src.min() < 0 or src.max() >= n else dst
                bad = bad[(bad < 0) | (bad >= n)][0]
                raise ValueError(f"processor id {int(bad)} out of range [0, {n})")
            if nbytes.min() < 0:
                raise ValueError(f"negative message size {int(nbytes.min())}")
            live = nbytes != 0
            if not live.all():
                src, dst, nbytes = src[live], dst[live], nbytes[live]

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
        return ExchangeCharge(
            n_procs=n,
            topology=self.topology,
            cost=self.cost,
            src=src,
            dst=dst,
            nbytes=nbytes,
            n_messages=int(xsrc.size),
            n_bytes=int(xbytes.sum()),
            clock_add=clock_add,
            mem_add=mem_add,
            messages_sent=msg_sent,
            bytes_sent=bytes_sent,
            messages_received=msg_recv,
            bytes_received=bytes_recv,
            msg_time=send_time + recv_time,
        )

    def charge_exchange(self, charge: ExchangeCharge, *, planned: bool = True) -> None:
        """Apply an :class:`ExchangeCharge` planned against this machine.

        The single choke point every exchange is charged through -- one
        shot, charge-tape replay or schedule-held plan -- and therefore
        where the ``machine.exchange`` obs span opens and the one
        method to observe for traffic (the charge holds its ``src`` /
        ``dst`` / ``nbytes``).  ``planned`` only labels the span:
        ``False`` for a one-shot :meth:`exchange`.
        A charge with no traffic left after the zero-byte filter touches
        nothing.
        """
        if (
            charge.n_procs != self.n_procs
            or charge.topology is not self.topology
            or charge.cost is not self.cost
        ):
            raise ValueError(
                f"exchange charge planned for {charge.n_procs} processors on "
                f"{type(charge.topology).__name__} / {charge.cost.name!r} does "
                f"not belong to this machine ({self.n_procs} on "
                f"{type(self.topology).__name__} / {self.cost.name!r})"
            )
        if not charge.src.size:
            return
        with self.obs.span(
            "machine.exchange",
            n_messages=charge.n_messages,
            nbytes=charge.n_bytes,
            planned=planned,
        ):
            c = self.counters
            c.clock += charge.clock_add
            c.mem_ops += charge.mem_add
            c.messages_sent += charge.messages_sent
            c.bytes_sent += charge.bytes_sent
            c.messages_received += charge.messages_received
            c.bytes_received += charge.bytes_received
            c.clock += charge.msg_time

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
        if self.faults is not None:
            self.faults.on_phase(self, name, "enter")
        try:
            yield
        finally:
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
