"""Modeled collective operations.

CHAOS uses collectives in a few places: broadcasting partitioning results,
gathering GeoCoL fragments, all-to-all exchanges when building translation
tables and remapping arrays.  These helpers charge the standard
tree/log-P cost models to every processor's clock and synchronize, so a
collective is a phase of its own.

Each function both *charges* the machine and *returns* the modeled wall
time of the collective, which makes them easy to unit-test.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.machine.machine import Machine


def _tree_depth(n: int) -> int:
    """Depth of a binomial tree over n processors."""
    return max(1, (n - 1).bit_length()) if n > 1 else 0


def broadcast_cost(machine: Machine, nbytes: int, root: int = 0) -> float:
    """One-to-all broadcast of ``nbytes`` via a binomial tree."""
    machine._check_rank(root)
    if nbytes < 0:
        raise ValueError(f"negative broadcast size {nbytes}")
    n = machine.n_procs
    if n == 1:
        return 0.0
    dt = _tree_depth(n) * machine.cost.message_time(nbytes)
    c = machine.counters
    c.clock += dt
    # message counters: every non-root receives once; internal nodes send
    recv = np.ones(n, dtype=np.int64)
    recv[root] = 0
    c.messages_received += recv
    c.bytes_received += recv * nbytes
    c.messages_sent[root] += n - 1
    c.bytes_sent[root] += (n - 1) * nbytes
    machine.barrier()
    return dt


def reduce_cost(machine: Machine, nbytes: int, root: int = 0) -> float:
    """All-to-one reduction of ``nbytes`` payloads (tree, with combine flops)."""
    machine._check_rank(root)
    if nbytes < 0:
        raise ValueError(f"negative reduction size {nbytes}")
    n = machine.n_procs
    if n == 1:
        return 0.0
    words = nbytes / 8.0
    per_level = machine.cost.message_time(nbytes) + machine.cost.compute_time(flops=words)
    dt = _tree_depth(n) * per_level
    machine.counters.clock += dt
    machine.barrier()
    return dt


def allreduce_cost(machine: Machine, nbytes: int) -> float:
    """All-reduce: reduce followed by broadcast (iPSC/860-era style)."""
    t1 = reduce_cost(machine, nbytes)
    t2 = broadcast_cost(machine, nbytes)
    return t1 + t2


def allgather_cost(machine: Machine, nbytes_per_proc: int) -> float:
    """All-gather where each processor contributes ``nbytes_per_proc``.

    Recursive-doubling model: log P rounds, doubling payload each round.
    """
    if nbytes_per_proc < 0:
        raise ValueError(f"negative allgather size {nbytes_per_proc}")
    n = machine.n_procs
    if n == 1:
        return 0.0
    dt = 0.0
    chunk = nbytes_per_proc
    rounds = _tree_depth(n)
    for _ in range(rounds):
        dt += machine.cost.message_time(chunk)
        chunk *= 2
    c = machine.counters
    c.clock += dt
    c.messages_sent += rounds
    c.messages_received += rounds
    c.bytes_sent += (2**rounds - 1) * nbytes_per_proc
    c.bytes_received += (2**rounds - 1) * nbytes_per_proc
    machine.barrier()
    return dt


def alltoallv_cost(machine: Machine, traffic: Sequence[Sequence[int]]) -> float:
    """Irregular all-to-all: ``traffic[src][dst]`` bytes per pair.

    Convenience wrapper over :meth:`Machine.exchange` that also
    synchronizes and returns the phase's wall-time contribution.
    """
    n = machine.n_procs
    if len(traffic) != n or any(len(row) != n for row in traffic):
        raise ValueError(f"traffic matrix must be {n}x{n}")
    start = machine.elapsed()
    matrix = np.asarray(traffic, dtype=np.int64)
    src, dst = np.nonzero(matrix)
    machine.exchange(src=src, dst=dst, nbytes=matrix[src, dst])
    machine.barrier()
    return machine.elapsed() - start


def barrier_cost(machine: Machine) -> float:
    """Explicit barrier; returns the synchronized machine time."""
    return machine.barrier()
