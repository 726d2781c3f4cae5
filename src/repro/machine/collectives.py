"""The modeled all-gather, the one collective the runtime charges.

CHAOS gathers every processor's fragment of a replicated translation
table (and of a map array being distributed) to all processors.
:func:`allgather_cost` charges that recursive-doubling all-gather to
every processor's clock and synchronizes, so the collective is a phase
of its own.  It both *charges* the machine and *returns* the modeled
wall time, which makes it easy to unit-test.
"""

from __future__ import annotations

from repro.machine.machine import Machine


def allgather_cost(machine: Machine, nbytes_per_proc: int) -> float:
    """All-gather where each processor contributes ``nbytes_per_proc``.

    Recursive-doubling model: ceil(log2 P) rounds, doubling payload each
    round.
    """
    if nbytes_per_proc < 0:
        raise ValueError(f"negative allgather size {nbytes_per_proc}")
    n = machine.n_procs
    if n == 1:
        return 0.0
    dt = 0.0
    chunk = nbytes_per_proc
    rounds = (n - 1).bit_length()
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
