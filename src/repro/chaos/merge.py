"""Schedule merging: one message per processor pair per phase.

PARTI/CHAOS could merge the communication of several schedules into a
single exchange so that a loop reading k patterns pays one message
startup per neighbour instead of k.  With iPSC/860-class latencies
(~100 us) this visibly reduces executor time for multi-pattern loops --
the paper's loop L2 gathers two patterns, the MD loop eight.

``gather_merged`` performs the data movement of every (schedule, array,
flat ghost array) item but charges the machine a single combined
exchange; ``scatter_op_merged`` is its reverse, every item's reduction
folded back to the owners in one exchange.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.schedule import CommSchedule
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine


def _validate(items) -> Machine:
    if not items:
        raise ValueError("nothing to gather")
    machine = items[0][0].machine
    for sched, arr, ghosts in items:
        if sched.machine is not machine:
            raise ValueError("schedules live on different machines")
        sched._check_array(arr)
        sched._resolve_ghosts(ghosts)
    return machine


def _merged_exchange(
    machine: Machine,
    srcs: list[np.ndarray],
    dsts: list[np.ndarray],
    nbytes: list[np.ndarray],
) -> None:
    """One exchange with all schedules' wire payloads merged per pair.

    Payloads for one (src, dst) pair sum into a single message; pairs
    keep first-appearance order across the concatenated per-schedule
    lists, which is the accumulation order the per-schedule dict fold
    used (so merged clocks are unchanged)."""
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    nb = np.concatenate(nbytes) if nbytes else np.empty(0, dtype=np.int64)
    key = src * machine.n_procs + dst
    uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
    total = np.bincount(inv, weights=nb).astype(np.int64)
    order = np.argsort(first, kind="stable")
    pair = uniq[order]
    machine.exchange(
        src=pair // machine.n_procs, dst=pair % machine.n_procs, nbytes=total[order]
    )


def gather_merged(
    items: list[tuple[CommSchedule, DistArray, np.ndarray]],
) -> None:
    """Gather several access patterns in one communication phase.

    ``items`` pairs each schedule with the array it reads and the flat
    ghost array (the schedule's layout) it fills.  Data movement is identical to calling
    ``sched.gather`` per item; the charge differs: all wire payloads for
    one (owner, requester) pair travel in a single message.
    """
    machine = _validate(items)
    n = machine.n_procs
    pack = np.zeros(n)
    unpack = np.zeros(n)
    srcs, dsts, nbytes = [], [], []
    for sched, arr, ghosts in items:
        sched._move_gather(arr, ghosts)
        pack += sched._pack_mem
        unpack += sched._unpack_mem
        srcs.append(sched._pair_q)
        dsts.append(sched._pair_p)
        nbytes.append(sched._wire_bytes(arr.itemsize))
    machine.charge_compute_all(mem=pack)
    _merged_exchange(machine, srcs, dsts, nbytes)
    machine.charge_compute_all(mem=unpack)


def scatter_op_merged(
    items: list[tuple[CommSchedule, np.ndarray, DistArray, np.ufunc]],
) -> None:
    """Scatter-combine several write patterns in one communication phase.

    ``items`` holds (schedule, flat ghost contributions, target array,
    combining ufunc) tuples; wire payloads per (requester, owner) pair
    are merged exactly like :func:`gather_merged`.
    """
    if not items:
        raise ValueError("nothing to scatter")
    machine = items[0][0].machine
    n = machine.n_procs
    pack = np.zeros(n)
    unpack = np.zeros(n)
    combine = np.zeros(n)
    srcs, dsts, nbytes = [], [], []
    for sched, bufs, arr, op in items:
        if sched.machine is not machine:
            raise ValueError("schedules live on different machines")
        sched._check_array(arr)
        if not hasattr(op, "at"):
            raise TypeError(f"op must be a NumPy ufunc with .at, got {op!r}")
        sched._move_reverse(bufs, arr, op)
        # roles swap relative to gather: requesters pack, owners unpack
        pack += sched._unpack_mem
        unpack += sched._pack_mem
        np.add.at(combine, sched._pair_q, sched._pair_len.astype(float))
        srcs.append(sched._pair_p)
        dsts.append(sched._pair_q)
        nbytes.append(sched._wire_bytes(arr.itemsize))
    machine.charge_compute_all(mem=pack)
    _merged_exchange(machine, srcs, dsts, nbytes)
    machine.charge_compute_all(mem=unpack, flops=combine)
