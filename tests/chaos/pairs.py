"""Per-pair test vocabulary for the flat-only ``CommSchedule``.

Tests describe a schedule the way the paper does -- one send list and
one recv-slot list per ``(owner, requester)`` pair -- and keep the naive
per-pair loop over those dicts as the reference the flat apply path is
checked against.  ``schedule_from_pairs`` is the one place that flattens
such dicts into a schedule (through
``schedule_oracle.schedule_from_flat``: a slot's elements name one send
offset); the naive references are
fed from the test's own dicts, never from a runtime view.  ``segment``
reads one processor's part of a flat ``(values, bounds)`` result back.
"""

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from tests.chaos.schedule_oracle import schedule_from_flat


def segment(values, bounds, p):
    """Processor ``p``'s slice of a one-member flat stream."""
    return values[bounds[p] : bounds[p + 1]]


def flatten_pairs(send, recv):
    """``(pair_q, pair_p, pair_len, flat_send, flat_recv)`` of two pair
    dicts, pairs in ``send``'s insertion order."""
    assert set(send) == set(recv), "send and recv must cover the same pairs"
    keys = list(send)
    sends = [np.asarray(send[k], dtype=np.int64) for k in keys]
    recvs = [np.asarray(recv[k], dtype=np.int64) for k in keys]
    empty = np.empty(0, dtype=np.int64)
    return (
        np.array([q for q, _ in keys], dtype=np.int64),
        np.array([p for _, p in keys], dtype=np.int64),
        np.array([len(s) for s in sends], dtype=np.int64),
        np.concatenate(sends) if sends else empty,
        np.concatenate(recvs) if recvs else empty,
    )


def schedule_from_pairs(machine, sig, send, recv, ghost_sizes):
    """A ``CommSchedule`` from ``(owner, requester) -> array`` dicts."""
    return schedule_from_flat(machine, sig, *flatten_pairs(send, recv), ghost_sizes)


def ghost_regions(sched, flat):
    """Per-processor views of a flat ghost array in ``sched``'s layout:
    processor ``p``'s buffer is ``flat[ghost_offset[p]:ghost_offset[p+1]]``."""
    return np.split(flat, np.cumsum(sched.ghost_sizes)[:-1])


def exchange_pairs(machine, wires):
    """``machine.exchange`` of a ``(src, dst) -> nbytes`` dict, in dict order."""
    machine.exchange(
        src=[s for s, _ in wires],
        dst=[d for _, d in wires],
        nbytes=list(wires.values()),
    )


# ----------------------------------------------------------------------
# naive reference: the per-(sender, receiver)-pair loop over per-processor
# ghost buffer lists
# ----------------------------------------------------------------------
def naive_gather(machine, send_lists, recv_slots, arr, ghosts, costs=DEFAULT_COSTS):
    n = machine.n_procs
    pack = np.zeros(n)
    unpack = np.zeros(n)
    wires = {}
    for (q, p), sl in send_lists.items():
        if not len(sl):
            continue
        ghosts[p][recv_slots[(q, p)]] = arr.local(q)[sl]
        pack[q] += costs.pack_unpack_mem * len(sl)
        unpack[p] += costs.pack_unpack_mem * len(sl)
        wires[(q, p)] = len(sl) * arr.itemsize
    machine.charge_compute_all(mem=list(pack))
    exchange_pairs(machine, wires)
    machine.charge_compute_all(mem=list(unpack))


def naive_reverse(
    machine, send_lists, recv_slots, ghosts, arr, op, costs=DEFAULT_COSTS
):
    n = machine.n_procs
    pack = np.zeros(n)
    unpack = np.zeros(n)
    combine = np.zeros(n)
    wires = {}
    for (q, p), sl in send_lists.items():
        if not len(sl):
            continue
        data = ghosts[p][recv_slots[(q, p)]]
        if op is None:
            arr.local(q)[sl] = data
        else:
            op.at(arr.local(q), sl, data)
            combine[q] += 1.0 * len(sl)
        pack[p] += costs.pack_unpack_mem * len(sl)
        unpack[q] += costs.pack_unpack_mem * len(sl)
        wires[(p, q)] = len(sl) * arr.itemsize
    machine.charge_compute_all(mem=list(pack))
    exchange_pairs(machine, wires)
    machine.charge_compute_all(mem=list(unpack), flops=list(combine))
