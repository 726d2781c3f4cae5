"""The per-processor dereference, kept as the reference the batched
charging hooks are diffed against.

The runtime dereferences through a translation table loosely
synchronously: every processor's references are translated in one phase
(in processor strips inside ``localize``, or in one pass by
``Translator.dereference_flat``) and each table kind charges the whole
phase once, from the strips' counts (``strip_counts`` /
``charge_counts``).  Before that the tables also had a per-processor
form -- ``Translator.dereference(p, refs)``, ``dereference_all`` over a
list of lists and a ``_charge_one`` hook per kind -- that charged one
requesting processor at a time.  It
lives on here as free functions, so ``tests/chaos/test_ttable.py`` can
hold every processor's ``iops``, message and byte counters of the
batched phase against the sum of the per-processor charges.

One rule differs from the removed code: a distributed table's
reference to a page its own requester holds was charged there as a
local lookup (``translate_replicated``); the batched hook charges it as
the page probe every other reference costs at its page owner
(``translate_remote``), and the goldens pin that, so the reference
charges it the same way.
"""

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.ttable import (
    DistributedTranslationTable,
    RegularTranslationTable,
    ReplicatedTranslationTable,
)


def charge_regular(table, sink, p, g):
    """Closed-form translation: a fixed count per reference, local to ``p``."""
    sink.charge_compute(p, iops=DEFAULT_COSTS.translate_regular * g.size)


def charge_replicated(table, sink, p, g):
    """Replicated-table lookup: a fixed count per reference, local to ``p``."""
    sink.charge_compute(p, iops=DEFAULT_COSTS.translate_replicated * g.size)


def charge_distributed(table, sink, p, g):
    """Paged table: per page owner a request (indices), a probe at the
    owner and a reply (pairs); a page ``p`` holds itself costs only the
    probe, and no message."""
    n = table.machine.n_procs
    counts = np.bincount(table.pages.owner(g), minlength=n)
    probe = DEFAULT_COSTS.translate_remote * counts.astype(np.float64)
    counts[p] = 0
    remote = np.flatnonzero(counts)
    cnt = counts[remote]
    req_p = np.full(remote.size, p, dtype=np.int64)
    sink.exchange(src=req_p, dst=remote, nbytes=cnt * DEFAULT_COSTS.index_bytes)
    sink.charge_compute_all(iops=probe)
    sink.exchange(src=remote, dst=req_p, nbytes=cnt * 2 * DEFAULT_COSTS.index_bytes)


#: table kind -> its per-processor charger (exact type: the replicated
#: table subclasses the regular one)
CHARGERS = {
    RegularTranslationTable: charge_regular,
    ReplicatedTranslationTable: charge_replicated,
    DistributedTranslationTable: charge_distributed,
}


def dereference(table, p, gidx):
    """Translate processor ``p``'s reference list and charge ``p`` (and,
    for the distributed table, the page owners) to the table's machine."""
    g = np.asarray(gidx, dtype=np.int64)
    owners, lidx = table.dist.translate(g)
    CHARGERS[type(table)](table, table.machine, p, g)
    return np.asarray(owners, dtype=np.int64), np.asarray(lidx, dtype=np.int64)


def dereference_all(table, ref_lists):
    """Every processor's list, one requesting processor at a time."""
    return [dereference(table, p, refs) for p, refs in enumerate(ref_lists)]
