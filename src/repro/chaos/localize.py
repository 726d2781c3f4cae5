"""PARTI *localize*: the primitive at the heart of every inspector.

Given, per processor, the list of global indices its loop iterations will
reference, ``localize``

1. translates every reference through the translation table,
2. separates on-processor from off-processor references,
3. deduplicates the off-processor ones and assigns each unique element a
   ghost-buffer slot ("information that associates off-processor data
   copies with on-processor buffer locations", Section 1),
4. rewrites each reference list into *localized* indices -- offsets into
   the concatenation ``[local segment | ghost buffer]`` -- so the executor
   is pure local indexing, and
5. emits the group's layout, its :class:`~repro.chaos.schedule.SlotState`
   (each slot's key, owner and owner-local offset), and reads the
   :class:`~repro.chaos.schedule.CommSchedule` that fetches the ghost
   elements off it.

Reference lists travel in **flat form** (:class:`FlatRefs`): CSR bounds
over one stream, materialised or gathered through the inspector's
indirection arrays.  A coalesced pattern group is one *stacked* stream:
its members' lists back to back, each in the same per-processor order
under the one ``bounds``; plain per-processor lists (accepted as
*input*, flattened once at entry) are the one-member case.  The result
is flat only: :class:`LocalizeResult` stores ``(values, bounds)``
pairs; ``values[bounds[p]:bounds[p + 1]]`` is one processor's part of a
one-member result.

**Strips.**  Steps 1-4 and the slot state of step 5 are one body run
per *strip* -- a run of whole processors (``repro.chaos.strips``) -- on
the strip pool.  For its processors a strip reads its block of every
member straight from the stream, translates it, counts what the
translation table charges (:meth:`~repro.chaos.ttable.Translator.strip_counts`),
masks the off-processor references, deduplicates them with one keyed
sort, assigns ghost slots, writes its part of the localized references
and translates its unique ghosts into their owners and offsets.
Deduplication is one direct sort (``repro.chaos.kernels``) over
``processor * stride + global_index`` keys, the same sorted-unique
contract as ``np.unique(..., return_inverse=True)``; ascending keys give
the sorted-global ghost slot order per processor, like PARTI's hashed
order.  Keys are requester-major and strips hold disjoint runs of
processors, so the strips' uniques and their translations concatenate
in processor order into exactly what one pass over the whole stream
gives.  Localizing a gathered stream, nothing stream-sized exists but
the localized references themselves.

After the strips, serially, come the schedule, read off the slot state
by :meth:`~repro.chaos.schedule.SlotState.schedule` (one stable radix
sort on the pair id groups the slots requester-major, owner-minor,
keys ascending), and every charge (the table's, then localize's own,
in one fixed order).  An out-of-range reference is refused with the
``IndexError`` of the first bad value in stream order, and a malformed
stream with ``ValueError``, before anything is charged.

The cost charged mirrors what PARTI's hashed implementation did per
reference: a hash probe per reference, an insert per unique off-processor
element, schedule assembly per unique element, and a request exchange
telling each owner which of its elements to send.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.chaos import strips
from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.flatrefs import FlatRefs
from repro.chaos.kernels import sorted_unique_inverse
from repro.chaos.schedule import CommSchedule, SlotState
from repro.chaos.transcache import ChargeLog, TranslationCache, _freeze
from repro.chaos.ttable import Translator
from repro.machine.machine import Machine

__all__ = ["FlatRefs", "LocalizeResult", "localize"]


@dataclass(eq=False)
class LocalizeResult:
    """Everything an executor needs for one access pattern, in flat form.

    Attributes
    ----------
    local_sizes:
        Per processor, the local segment size of the inspected
        distribution (the local/ghost boundary).
    schedule:
        The communication schedule that fills the ghost buffers.
    refs_flat / ref_bounds:
        Per processor (CSR), the reference list rewritten to localized
        indices: values ``< local_size`` index the local segment, values
        ``>= local_size`` index ghost slot ``value - local_size``.  A
        stacked input comes back stacked: every member's list, back to
        back, under the one ``ref_bounds``.
    slots:
        The ghost layout the schedule is read off: per global slot id
        (processor ``p``'s ghost slot ``s`` is ``slots.slot_bounds[p] +
        s``) the ghost's global index, owner and owner-local offset.  A
        fresh result's slots are each processor's unique off-processor
        global indices, ascending, with no holes.
    derived:
        Host-derived holders hanging off this product, keyed by the
        caller.  Results served from one
        :class:`~repro.chaos.transcache.TranslationCache` entry share
        the entry's dict (see that module's "Derived holders"); an
        uncached result owns a fresh one.
    charges:
        The cold run's charge tape when this result is (or was served
        from) a translation-cache entry, else ``None``.
    """

    local_sizes: list[int]
    schedule: CommSchedule
    refs_flat: np.ndarray
    ref_bounds: np.ndarray
    slots: SlotState
    derived: dict = field(default_factory=dict)
    charges: ChargeLog | None = None


def localize(
    machine: Machine,
    ttable: Translator,
    ref_lists,
    cache: TranslationCache | None = None,
    cache_key: "tuple[tuple, tuple] | None" = None,
) -> LocalizeResult:
    """Run the localize primitive for one access pattern.

    Parameters
    ----------
    machine:
        The simulated machine to charge.
    ttable:
        Translation table of the *data* array's distribution.
    ref_lists:
        The global indices each processor's iterations dereference
        (repeats allowed and common): a :class:`FlatRefs` (malformed
        ones are refused with ``ValueError`` before any charge), a
        per-processor list of arrays, or a zero-argument callable
        producing either -- the callable form lets a cache hit skip
        building the reference stream altogether.
    cache / cache_key:
        Optional persistent :class:`TranslationCache` plus the caller's
        ``(slot, version)`` key for this pattern (built from
        ``repro.core.cachekey`` tokens).  On a hit the saved result
        itself is returned (its schedule, frozen arrays and ``derived``
        shared by every product built from it) and the cold run's
        recorded charges are replayed -- simulated numbers are
        bit-identical either way.
    """
    n = machine.n_procs
    obs = machine.obs
    caching = cache is not None and cache_key is not None
    if caching:
        entry = cache.get(*cache_key)
        if entry is not None:
            obs.counter("localize.cache_hits")
            with obs.span("localize.replay"):
                entry.charges.replay(machine)
                return entry
        obs.counter("localize.cache_misses")
    if callable(ref_lists):
        ref_lists = ref_lists()
    refs = FlatRefs.from_lists(ref_lists)
    refs.check()  # before anything is charged
    if refs.n_procs != n:
        raise ValueError(f"expected {n} reference lists, got {refs.n_procs}")
    dist = ttable.dist
    local_sizes = dist.local_sizes()
    bounds = refs.bounds
    localized = np.empty(refs.members * int(bounds[-1]), dtype=np.int64)
    cuts = strips.strip_cuts(bounds, strips.STRIP_ITERS)
    parts: list = [None] * (len(cuts) - 1)
    out_of_range: list[tuple[int, int, IndexError]] = []

    def run_strip(k: int) -> None:
        t0 = time.perf_counter_ns()
        try:
            parts[k] = _localize_strip(
                ttable, refs, cuts[k], cuts[k + 1], local_sizes, localized
            )
        except _OutOfRange as exc:
            out_of_range.append((exc.member, k, exc.error))
        finally:
            if obs.enabled:
                b0, b1 = bounds[cuts[k]], bounds[cuts[k + 1]]
                obs.record(
                    "localize.strip",
                    t0,
                    time.perf_counter_ns() - t0,
                    parent=strips_span.id,
                    first_proc=cuts[k],
                    n_procs=cuts[k + 1] - cuts[k],
                    n_refs=refs.members * int(b1 - b0),
                )

    with obs.span(
        "localize.strips", n_refs=localized.size, n_strips=len(cuts) - 1
    ) as strips_span:
        strips.run_strips(run_strip, len(cuts) - 1)
    if out_of_range:
        # the first bad value in stream order: lowest member, then strip
        raise min(out_of_range, key=lambda e: e[:2])[2]
    counts, n_off, ghost_counts, keys, owners, lidx = (
        np.concatenate(field) for field in zip(*parts)
    )
    del parts
    slot_bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ghost_counts, out=slot_bounds[1:])
    slots = SlotState(slot_bounds, keys, owners, lidx)
    with obs.span("localize.schedule.build", n_slots=keys.size) as span:
        schedule = slots.schedule(machine, dist.signature(), np.arange(keys.size))
        span.set(n_pairs=int(schedule._pair_q.size))
    pair_q, pair_p, pair_len = schedule._pair_q, schedule._pair_p, schedule._pair_len

    # a recording sink forwards every charge unchanged, so a cold fill
    # charges exactly what an uncached run would
    sink = ChargeLog(machine) if caching else machine
    ttable.charge_counts(sink, counts)
    # inspector integer work per processor: one hash probe per
    # reference, an insert per unique ghost, schedule build + buffer
    # assignment, and a localized-index rewrite probe per off-proc ref
    ghost_f = ghost_counts.astype(np.float64)
    sink.charge_compute_all(
        iops=(
            DEFAULT_COSTS.hash_lookup * (refs.members * refs.sizes()).astype(np.float64)
            + DEFAULT_COSTS.hash_insert * ghost_f
            + DEFAULT_COSTS.schedule_build * ghost_f
            + DEFAULT_COSTS.buffer_assign * ghost_f
            + DEFAULT_COSTS.hash_lookup * n_off.astype(np.float64)
        ),
    )
    # request exchange: each requester tells each owner which local
    # elements to send (index lists on the wire); owners then record
    # their send lists.  Pairs are requester-major / owner-minor
    # ascending -- the same order the dense-matrix nonzero scan produced.
    cross = pair_p != pair_q
    sink.exchange(
        src=pair_p[cross],
        dst=pair_q[cross],
        nbytes=pair_len[cross] * DEFAULT_COSTS.index_bytes,
    )
    owner_record = np.bincount(
        pair_q, weights=pair_len.astype(np.float64), minlength=n
    )
    sink.charge_compute_all(iops=DEFAULT_COSTS.schedule_build * owner_record)
    sink.barrier()

    result = LocalizeResult(
        local_sizes=[int(s) for s in local_sizes],
        schedule=schedule,
        refs_flat=localized,
        ref_bounds=bounds,
        slots=slots,
    )
    if caching:
        # the slot holds the result itself: its arrays frozen, the cold
        # run's tape attached
        for arr in (localized, bounds, slot_bounds, keys, owners, lidx):
            _freeze(arr)
        result.charges = sink
        cache.put(cache_key[0], cache_key[1], result)
    return result


class _OutOfRange(Exception):
    """A strip's first out-of-range reference: the stacked member it is
    in and the translation's ``IndexError``."""

    def __init__(self, member: int, error: IndexError):
        super().__init__(member, error)
        self.member = member
        self.error = error


def _localize_strip(ttable, refs, p0, p1, local_sizes, localized):
    """Localize processors ``p0 .. p1 - 1`` of ``refs``: writes their
    localized references into ``localized`` and returns their share of
    the merged fields -- table counts, off-processor reference counts,
    ghost counts, and the slot state: unique ghosts, their owners and
    owner-local offsets, all in processor order.  Charges nothing."""
    dist = ttable.dist
    stride = max(dist.size, 1)  # keys cannot collide: every global < size
    b0, b1 = int(refs.bounds[p0]), int(refs.bounds[p1])
    sizes = np.diff(refs.bounds[p0 : p1 + 1])
    procs = np.arange(p0, p1, dtype=np.int64)
    pid = np.repeat(procs, sizes)
    # every member's references of the strip, one row each
    vals = refs.block(b0, b1)
    try:
        owners, lidx = dist.translate(vals)
    except IndexError as exc:
        # the first bad value in row order is in the lowest bad member
        bad = ((vals < 0) | (vals >= dist.size)).any(axis=1)
        raise _OutOfRange(int(np.argmax(bad)), exc) from None
    # the off-processor references: positions into the block, requester
    # ids broadcast over its rows
    off = np.flatnonzero(owners != pid)
    del owners
    off_pid = pid[off % max(pid.size, 1)]
    n_off = np.bincount(off_pid - p0, minlength=p1 - p0)
    # dedup: ascending keys are requester-major, sorted-global within
    keys = off_pid * stride + vals.reshape(-1)[off]
    uniq_keys, inverse = sorted_unique_inverse(keys)
    ghost_bounds = np.searchsorted(uniq_keys, np.append(procs, p1) * stride)
    ghost_counts = np.diff(ghost_bounds)
    upid = np.repeat(procs, ghost_counts)
    ugidx = uniq_keys - upid * stride
    slots = np.arange(uniq_keys.size, dtype=np.int64) - ghost_bounds[upid - p0]
    # local offsets stay; off-processor references become local_size +
    # ghost slot (``lidx`` is the translation's fresh array)
    local = lidx.reshape(-1)
    local[off] = (local_sizes[upid] + slots)[inverse]
    localized.reshape(refs.members, -1)[:, b0:b1] = local.reshape(vals.shape)
    del lidx, local  # freed before the table's counts allocate their key
    counts = ttable.strip_counts(vals, pid, p0, sizes)
    return (counts, n_off, ghost_counts, ugidx, *dist.translate(ugidx))
