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
5. builds the :class:`~repro.chaos.schedule.CommSchedule` that fetches
   the ghost elements.

Reference lists travel in **flat form**: one concatenated value array
plus CSR bounds (:class:`FlatRefs`), so the whole localize pass — one
``dereference_flat`` translation included — runs on single arrays with
no per-processor concatenation or Python loop.  A coalesced pattern
group is one *stacked* stream: its members' lists back to back, each in
the same per-processor order under the one ``bounds``, so the requester
of a position is a row-wise broadcast and a member of the result is a
slice; plain per-processor lists (accepted as *input*, flattened once at
entry) are the one-member case of the same body.  Only the
off-processor references, one index list into the stream, are touched
after the translation.  The result is flat only: :class:`LocalizeResult`
stores ``(values, bounds)`` pairs; ``values[bounds[p]:bounds[p + 1]]`` is
one processor's part of a one-member result.

Deduplication is one direct sort (``repro.chaos.kernels``) over combined
``processor * stride + global_index`` keys, each packed with its stream
position so the sorted keys, the uniques and the inverse mapping all
fall out of that sort — the same sorted-unique contract as
``np.unique(..., return_inverse=True)`` without its indirect argsort;
per-processor group bounds are ``n + 1`` binary searches on the uniques.
The unique ghosts are then grouped into (requester, owner) pairs by a
radix sort on the pair id, linear for any processor count.

The cost charged mirrors what PARTI's hashed implementation did per
reference: a hash probe per reference, an insert per unique off-processor
element, schedule assembly per unique element, and a request exchange
telling each owner which of its elements to send.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.flatrefs import FlatRefs
from repro.chaos.kernels import sorted_unique_inverse, stable_order
from repro.chaos.schedule import CommSchedule
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
    ghost_flat / ghost_bounds:
        Per processor (CSR), the unique off-processor global indices in
        ghost slot order.
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
    ghost_flat: np.ndarray
    ghost_bounds: np.ndarray
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
        ``repro.core.cachekey`` tokens).  On a hit the saved result is
        returned with its own ``schedule.twin()`` (frozen arrays and
        ``derived`` shared) and the cold run's recorded charges are
        replayed -- simulated numbers are bit-identical either way.
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
                return replace(entry, schedule=entry.schedule.twin())
        obs.counter("localize.cache_misses")
    if callable(ref_lists):
        ref_lists = ref_lists()
    refs = FlatRefs.from_lists(ref_lists)
    refs.check()  # before anything is charged
    if refs.n_procs != n:
        raise ValueError(f"expected {n} reference lists, got {refs.n_procs}")
    # a recording sink forwards every charge unchanged, so a cold fill
    # charges exactly what an uncached run would
    sink = ChargeLog(machine) if caching else machine
    dist = ttable.dist
    flat_refs = refs.values
    seg_sizes = refs.sizes()
    sizes = refs.members * seg_sizes
    pid = refs.requesters
    if pid is None:
        pid = np.repeat(np.arange(n, dtype=np.int64), seg_sizes)
    with obs.span("localize.dereference", n_refs=int(flat_refs.size)):
        # ``localized_flat`` starts as the local offsets (a fresh array)
        flat_owner, localized_flat = ttable.dereference_flat(
            flat_refs, refs.bounds, sink=sink, requesters=pid
        )

    local_sizes_arr = dist.local_sizes()
    # stream positions of the off-processor references: the requester
    # ids broadcast over the members' rows, and everything below is
    # sized by this one index list, not by the stream
    off = np.flatnonzero(flat_owner.reshape(refs.members, -1) != pid)
    off_pid = pid[off % max(pid.size, 1)]
    off_refs = flat_refs[off]
    n_off = np.bincount(off_pid, minlength=n)
    # dedup off-processor references per processor with one keyed sorted
    # unique; ascending keys give deterministic (sorted-global) ghost
    # slot order per processor, like PARTI's hashed order.  Keys cannot
    # collide across processors because every global index is < dist.size.
    stride = max(dist.size, 1)
    keys = off_pid * stride + off_refs
    with obs.span("localize.dedup", n_off=int(keys.size)):
        uniq_keys, inverse = sorted_unique_inverse(keys)
    # per-processor group bounds on the sorted uniques: n+1 binary
    # searches instead of a bincount over a division-derived pid array
    ghost_bounds = np.searchsorted(
        uniq_keys, np.arange(n + 1, dtype=np.int64) * stride
    )
    ghost_counts = np.diff(ghost_bounds)
    upid = np.repeat(np.arange(n, dtype=np.int64), ghost_counts)
    ugidx = uniq_keys - upid * stride
    slots = np.arange(uniq_keys.size, dtype=np.int64) - ghost_bounds[upid]
    ghost_sizes = [int(c) for c in ghost_counts]

    # rewrite every reference to a localized index: local offsets stay,
    # off-processor references become local_size + ghost slot
    localized_flat[off] = (local_sizes_arr[upid] + slots)[inverse]
    ref_bounds = refs.bounds

    # build schedule entries for each (owner q, requester p) pair: one
    # stable radix sort groups the unique ghosts requester-major,
    # owner-minor, ghost slots ascending within each owner (as per-owner
    # masking did)
    uowners = np.asarray(dist.owner(ugidx), dtype=np.int64) if ugidx.size else ugidx
    ulidx = (
        np.asarray(dist.local_index(ugidx), dtype=np.int64) if ugidx.size else ugidx
    )
    pair_keys = upid * n + uowners
    order = stable_order(pair_keys, n * n)
    pair_keys = pair_keys[order]
    # pair boundaries on the already-sorted keys (no second sort)
    if pair_keys.size:
        seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(pair_keys)) + 1)
        )
    else:
        seg_starts = np.empty(0, dtype=np.int64)
    seg_keys = pair_keys[seg_starts] if pair_keys.size else pair_keys
    seg_bounds = np.append(seg_starts, order.size)
    pair_counts = np.diff(seg_bounds)
    pair_p = seg_keys // n
    pair_q = seg_keys % n
    sorted_lidx = ulidx[order]
    sorted_slots = slots[order]

    # charge inspector integer work per processor: one hash probe per
    # reference, an insert per unique ghost, schedule build + buffer
    # assignment, and a localized-index rewrite probe per off-proc ref
    ghost_f = ghost_counts.astype(np.float64)
    sink.charge_compute_all(
        iops=(
            DEFAULT_COSTS.hash_lookup * sizes.astype(np.float64)
            + DEFAULT_COSTS.hash_insert * ghost_f
            + DEFAULT_COSTS.schedule_build * ghost_f
            + DEFAULT_COSTS.buffer_assign * ghost_f
            + DEFAULT_COSTS.hash_lookup * n_off.astype(np.float64)
        ),
    )

    # request exchange: each requester tells each owner which local
    # elements to send (index lists on the wire); owners then record
    # their send lists.  Pairs are already requester-major / owner-minor
    # ascending — the same order the dense-matrix nonzero scan produced.
    cross = pair_p != pair_q
    sink.exchange(
        src=pair_p[cross],
        dst=pair_q[cross],
        nbytes=pair_counts[cross] * DEFAULT_COSTS.index_bytes,
    )
    owner_record = np.bincount(
        pair_q, weights=pair_counts.astype(np.float64), minlength=n
    )
    sink.charge_compute_all(iops=DEFAULT_COSTS.schedule_build * owner_record)
    sink.barrier()

    with obs.span("localize.schedule.build", n_pairs=int(pair_q.size)):
        schedule = CommSchedule(
            machine,
            dist.signature(),
            pair_q,
            pair_p,
            pair_counts,
            sorted_lidx,
            sorted_slots,
            ghost_sizes,
        )
    result = LocalizeResult(
        local_sizes=[int(s) for s in local_sizes_arr],
        schedule=schedule,
        refs_flat=localized_flat,
        ref_bounds=ref_bounds,
        ghost_flat=ugidx,
        ghost_bounds=ghost_bounds,
    )
    if caching:
        # the slot holds the result itself: its arrays frozen, the cold
        # run's tape attached
        for arr in (localized_flat, ref_bounds, ugidx, ghost_bounds):
            _freeze(arr)
        result.charges = sink
        cache.put(cache_key[0], cache_key[1], result)
    return result
