"""Persistent cross-execution translation cache (layout + invalidation contract).

PonnusamySC93's whole premise is that irregular patterns *repeat*: the
paper's runtime amortizes inspector cost across time steps by saving
schedules.  This module applies the same idea to the simulator's own
wall clock.  A :class:`TranslationCache` remembers, across executions of
the inspector, the full translation product of every access pattern --
dereferenced owners/offsets, the dedup inverse baked into localized
reference lists, per-processor ghost group bounds, and the communication
schedule -- so re-inspecting an *unchanged* pattern skips
``dereference_flat``, ``sorted_unique_inverse`` and the vote/group
kernels entirely.  The simulated machine still sees every charge: the
cold run compiles its charging sequence into a :class:`ChargeLog` tape
-- each call planned once into the per-processor vectors it adds -- and
a warm hit applies that tape, one counter update per original call, in
the original order (see :class:`ChargeLog` for the contract).  Charges
are pure functions of reference *content*, and equal cache keys
guarantee equal content, so warm numbers are bit-identical to cold ones
-- the ``check_regression.py`` / golden-table contract holds with the
cache on or off.

Layout
------
The cache is a flat dict of **slots**.  A slot names the *structural*
identity of one cached product and holds at most one entry::

    ("localize", loop, (index, ...), ttable kind, P)         -> (version, LocalizeResult)
    ("partition", loop, n, P, method, ((array, index), ...)) -> (version, PartitionEntry)

A localize slot holds the cold run's
:class:`~repro.chaos.localize.LocalizeResult` itself -- its flat arrays
frozen, the run's :class:`ChargeLog` attached as ``charges`` -- and a hit
is that result itself: every product built from one entry holds its one
schedule and arrays.

The **version** is the volatile part of the key, built from the
:mod:`repro.core.cachekey` vocabulary: distribution signatures (remaps
change them -- DAD conditions 1/2) and ``(uid, version)`` content keys
of every indirection array feeding the product (mutations bump them --
DAD condition 3).  Localize slots deliberately exclude the *data* array
identity: ``x(edge(i))`` and ``y(edge(i))`` over identically-distributed
``x``/``y`` produce bit-identical translation products, so they share
one entry (the common case -- one hit per sibling array even within a
single cold inspection).

Invalidation contract
---------------------
A stored entry is served only when the full version key matches; every
mutation path changes some component of it:

* ``set_array_elements`` / any segment-view write bumps the array's
  content version (PR 3 write barriers);
* executor scatters write through the same barriers (data arrays are
  not keyed, so writes to *data* arrays correctly do not invalidate);
* ``redistribute`` rebinds the array's backing (version bump) *and*
  changes the distribution signature;
* incremental patches rewrite indirection values through the tracked
  write paths before patching, so the next full inspection of that
  pattern misses and recomputes.

A content key never comes back once its array is written (versions only
grow), so an entry naming a superseded one is dead.
:meth:`TranslationCache.prune` drops dead entries: ``put`` records each
version's :class:`~repro.core.cachekey.ContentKey` parts once, and
``IrregularProgram.inspect`` prunes against the arrays' current versions
whenever it leaves the reuse-hit path (the hit path pays nothing).
Entries keyed only on distribution signatures stay, since a distribution
can recur.  A miss evicts the slot's entry of another version at once,
before the cold run it triggers allocates the replacement that ``put``
stores, so a slot never holds two products and memory is bounded by the
number of structurally distinct patterns whose inputs are current, not
by program history -- a pattern the patch rung keeps repairing (and so
never re-probes) holds nothing after its first write.  Both paths count
under ``invalidations``, once per entry.
Cached arrays and schedules are immutable and shared by every hit: a
product names its pattern groups by ``(array, indexes)`` key, so the
sibling groups one entry serves stay two groups over one layout.

Derived holders
---------------
Besides the translation product itself, a localize entry carries
``derived``: a dict of **host-derived, never-charged** per-pattern
holders that are pure functions of the entry (and of the partition key
already folded into its version).  The inspector keys it by pattern
index and stores one :class:`~repro.core.inspector.PatternArrays` per
member pattern -- the member's flat slice of a coalesced reference list
plus the executor's combined-space selectors and positions -- so the
address of a holder is ``(localize slot, version, index)``.  Every
``LocalizeResult`` served from the entry (warm hits, and the sibling
``x(edge(i))``/``y(edge(i))`` hit inside one cold inspection) carries
the same dict, so those O(refs) arrays are built once per *entry*, not
once per throw-away product.  The dict lives and dies with its entry: a
new version or a prune drops both, so the executor positions of a
pattern whose indirection was written go with the entry (a product
still holding a holder keeps it alive; the cache no longer does).
Holder arrays are frozen like everything else here; building one must
never charge the machine (no charge is recorded for it, so none could
be replayed).  :meth:`TranslationCache.note_derived` counts holder
hits/builds, reported under ``stats()["by_kind"]["derived"]`` and kept
out of the top-level ``hits``/``misses`` (which count slot probes).

The cache object is bound to one program/machine pair: entries hold the
machine-bound schedule built at cold time, and their charge tapes hold
vectors planned for that machine's processor count, topology and cost
model.  Sharing one cache across machines is a typed failure, not a
silent mischarge: :meth:`ChargeLog.replay` raises ``ValueError`` for any
machine but the one that recorded the tape.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS

__all__ = [
    "ChargeLog",
    "KeyTranslationMemo",
    "PartitionEntry",
    "TranslationCache",
]


def _content_keys(version: tuple) -> tuple:
    """Every :class:`~repro.core.cachekey.ContentKey` nested in ``version``."""
    from repro.core.cachekey import ContentKey  # repro.core imports this module

    return tuple(_walk(version, ContentKey))


def _walk(part, kind):
    """The ``kind`` instances nested in tuple ``part``, depth first.  A
    module-level function: a nested one that recurses into itself is a
    reference cycle, left for the collector on every call."""
    if isinstance(part, kind):
        yield part
    elif isinstance(part, tuple):
        for sub in part:
            yield from _walk(sub, kind)


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only (hits share it; writers must copy)."""
    if arr.flags.writeable and arr.base is None:
        arr.flags.writeable = False
    return arr


class ChargeLog:
    """Recording charge sink: forwards to the machine and compiles the tape.

    Cold cache fills route every simulated charge through one of these
    instead of the machine directly.  The sink *plans* each call against
    its machine (``plan_exchange`` / ``plan_compute_all``: all the
    validation and O(messages) folding the call needs), charges the plan
    at once -- the cold run charges exactly what an uncached run would --
    and appends the plan to ``tape``.

    Replay contract: :meth:`replay` applies the tape entries in recorded
    order, **one counter update per original call**.  Floating-point
    counters (clocks, flops, iops, memory words) are therefore added in
    exactly the association order of the cold run, which is what makes a
    warm hit bit-identical on the simulated side; entries are never
    summed ahead of time (the integer message/byte counters could be
    folded without changing a bit, the float ones could not).  A replay
    does no O(messages) work: an ``exchange`` entry is a frozen
    :class:`~repro.machine.machine.ExchangeCharge`, a
    ``charge_compute_all`` entry a
    :class:`~repro.machine.machine.ComputeCharge`, each a handful of
    length-P adds; ``barrier`` and the scalar ``charge_compute`` replay
    as the calls they were.  The exchange charges keep their traffic
    arrays, so whoever observes ``Machine.charge_exchange`` sees a
    replayed exchange like a fresh one.

    The plans hold vectors sized and costed for one machine, so a tape
    replays only against the machine that recorded it.
    """

    __slots__ = ("machine", "tape")

    def __init__(self, machine):
        self.machine = machine
        #: ``(Machine method name, positional args)`` per recorded call
        self.tape: list[tuple[str, tuple]] = []

    @property
    def n_procs(self) -> int:
        return self.machine.n_procs

    def charge_compute(self, p, flops=0.0, iops=0.0, mem=0.0):
        self.tape.append(("charge_compute", (p, flops, iops, mem)))
        return self.machine.charge_compute(p, flops, iops, mem)

    def charge_compute_all(self, **kw):
        charge = self.machine.plan_compute_all(**kw)
        self.tape.append(("charge_planned_compute", (charge,)))
        self.machine.charge_planned_compute(charge)

    def exchange(self, **kw):
        charge = self.machine.plan_exchange(**kw)
        self.tape.append(("charge_exchange", (charge,)))
        # the recording run itself is still a one-shot exchange
        self.machine.charge_exchange(charge, planned=False)

    def barrier(self):
        self.tape.append(("barrier", ()))
        return self.machine.barrier()

    def replay(self, machine) -> None:
        """Apply the recorded charges to ``machine`` again, in order."""
        if machine is not self.machine:
            raise ValueError(
                "a charge tape replays only against the machine it was "
                "recorded on"
            )
        for method, args in self.tape:
            getattr(machine, method)(*args)


class PartitionEntry:
    """One cached iteration partition: frozen CSR arrays + charge tape."""

    __slots__ = ("charges", "flat", "bounds")

    def __init__(self, charges: ChargeLog, flat: np.ndarray, bounds: np.ndarray):
        self.charges = charges
        self.flat = _freeze(flat)
        self.bounds = _freeze(bounds)


class TranslationCache:
    """Slot -> (version, entry) store with hit/miss accounting.

    See the module docstring for the layout and invalidation contract.
    ``get``/``put`` take the slot (structural key) and version (volatile
    key) separately; a miss evicts the slot's entry of another version
    (a put under a new version would replace it), bounding memory by the
    number of distinct slots, and :meth:`prune` drops entries of
    superseded content.
    """

    def __init__(self):
        self._slots: dict[tuple, tuple[tuple, object]] = {}
        #: the content keys each held version names (see :meth:`prune`)
        self._content: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0
        #: entries evicted by a miss or replaced under a new version (same
        #: slot, changed content/distribution), or pruned (superseded content)
        self.invalidations = 0
        #: per-kind counters, keyed by slot[0] ("localize" / "partition")
        self.kind_hits: dict[str, int] = {}
        self.kind_misses: dict[str, int] = {}
        self.kind_invalidations: dict[str, int] = {}
        #: derived-holder requests served from an entry / built afresh
        self.derived_hits = 0
        self.derived_builds = 0

    def get(self, slot: tuple, version: tuple):
        """The entry stored for ``slot`` iff its version matches, else None.

        A miss evicts the slot's entry of another version at once: the
        caller's ``put`` would replace it, and the cold run that precedes
        that ``put`` should not have to hold both."""
        held = self._slots.get(slot)
        if held is not None and held[0] == version:
            self.hits += 1
            self.kind_hits[slot[0]] = self.kind_hits.get(slot[0], 0) + 1
            return held[1]
        if held is not None:
            del self._slots[slot], self._content[slot]
            self._count_invalidation(slot)
        self.misses += 1
        self.kind_misses[slot[0]] = self.kind_misses.get(slot[0], 0) + 1
        return None

    def put(self, slot: tuple, version: tuple, entry) -> None:
        held = self._slots.get(slot)
        if held is not None and held[0] != version:
            self._count_invalidation(slot)
        self._slots[slot] = (version, entry)
        self._content[slot] = _content_keys(version)

    def prune(self, live: dict) -> None:
        """Drop every entry naming a content key no array holds any more.

        ``live`` maps each array's ``uid`` to its current ``version``.
        A version never goes back, so an entry whose recorded
        ``ContentKey`` has another version (or whose array is gone) can
        never be served again.  Entries keyed only on distribution
        signatures are kept: a distribution can recur.
        """
        dead = [
            slot
            for slot, keys in self._content.items()
            if any(live.get(key.uid) != key.version for key in keys)
        ]
        for slot in dead:
            del self._slots[slot], self._content[slot]
            self._count_invalidation(slot)

    def _count_invalidation(self, slot: tuple) -> None:
        self.invalidations += 1
        self.kind_invalidations[slot[0]] = self.kind_invalidations.get(slot[0], 0) + 1

    def note_derived(self, hit: bool) -> None:
        """Count one derived-holder request against a localize entry."""
        if hit:
            self.derived_hits += 1
        else:
            self.derived_builds += 1

    def __len__(self) -> int:
        return len(self._slots)

    def clear(self) -> None:
        self._slots.clear()
        self._content.clear()

    def stats(self) -> dict:
        """Counters for bench reports (wall-side only, never simulated).

        ``invalidations`` counts entries evicted or replaced under a
        changed version key or dropped by :meth:`prune`, once per entry.
        ``by_kind`` breaks hits/misses/invalidations/entries down per
        slot kind (``"localize"`` / ``"partition"``); once any derived
        holder was requested it also carries ``"derived"`` with the
        holder ``hits``/``builds`` (not slot probes, so not part of the
        top-level ``hits``/``misses``).
        """
        kind_entries: dict[str, int] = {}
        for slot in self._slots:
            kind_entries[slot[0]] = kind_entries.get(slot[0], 0) + 1
        kinds = sorted(
            set(self.kind_hits)
            | set(self.kind_misses)
            | set(self.kind_invalidations)
            | set(kind_entries)
        )
        by_kind = {
            kind: {
                "hits": self.kind_hits.get(kind, 0),
                "misses": self.kind_misses.get(kind, 0),
                "invalidations": self.kind_invalidations.get(kind, 0),
                "entries": kind_entries.get(kind, 0),
            }
            for kind in kinds
        }
        if self.derived_hits or self.derived_builds:
            by_kind["derived"] = {
                "hits": self.derived_hits,
                "builds": self.derived_builds,
            }
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._slots),
            "by_kind": by_kind,
        }


class KeyTranslationMemo:
    """Sorted-key dereference memo shared by one patch's pattern groups.

    Patterns of one loop overwhelmingly reference the same elements
    (``x(edge(i))`` and ``y(edge(i))`` share every target), so their
    unknown-delta translations are near-identical.  Within one patch the
    distributions are frozen, so a translation resolved for one group
    can be served to the next from a local memo: each processor pays a
    hash probe instead of a remote page request.  Keyed by distribution
    signature; one sorted composite-key array per signature.

    Charging scope: one memo per patch
    (:func:`~repro.adapt.patch.patch_product` builds it).  The probe
    charge is paid only when the memo already holds entries for the
    signature; a group sharing its sibling's layout, and so taking its
    sibling's stage values, still calls :meth:`translate`, so it pays
    that probe like any other group.
    """

    def __init__(self) -> None:
        self._by_sig: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def translate(
        self,
        machine,
        ttable,
        stride: int,
        uniq_proc: np.ndarray,
        uniq_key: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(owner, lidx) for per-proc-sorted unique (proc, key) pairs."""
        n = machine.n_procs
        sig = ttable.dist.signature()
        owner = np.empty(uniq_key.size, dtype=np.int64)
        lidx = np.empty(uniq_key.size, dtype=np.int64)
        comp = uniq_proc * stride + uniq_key
        cached = self._by_sig.get(sig)
        if cached is not None and cached[0].size:
            ccomp, cowner, clidx = cached
            pos = np.searchsorted(ccomp, comp)
            hit = (pos < ccomp.size) & (
                ccomp[np.minimum(pos, ccomp.size - 1)] == comp
            )
            # every processor probes its memo once per key
            machine.charge_compute_all(
                iops=DEFAULT_COSTS.hash_lookup
                * np.bincount(uniq_proc, minlength=n).astype(np.float64)
            )
        else:
            hit = np.zeros(comp.size, dtype=bool)
        if hit.any():
            cpos = pos[hit]
            owner[hit] = cowner[cpos]
            lidx[hit] = clidx[cpos]
        miss = ~hit
        miss_key = uniq_key[miss]
        miss_proc = uniq_proc[miss]
        m_bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(miss_proc, minlength=n), out=m_bounds[1:])
        mowner, mlidx = ttable.dereference_flat(miss_key, m_bounds)
        owner[miss] = mowner
        lidx[miss] = mlidx
        if miss.any():
            mcomp = comp[miss]
            if cached is None or not cached[0].size:
                merged = (mcomp, mowner, mlidx)
            else:
                allc = np.concatenate([cached[0], mcomp])
                order = np.argsort(allc, kind="stable")
                merged = (
                    allc[order],
                    np.concatenate([cached[1], mowner])[order],
                    np.concatenate([cached[2], mlidx])[order],
                )
            self._by_sig[sig] = merged
        return owner, lidx
