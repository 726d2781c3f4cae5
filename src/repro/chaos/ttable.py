"""Translation tables: global index -> (owner, local offset) with costs.

For regular distributions the translation is closed-form arithmetic.  For
irregular distributions PARTI/CHAOS kept an explicit table, either

* **replicated** -- every processor stores the full owner/offset map.
  Dereference is a local lookup; building it costs an all-gather of the
  locally-known fragments (and O(N) memory per processor), or
* **distributed (paged)** -- the table itself is block-distributed; a
  dereference for an arbitrary global index requires a request message to
  the page's owner and a reply.  This is CHAOS's scalable default and the
  variant whose communication shows up in the paper's inspector times.

All variants return identical translations (one validated
``Distribution.translate``); they differ only in what they charge the
machine for the loosely synchronous phase in which all processors'
requests travel together -- the way CHAOS's dereference behaved.  That
charge is split in two so the translation can run in processor strips
(``repro.chaos.localize``):

* :meth:`Translator.strip_counts` -- per strip, what the charge needs to
  know about its processors' references: each processor's reference
  count, or the paged table's rows of the ``(requester, page owner)``
  histogram.  Pure host arithmetic, charged nothing;
* :meth:`Translator.charge_counts` -- one charge from the strips'
  counts stacked in processor order, after every strip has finished.

:meth:`Translator.dereference_flat` is both halves over a whole stream
in one call, for a caller that holds the stream already (the
translation cache's key memo).

The charge goes to an explicit **sink** -- normally the machine itself,
but the persistent :class:`~repro.chaos.transcache.TranslationCache`
passes a recording :class:`~repro.chaos.transcache.ChargeLog` so a cold
localize can replay its exact charge sequence on later warm hits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.kernels import pair_counts
from repro.distribution.base import Distribution
from repro.distribution.regular import BlockDistribution
from repro.machine.collectives import allgather_cost
from repro.machine.machine import Machine


class Translator(ABC):
    """Maps global indices of one distribution to (owner, local offset).

    Concrete tables implement the two charging halves
    (:meth:`strip_counts`, :meth:`charge_counts`); translation is shared.
    ``variant`` names the kind for :func:`build_translation_table`.
    """

    variant: str

    def __init__(self, machine: Machine, dist: Distribution):
        if dist.n_procs != machine.n_procs:
            raise ValueError(
                f"distribution spans {dist.n_procs} processors, machine has "
                f"{machine.n_procs}"
            )
        self.machine = machine
        self.dist = dist

    @abstractmethod
    def strip_counts(
        self, values: np.ndarray, requesters: np.ndarray, first: int, sizes: np.ndarray
    ) -> np.ndarray:
        """Per-processor counts of one strip's references, for
        :meth:`charge_counts`.

        ``values`` is the ``(members, refs)`` block of every stacked
        member's references of processors ``first, first + 1, ...``
        (already range-checked), ``requesters`` the requesting processor
        of each column, ``sizes`` how many columns each of those
        processors holds.  Returns one row per processor; the strips'
        rows stack in processor order into what one call over the whole
        stream returns.
        """

    @abstractmethod
    def charge_counts(self, sink, counts: np.ndarray) -> None:
        """Charge ``sink`` the batched dereference whose per-processor
        counts (:meth:`strip_counts`, every processor's row) are ``counts``."""

    def dereference_flat(
        self, values: np.ndarray, bounds: np.ndarray, sink=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat-form batched dereference: one translation for all processors.

        ``values`` holds every processor's reference list concatenated;
        ``bounds`` is the ``(P + 1,)`` CSR bound array (processor ``p``'s
        refs are ``values[bounds[p]:bounds[p+1]]``).  Several lists laid
        out by the same ``bounds`` may be stacked back to back (a
        :class:`~repro.chaos.flatrefs.FlatRefs` with ``members > 1``).
        Returns flat ``(owners, local_offsets)`` aligned with ``values``,
        both fresh arrays the caller may overwrite.  Charges go to
        ``sink`` (the machine, or a recording charge log).
        """
        values = np.asarray(values, dtype=np.int64)
        owners, lidx = self.dist.translate(values)
        sizes = np.diff(bounds)
        requesters = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        # one row per stacked member (one empty row for an empty stream)
        members = max(values.size // max(int(bounds[-1]), 1), 1)
        counts = self.strip_counts(values.reshape(members, -1), requesters, 0, sizes)
        self.charge_counts(self.machine if sink is None else sink, counts)
        return np.asarray(owners, dtype=np.int64), np.asarray(lidx, dtype=np.int64)


class RegularTranslationTable(Translator):
    """Closed-form translation for block/cyclic/block-cyclic distributions."""

    variant = "regular"
    _per_ref_cost = DEFAULT_COSTS.translate_regular

    def strip_counts(self, values, requesters, first, sizes):
        return values.shape[0] * sizes

    def charge_counts(self, sink, counts: np.ndarray) -> None:
        sink.charge_compute_all(iops=self._per_ref_cost * counts.astype(np.float64))


class ReplicatedTranslationTable(RegularTranslationTable):
    """Full owner/offset map on every processor.

    Construction models the all-gather of locally known fragments
    (every processor initially knows only the elements it received);
    dereference charges the replicated-lookup cost per reference but is
    otherwise the regular table's local closed-form shape.
    """

    variant = "replicated"
    _per_ref_cost = DEFAULT_COSTS.translate_replicated

    def __init__(self, machine: Machine, dist: Distribution):
        super().__init__(machine, dist)
        # model: allgather of (owner, offset) pairs for local fragments
        frag = -(-dist.size // machine.n_procs)
        allgather_cost(machine, frag * 2 * 4)  # two 32-bit words per element
        machine.charge_compute_all(iops=float(dist.size) * 1.0)  # table fill


class DistributedTranslationTable(Translator):
    """Paged table: pages block-distributed over processors.

    Dereferencing a reference list costs, per distinct page owner:
    a request message carrying the indices, a probe at the owner, and a
    reply message carrying (owner, offset) pairs.
    """

    variant = "distributed"

    def __init__(self, machine: Machine, dist: Distribution):
        super().__init__(machine, dist)
        self.pages = BlockDistribution(dist.size, machine.n_procs)
        # construction: each element's (owner, offset) entry is sent to its
        # page owner -- one all-to-all of table fragments
        n = machine.n_procs
        g = np.arange(dist.size)
        counts = pair_counts(dist.owner(g), self.pages.owner(g), n)
        off_diag = counts.copy()
        np.fill_diagonal(off_diag, 0)
        src, dst = np.nonzero(off_diag)
        machine.exchange(
            src=src, dst=dst, nbytes=off_diag[src, dst] * 2 * DEFAULT_COSTS.index_bytes
        )
        fill = counts.sum(axis=0).astype(float)
        machine.charge_compute_all(iops=2.0 * fill)
        machine.barrier()

    def strip_counts(self, values, requesters, first, sizes):
        """The strip's rows of the ``(requester, page owner)`` histogram:
        one bincount over ``(requester - first) * n + page owner``, built
        in place on the page-owner array, one row of it per stacked
        member.  The page owner is the block page table's closed-form
        division: the values are range-checked already, so the page
        table's own validation scan is skipped (and the quotient is a
        fresh array whenever there are values: the chunk is nonzero
        then)."""
        n = self.machine.n_procs
        chunk = self.pages.chunk
        key = values // chunk if chunk else values
        if key.size:
            key += (requesters - first) * n
        return np.bincount(key.reshape(-1), minlength=sizes.size * n).reshape(sizes.size, n)

    def charge_counts(self, sink, counts: np.ndarray) -> None:
        """The request exchange (indices), the probe at the page owners
        and the reply exchange (pairs), all count arithmetic."""
        off_diag = counts.copy()
        np.fill_diagonal(off_diag, 0)
        req_p, req_q = np.nonzero(off_diag)
        pair_counts = off_diag[req_p, req_q]
        sink.exchange(
            src=req_p, dst=req_q, nbytes=pair_counts * DEFAULT_COSTS.index_bytes
        )
        probe = counts.sum(axis=0).astype(float)
        sink.charge_compute_all(iops=DEFAULT_COSTS.translate_remote * probe)
        sink.exchange(
            src=req_q, dst=req_p, nbytes=pair_counts * 2 * DEFAULT_COSTS.index_bytes
        )
        sink.barrier()


def build_translation_table(
    machine: Machine,
    dist: Distribution,
    variant: str = "auto",
) -> Translator:
    """Build the right translation table for a distribution.

    ``variant``: "auto" (regular -> closed form, irregular -> distributed),
    "regular", "replicated", or "distributed".
    """
    if variant == "auto":
        variant = (
            "regular" if dist.kind not in ("irregular", "explicit") else "distributed"
        )
    if variant == "regular":
        if dist.kind in ("irregular", "explicit"):
            raise ValueError("closed-form translation needs a regular distribution")
        return RegularTranslationTable(machine, dist)
    if variant == "replicated":
        return ReplicatedTranslationTable(machine, dist)
    if variant == "distributed":
        return DistributedTranslationTable(machine, dist)
    raise ValueError(
        f"unknown translation table variant {variant!r}; "
        "choose auto | regular | replicated | distributed"
    )


class TableCache:
    """Translation tables keyed by ``(array name, distribution
    signature)``, each built -- and charged -- once.  A table is a pure
    function of its distribution and variant, so a left layout's table
    keeps only its variant (:meth:`supersede`); if the layout recurs,
    :meth:`get` rebuilds it against a scratch machine and binds it to
    the caller's.  :meth:`restore` installs a checkpoint's
    :meth:`entries` as keys only.  :meth:`get` never returns a key.
    """

    def __init__(self):
        self._tables: dict[tuple[str, tuple], Translator | str] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def get(
        self, machine: Machine, name: str, dist: Distribution, variant: str | None = None
    ) -> Translator:
        """``name``'s table for ``dist``; ``variant`` builds and charges
        one never held (without it, that is a ``KeyError``)."""
        key = (name, dist.signature())
        tt = self._tables.get(key)
        if isinstance(tt, str):
            tt = build_translation_table(Machine(machine.n_procs), dist, tt)
            tt.machine = machine
        elif tt is None:
            if variant is None:
                raise KeyError(key)
            with machine.obs.span("inspector.ttable.build", array=name):
                tt = build_translation_table(machine, dist, variant)
        self._tables[key] = tt
        return tt

    def supersede(self, names, sig: tuple) -> None:
        """Keep only the key and variant of ``names``' tables under ``sig``."""
        for name in names:
            tt = self._tables.get((name, sig))
            if tt is not None and not isinstance(tt, str):
                self._tables[(name, sig)] = tt.variant

    def entries(self) -> list[tuple[str, tuple, str]]:
        """``(array name, signature, variant)`` of every key, in order."""
        return [
            (name, sig, tt if isinstance(tt, str) else tt.variant)
            for (name, sig), tt in self._tables.items()
        ]

    def built(self) -> int:
        """How many entries hold a table (the rest hold only a key)."""
        return sum(not isinstance(tt, str) for tt in self._tables.values())

    def restore(self, entries) -> None:
        """Replace every entry by the saved ``entries``, keys only."""
        self._tables = {(name, sig): variant for name, sig, variant in entries}
