"""Irregular distribution: an arbitrary owner map, as a partitioner emits.

This is the Fortran D ``DISTRIBUTE irreg(map)`` of the paper's Figure 3:
element ``i`` lives on processor ``map[i]``.  Local offsets follow global
index order within each processor, which is also what CHAOS's remap
produces.  All lookups are precomputed dense arrays, so vectorized queries
are O(1) per element.

:class:`ExplicitDistribution` additionally pins every element's *local
offset*: the layout a sequence of incremental repartitionings produces
(:func:`repartition_stable`), where an element keeps its local slot for
as long as it stays on its processor.  That stability is what makes the
mapper/coupler loop's array remaps patchable -- see
``repro.chaos.remap.patch_remap_schedule``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.chaos.kernels import sorted_unique
from repro.distribution.base import Distribution


class _OwnerMapDistribution(Distribution):
    """Shared body of the two owner-map kinds: dense ``_owners`` /
    ``_local`` lookups plus ``_perm``, the flat-slot -> global-index
    permutation.  The kinds differ only in how the local map is obtained
    (and in ``kind`` and what the signature digests)."""

    def __init__(self, owners: np.ndarray, n_procs: int):
        super().__init__(owners.size, n_procs)
        if owners.size and (owners.min() < 0 or owners.max() >= n_procs):
            bad = owners[(owners < 0) | (owners >= n_procs)][0]
            raise ValueError(f"owner map entry {bad} out of range [0, {n_procs})")
        self._owners = owners
        self._counts = np.bincount(owners, minlength=n_procs).astype(np.int64)
        self._starts = np.zeros(n_procs + 1, dtype=np.int64)
        np.cumsum(self._counts, out=self._starts[1:])

    def _set_layout(self, local: np.ndarray, perm: np.ndarray, *digested) -> None:
        self._local = local
        self._perm = perm
        content = b"".join(a.tobytes() for a in digested)
        digest = hashlib.blake2b(content, digest_size=8).hexdigest()
        self._sig = (self.kind, self.size, self.n_procs, digest)

    def owner(self, gidx):
        return self._owners[self._check_gidx(gidx)]

    def local_index(self, gidx):
        return self._local[self._check_gidx(gidx)]

    def _translate_checked(self, g):
        # base.translate validated once; two dense gathers remain
        return self._owners[g], self._local[g]

    def global_index(self, p: int, lidx):
        self._check_proc(p)
        li = np.asarray(lidx, dtype=np.int64)
        n = self._counts[p]
        if li.size and (li.min() < 0 or li.max() >= n):
            raise IndexError(f"local index out of range [0, {n}) on processor {p}")
        return self._perm[self._starts[p] + li]

    def local_size(self, p: int) -> int:
        self._check_proc(p)
        return int(self._counts[p])

    def local_sizes(self) -> np.ndarray:
        return self._counts.copy()

    def local_indices(self, p: int) -> np.ndarray:
        self._check_proc(p)
        return self._perm[self._starts[p] : self._starts[p + 1]].copy()

    def owner_map(self) -> np.ndarray:
        return self._owners.copy()

    def _build_global_perm(self) -> np.ndarray:
        return self._perm

    def _build_global_perm_inverse(self) -> np.ndarray:
        return self._starts[self._owners] + self._local

    def signature(self) -> tuple:
        """Includes a content hash: remapping to a new owner map changes
        the signature, which is what lets data access descriptors detect
        redistribution (Section 3 of the paper)."""
        return self._sig


class IrregularDistribution(_OwnerMapDistribution):
    """Distribution defined by an explicit per-element owner array."""

    kind = "irregular"

    def __init__(self, owner_map, n_procs: int):
        owners = np.ascontiguousarray(owner_map, dtype=np.int64)
        if owners.ndim != 1:
            raise ValueError(f"owner map must be 1-D, got shape {owners.shape}")
        super().__init__(owners, n_procs)
        # local offset of g = rank of g among indices owned by the same
        # proc, so the stable owner sort *is* the permutation
        order = np.argsort(owners, kind="stable")
        local = np.empty(self.size, dtype=np.int64)
        local[order] = np.arange(self.size, dtype=np.int64) - self._starts[owners[order]]
        self._set_layout(local, order, owners)


class ExplicitDistribution(_OwnerMapDistribution):
    """Distribution with explicit owner *and* local-offset maps.

    Where :class:`IrregularDistribution` derives local offsets from
    global-index order, this class takes them as given -- the layout an
    incremental repartitioner maintains: when an element leaves a
    processor its slot becomes reusable, arrivals fill vacated slots
    then append, and every element that stays put keeps its offset.
    Per-processor offsets must still be dense (``[0, local_size)`` with
    no duplicates); :func:`repartition_stable` preserves that by
    construction and the constructor verifies it.
    """

    kind = "explicit"

    def __init__(self, owner_map, local_map, n_procs: int):
        owners = np.ascontiguousarray(owner_map, dtype=np.int64)
        local = np.ascontiguousarray(local_map, dtype=np.int64)
        if owners.ndim != 1 or owners.shape != local.shape:
            raise ValueError(
                f"owner map {owners.shape} and local map {local.shape} "
                "must be equal-length 1-D arrays"
            )
        super().__init__(owners, n_procs)
        if local.size and (local.min() < 0 or (local >= self._counts[owners]).any()):
            g = int(np.flatnonzero((local < 0) | (local >= self._counts[owners]))[0])
            raise ValueError(
                f"element {g}: local offset {int(local[g])} out of range "
                f"[0, {int(self._counts[owners[g]])}) on processor {int(owners[g])}"
            )
        gidx_of_flat = np.full(self.size, -1, dtype=np.int64)
        gidx_of_flat[self._starts[owners] + local] = np.arange(self.size, dtype=np.int64)
        if (gidx_of_flat < 0).any():
            s = int(np.flatnonzero(gidx_of_flat < 0)[0])
            p = int(np.searchsorted(self._starts, s, side="right") - 1)
            raise ValueError(
                f"local offset {s - int(self._starts[p])} on processor {p} "
                "is assigned twice (layout must be a bijection)"
            )
        self._set_layout(local, gidx_of_flat, owners, local)

    def local_map(self) -> np.ndarray:
        return self._local.copy()


@dataclass
class RebalancePlan:
    """Element-level delta of one :func:`repartition_stable` step.

    ``moved`` change processor (the only elements that touch the
    network); ``repacked`` stay on their processor but slide into a
    vacated slot to keep the layout dense (local memory traffic only);
    everything else keeps both owner and local offset -- carried for
    free by a patched remap schedule.
    """

    moved: np.ndarray
    repacked: np.ndarray


def repartition_stable(
    dist: Distribution, move_g, move_to, n_procs: int | None = None
) -> tuple[ExplicitDistribution, RebalancePlan]:
    """Apply an element-move delta, disturbing as few slots as possible.

    ``move_g``/``move_to`` name elements and their new owners (entries
    already owned by their target are dropped).  The returned layout
    follows the retire/append discipline the incremental inspector uses
    for ghost slots: a departing element's slot becomes a hole, arrivals
    fill holes in ascending order then append, and -- when a processor
    shrinks -- its tail elements slide into the remaining holes
    (swap-remove) so offsets stay dense.  Every element outside the
    returned plan keeps its exact ``(owner, local offset)``, which is
    what lets ``patch_remap_schedule`` build the array-move schedule
    from the delta alone.
    """
    n = n_procs if n_procs is not None else dist.n_procs
    size = dist.size
    g_all = np.arange(size, dtype=np.int64)
    old_owner = np.asarray(dist.owner(g_all), dtype=np.int64)
    old_local = np.asarray(dist.local_index(g_all), dtype=np.int64)
    move_g = np.asarray(move_g, dtype=np.int64)
    move_to = np.asarray(move_to, dtype=np.int64)
    if move_g.shape != move_to.shape or move_g.ndim != 1:
        raise ValueError("move_g and move_to must be equal-length 1-D arrays")
    if sorted_unique(move_g).size != move_g.size:
        raise ValueError("move_g contains duplicate elements")
    if move_to.size and (move_to.min() < 0 or move_to.max() >= n):
        raise ValueError(f"target processor out of range [0, {n})")
    real = move_to != old_owner[move_g]
    moved = move_g[real]
    dest = move_to[real]
    order = np.argsort(moved)
    moved, dest = moved[order], dest[order]

    new_owner = old_owner.copy()
    new_owner[moved] = dest
    new_local = old_local.copy()
    old_sizes = np.bincount(old_owner, minlength=n) if size else np.zeros(n, np.int64)
    new_sizes = np.bincount(new_owner, minlength=n) if size else np.zeros(n, np.int64)

    src_proc = old_owner[moved]
    repacked_parts: list[np.ndarray] = []
    affected = sorted_unique(np.concatenate([src_proc, dest]))
    for p in affected:
        dep_l = np.sort(old_local[moved[src_proc == p]])  # holes, ascending
        arr_g = moved[dest == p]  # arrivals, gidx-ascending (moved is sorted)
        k = min(dep_l.size, arr_g.size)
        new_local[arr_g[:k]] = dep_l[:k]
        if arr_g.size > k:
            # holes exhausted: append at the end of the old region
            new_local[arr_g[k:]] = old_sizes[p] + np.arange(
                arr_g.size - k, dtype=np.int64
            )
        elif dep_l.size > k:
            # processor shrank: slide surviving tail elements into the
            # remaining holes below the new size (swap-remove), pairing
            # both ascending for determinism
            ns = int(new_sizes[p])
            holes = dep_l[k:]
            usable = holes[holes < ns]
            tail_g = dist.local_indices(p)[ns : int(old_sizes[p])]
            keep = new_owner[tail_g] == p
            tail_g = tail_g[keep]  # already lidx-ascending
            new_local[tail_g] = usable
            repacked_parts.append(tail_g)
    repacked = (
        np.sort(np.concatenate(repacked_parts))
        if repacked_parts
        else np.empty(0, dtype=np.int64)
    )
    new_dist = ExplicitDistribution(new_owner, new_local, n)
    return new_dist, RebalancePlan(moved=moved, repacked=repacked)
