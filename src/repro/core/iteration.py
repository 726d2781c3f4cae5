"""Loop-iteration partitioning (Section 4.3).

"Our current default is to employ a scheme that places a loop iteration
on the processor that is the home of the largest number of the
iteration's distributed array references" -- the *almost-owner-computes*
rule.  The classic *owner-computes* rule (iteration follows the owner of
the first left-hand side) is provided for the ablation bench.

The modeled cost follows the real implementation: iterations start
block-distributed; each processor translates its iterations' references
(indirection values are aligned with the iteration space), votes, and
iterations whose home differs from their current holder are shipped --
an exchange of iteration records.

Wall-clock performance notes (simulated charges are unaffected): an
unchanged loop never reaches the vote -- its partition is a
``TranslationCache`` hit -- so nothing below is memoized across calls.
The cold path is linear in the loop size (``repro.chaos.kernels``): the
majority vote runs over the *distinct* owner rows :func:`owner_rows`
hands out with integer weights, the grouping of iterations by home
processor is a radix sort on the processor id, and the
shipped-iteration histogram is one ``searchsorted`` of the block
boundaries per home segment (:func:`shipped_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.costs import ChaosCosts, DEFAULT_COSTS
from repro.chaos.kernels import majority_owner, stable_order
from repro.chaos.transcache import ChargeLog, PartitionEntry, TranslationCache
from repro.core import cachekey
from repro.core.forall import ForallLoop
from repro.distribution.distarray import DistArray
from repro.distribution.regular import BlockDistribution
from repro.machine.machine import Machine

#: bytes per iteration record when iterations are shipped to their home
ITERATION_RECORD_BYTES = 16


@dataclass
class IterationPartition:
    """Assignment of loop iterations to processors.

    Storage is flat (CSR like ``FlatRefs``): processor ``p`` executes
    iterations ``flat[bounds[p]:bounds[p+1]]``, ascending.
    """

    n_iterations: int
    method: str
    flat: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    # index arrays derived on first use from ``flat``/``bounds`` (which
    # nobody mutates), frozen: executor, patcher and verifier share them
    _pid: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _inv: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def counts(self) -> list[int]:
        return np.diff(self.bounds).tolist()

    def iters_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR form ``(values, bounds)``."""
        return self.flat, self.bounds

    def proc_of_position(self) -> np.ndarray:
        """Processor executing each flat position (frozen, built once)."""
        if self._pid is None:
            ids = np.arange(self.bounds.size - 1, dtype=np.int64)
            self._pid = np.repeat(ids, np.diff(self.bounds))
            self._pid.flags.writeable = False
        return self._pid

    def inverse(self) -> np.ndarray:
        """Flat position of each iteration (frozen, built once)."""
        if self._inv is None:
            self._inv = np.empty(self.n_iterations, dtype=np.int64)
            self._inv[self.flat] = np.arange(self.n_iterations, dtype=np.int64)
            self._inv.flags.writeable = False
        return self._inv

    def owner_of(self) -> np.ndarray:
        """Dense iteration -> processor map (one scatter, for tests)."""
        out = np.empty(self.n_iterations, dtype=np.int64)
        out[self.flat] = self.proc_of_position()
        return out


def owner_rows(
    loop: ForallLoop, arrays: dict[str, DistArray], refs, at=None
) -> list[np.ndarray]:
    """Home processor of each iteration's target element, per ArrayRef.

    One row per distinct ``(dist_key, indirection)`` source, and the
    **same array object** for every reference sharing that source
    (``x(edge1(i))`` and ``y(edge1(i))`` with identically-distributed
    ``x``/``y``): that identity is what ``kernels.majority_owner``
    weights by.  ``at`` restricts the rows to those iterations (the
    incremental re-vote); ``None`` means all of them.
    """
    n = loop.n_iterations
    by_source: dict[tuple, np.ndarray] = {}
    rows = []
    for ref in refs:
        dist = arrays[ref.array].distribution
        source = (cachekey.dist_key(dist), ref.index)
        row = by_source.get(source)
        if row is None:
            if ref.index is None:
                targets = np.arange(n, dtype=np.int64) if at is None else at
            else:
                ind = arrays[ref.index]
                if ind.size != n:
                    raise ValueError(
                        f"indirection array {ref.index!r} has size {ind.size}, "
                        f"loop {loop.name!r} iterates {n}"
                    )
                # the re-vote reads its positions only: no global view is assembled
                targets = ind.global_view() if at is None else ind.global_get(at)
                targets = np.asarray(targets, dtype=np.int64)
            row = by_source[source] = np.asarray(dist.owner(targets), dtype=np.int64)
        rows.append(row)
    return rows


def method_refs(loop: ForallLoop, method: str):
    """The ArrayRefs a partition method votes over (shared with the
    incremental re-vote in ``repro.adapt`` -- both must select
    identically for patched partitions to equal fresh ones)."""
    if method == "almost_owner":
        return loop.refs()
    if method == "owner_computes":
        return [loop.statements[0].lhs]
    raise ValueError(
        f"unknown iteration partition method {method!r}; choose "
        "almost_owner | owner_computes"
    )


def partition_from_home(
    home: np.ndarray, n_procs: int, method: str
) -> IterationPartition:
    """Group iterations by home processor, ascending iteration index
    within each home: a stable radix sort on the processor id (16-bit
    digits, as many as ``n_procs`` needs).  Used by
    :func:`partition_iterations` and the incremental patcher (which must
    reproduce this grouping exactly)."""
    counts = np.bincount(home, minlength=n_procs)
    if counts.size > n_procs:
        raise ValueError(
            f"processor id {int(home.max())} out of range [0, {n_procs})"
        )
    bounds = np.zeros(n_procs + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return IterationPartition(
        home.size, method, flat=stable_order(home, n_procs), bounds=bounds
    )


def shipped_counts(part: IterationPartition, block_sizes: np.ndarray) -> np.ndarray:
    """``counts[holder, home]``: how many iterations block processor
    ``holder`` starts with that ``part`` homes on ``home``.

    Each home segment of ``part`` ascends, so one ``searchsorted`` of
    the block boundaries per segment counts it by holder -- no n-length
    pass over the iterations.
    """
    n_procs = block_sizes.size
    starts = np.zeros(n_procs + 1, dtype=np.int64)
    np.cumsum(block_sizes, out=starts[1:])
    bounds = part.bounds.tolist()
    # below[home, b]: iterations of home's segment that precede block b
    below = np.empty((n_procs, n_procs + 1), dtype=np.int64)
    for home in range(n_procs):
        below[home] = np.searchsorted(part.flat[bounds[home] : bounds[home + 1]], starts)
    return np.diff(below, axis=1).T


def partition_cache_key(
    loop: ForallLoop,
    arrays: dict[str, DistArray],
    method: str,
    n_procs: int,
) -> tuple[tuple, tuple]:
    """``(slot, version)`` key of one loop's iteration partition.

    The partition is a pure function of the voted references' owner
    rows, so the slot pins the structure (loop, size, machine width,
    method, reference shape) and the version pins the content: one
    :func:`repro.core.cachekey.source_key` token per voted reference.
    ``run_inspector`` folds the full key into its localize keys -- equal
    partition keys imply identical iteration order, which localize's
    reference streams depend on.
    """
    refs = method_refs(loop, method)
    slot = (
        "partition",
        loop.name,
        loop.n_iterations,
        n_procs,
        method,
        tuple((ref.array, ref.index) for ref in refs),
    )
    version = tuple(cachekey.source_key(arrays, ref) for ref in refs)
    return slot, version


def partition_iterations(
    machine: Machine,
    loop: ForallLoop,
    arrays: dict[str, DistArray],
    method: str = "almost_owner",
    costs: ChaosCosts = DEFAULT_COSTS,
    cache: TranslationCache | None = None,
    cache_key: "tuple[tuple, tuple] | None" = None,
) -> IterationPartition:
    """Partition ``loop``'s iterations among the machine's processors.

    ``method`` is ``"almost_owner"`` (paper default: majority vote over
    all the iteration's references, ties to the lowest processor) or
    ``"owner_computes"`` (home of the first statement's left-hand side).

    With a :class:`TranslationCache`, an unchanged loop (same
    :func:`partition_cache_key`) skips the vote/group kernels and
    replays the cold run's simulated charges; ``cache_key`` may be
    passed precomputed (``run_inspector`` shares it with its localize
    keys) or is derived here.
    """
    n = loop.n_iterations
    n_procs = machine.n_procs
    refs = method_refs(loop, method)
    if n == 0:
        return IterationPartition(
            0,
            method,
            flat=np.empty(0, dtype=np.int64),
            bounds=np.zeros(n_procs + 1, dtype=np.int64),
        )
    if cache is not None:
        if cache_key is None:
            cache_key = partition_cache_key(loop, arrays, method, n_procs)
        entry = cache.get(*cache_key)
        if entry is not None:
            entry.charges.replay(machine)
            return IterationPartition(
                n, method, flat=entry.flat, bounds=entry.bounds
            )

    # repeated sources are one row object, which votes once with a weight
    home = majority_owner(owner_rows(loop, arrays, refs))  # ties -> lowest proc

    part = partition_from_home(home, n_procs, method)

    sink = machine if cache is None else ChargeLog(machine)
    # cost: each processor examines its block of iterations -- one
    # translation probe + vote update per reference
    block_sizes = BlockDistribution(n, n_procs).local_sizes()
    sink.charge_compute_all(
        iops=block_sizes.astype(np.float64) * len(refs) * (costs.hash_lookup + 2.0)
    )
    # ship iterations whose home differs from their initial block holder:
    # a (holder, home) histogram
    moved = shipped_counts(part, block_sizes)
    np.fill_diagonal(moved, 0)
    move_p, move_q = np.nonzero(moved)
    sink.exchange(
        src=move_p,
        dst=move_q,
        nbytes=moved[move_p, move_q] * ITERATION_RECORD_BYTES,
    )
    sink.barrier()
    if cache is not None:
        cache.put(
            cache_key[0], cache_key[1], PartitionEntry(sink, part.flat, part.bounds)
        )
    return part
