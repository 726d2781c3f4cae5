"""Host kernels of the cold inspector (the miss path) and the partitioner.

What a remap forces the runtime to redo -- the iteration vote and
grouping, localize's dedup and pair grouping, the processor-pair
histograms behind the exchange charges -- bottoms out in these
kernels, as do the write side's range covers and range checks and RCB's
per-axis presort.  Each returns arrays bit-identical to the naive form
kept as its reference in ``tests/core/test_miss_path_kernels.py`` (dense
vote-matrix argmax, ``np.lexsort``, ``np.unique``, ``np.add.at``,
``np.argsort(kind="stable")``, the element-wise test), so no simulated
charge depends on them; only host time does.  Widths and dtypes are
chosen from the observed key range, never by an option.
"""

from __future__ import annotations

import numpy as np

__all__ = ["first_segment_outside", "majority_owner", "pair_counts", "sorted_unique",
           "sorted_unique_inverse", "stable_argsort", "stable_order"]

#: bits a packed ``key << bits | position`` word may use (an int64, kept
#: clear of the sign bit with one to spare)
_WORD_BITS = 62


def majority_owner(rows: list[np.ndarray]) -> np.ndarray:
    """Majority vote over k owner rows of length n, ties -> lowest id.

    Equivalent to building the dense (n, n_procs) vote matrix and taking
    a row-wise argmax.  Rows that are the *same array object* (what
    ``core.iteration.owner_rows`` hands out: ``x(e(i))`` and
    ``y(e(i))`` over one distribution share a row) vote once with an
    integer weight, so the pass is O(n * d^2) over the d distinct rows:
    a position's count is its row's weight plus the weights of the rows
    agreeing with it, and among the positions attaining the maximum the
    smallest owner id wins -- the dense argmax's tie semantics.  Counts
    are uint8 while the total weight k fits, int64 beyond.
    """
    by_id: dict[int, list] = {}
    for row in rows:
        by_id.setdefault(id(row), [row, 0])[1] += 1
    distinct, weights = zip(*by_id.values())
    d = len(distinct)
    if d == 1:
        return distinct[0].copy()
    if d == 2:
        # where the two rows agree either is the answer; where they
        # differ the heavier one wins, an even split goes to the lowest id
        if weights[0] == weights[1]:
            return np.minimum(distinct[0], distinct[1])
        return (distinct[0] if weights[0] > weights[1] else distinct[1]).copy()
    n = distinct[0].size
    count_dtype = np.uint8 if len(rows) < 256 else np.int64
    counts = np.empty((d, n), dtype=count_dtype)
    counts[:] = np.array(weights)[:, None]
    for j in range(d):
        for m in range(j + 1, d):
            eq = distinct[j] == distinct[m]
            counts[j] += eq * count_dtype(weights[m])
            counts[m] += eq * count_dtype(weights[j])
    cmax = counts.max(axis=0)
    big = np.iinfo(np.int64).max
    winner = np.full(n, big, dtype=np.int64)
    for j in range(d):
        np.minimum(winner, np.where(counts[j] == cmax, distinct[j], big), out=winner)
    return winner


def stable_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Stable argsort of integer ``keys`` in ``[0, n_keys)``: positions
    grouped by key, ascending within a key (``np.argsort(keys,
    kind="stable")``), as an LSD radix sort over 16-bit digits.

    NumPy's stable sort of a ``uint16`` array is a radix sort that skips
    constant bytes, so each digit is one linear pass; ``n_keys`` sets
    the digit count (one up to 65 536 keys, two up to 2^32).  The caller
    vouches for the range: a wider key is grouped by its low digits only.
    """
    # (a uint8 first digit sorts ~25 % faster when one byte holds every key)
    order = np.argsort(keys.astype(np.uint8 if n_keys <= 256 else np.uint16), kind="stable")
    shift = 16
    while n_keys > 1 << shift:
        digit = (keys >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of a 1-D array, element for
    element, from one unstable argsort and one direct sort.

    NumPy's stable sort of floats is a merge sort several times slower
    than its unstable one.  So the fast sort orders the keys, the sorted keys
    become run ranks (a new rank wherever the key changes: ``-0.0``
    equals ``0.0`` and every NaN shares the last rank, as under the
    stable sort's comparisons), and the distinct words ``rank << bits |
    position`` are sorted once: within a run of equal keys, ascending
    position *is* the stable order.  Arrays too long to pack a rank and
    a position into one word take the stable sort itself.
    """
    n = key.size
    bits = max(n - 1, 0).bit_length()
    if 2 * bits > _WORD_BITS:
        return np.argsort(key, kind="stable")
    order = np.argsort(key)
    ranked = key[order]
    new_run = np.empty(n, dtype=bool)
    new_run[:1] = False
    np.not_equal(ranked[1:], ranked[:-1], out=new_run[1:])
    if n and ranked.dtype.kind == "f" and np.isnan(ranked[-1]):
        # NaNs sort last and never compare equal: one run from the first
        new_run[np.searchsorted(ranked, np.nan) + 1:] = False
    words = np.cumsum(new_run, dtype=np.int64)
    words <<= bits
    words |= order
    words.sort()
    words &= (1 << bits) - 1
    return words


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array as a sort (skipped when ``keys`` is
    non-decreasing already, as tracked writes and move lists are) and a
    neighbour mask; NumPy >= 2.3 hashes instead, ~15x slower on those."""
    if keys.size > 1 and (keys[1:] < keys[:-1]).any():
        keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def sorted_unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique values of ``keys`` plus the inverse mapping.

    Bit-identical contract to ``np.unique(keys, return_inverse=True)``
    (ascending uniques in ``keys.dtype``, ``uniq[inverse] == keys``),
    from one *direct* sort: each key is packed with its position into
    ``key << bits | position``, so the sorted words carry the sorted
    keys in their high bits and the sorting permutation in their low
    ones, and the inverse is the running group number scattered through
    that permutation -- no indirect argsort, no binary search.  Keys
    that are negative, or too wide to share 62 bits with a position,
    take ``np.unique`` itself -- a cold path: every caller passes
    ``processor * stride + global index`` composites, non-negative and
    far narrower, so only hand-made inputs reach it.
    """
    n = keys.size
    if not n:
        return keys.copy(), np.empty(0, dtype=np.int64)
    bits = (n - 1).bit_length()
    if keys.min() < 0 or int(keys.max()).bit_length() + bits > _WORD_BITS:
        return np.unique(keys, return_inverse=True)
    packed = keys.astype(np.int64) << bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    perm = packed & ((1 << bits) - 1)
    packed >>= bits  # now the sorted keys
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(packed[1:], packed[:-1], out=new_group[1:])
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.cumsum(new_group) - 1
    return packed[new_group].astype(keys.dtype, copy=False), inverse


def first_segment_outside(
    values: np.ndarray, bounds: np.ndarray, limit: np.ndarray, start: np.ndarray | None = None
) -> int | None:
    """The first CSR segment ``values[bounds[s]:bounds[s + 1]]`` holding
    a value outside ``[start[s], limit[s])`` (``start`` 0 when ``None``),
    or ``None``: the element-wise test against each segment's range as
    two ``reduceat`` extrema per segment, with no per-element temporary.
    ``bounds`` is a monotone CSR over all of ``values`` (callers check
    that first)."""
    live = np.flatnonzero(np.diff(bounds))
    if not live.size:
        return None
    # with the empty segments dropped, each start runs up to the next
    starts = bounds[live]
    lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    bad = (lo < (0 if start is None else start[live])) | (hi >= limit[live])
    return int(live[np.argmax(bad)]) if bad.any() else None


def pair_counts(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``(n, n)`` int64 histogram of the id pairs ``(a[i], b[i])``:
    ``out[p, q]`` counts the positions with ``a == p`` and ``b == q``
    (what ``np.add.at(zeros((n, n)), (a, b), 1)`` builds), as one
    ``bincount`` over ``a * n + b``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("a and b must have matching shapes")
    for ids in (a, b):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise ValueError(f"processor id {int(bad)} out of range [0, {n})")
    return np.bincount(a * n + b, minlength=n * n).reshape(n, n)
