"""The cold inspector's linear-time kernels vs their naive references.

``repro.chaos.kernels`` replaced four super-linear or scatter-bound host
kernels on the miss path (the inspection a ``redistribute`` forces).
Each must return arrays *bit-identical* to the obvious form, kept here
as the reference:

* weighted-row majority vote    vs  dense ``(n, P)`` vote matrix argmax
* radix ``stable_order``        vs  ``np.lexsort((position, key))``
* packed-rank ``stable_argsort`` vs ``np.argsort(kind="stable")``
* one-sort dedup                vs  ``np.unique(return_inverse=True)``
* ``bincount`` pair histogram   vs  ``np.add.at`` on a zero matrix

plus the guards (no silent overflow, wrap or wrong answer) and one
end-to-end differential: a ``redistribute(moved=)`` -> ``forall``
campaign whose product arrays, charge tapes and machine counters are
pinned to the values the pre-kernel code produced.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import DistributedTranslationTable, kernels
from repro.chaos.kernels import (
    majority_owner,
    pair_counts,
    sorted_unique_inverse,
    stable_argsort,
    stable_order,
)
from repro.core.iteration import partition_from_home
from repro.distribution import IrregularDistribution
from repro.machine.machine import ComputeCharge, ExchangeCharge, Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads.mesh import generate_mesh
from tests.chaos.schedule_oracle import entries
from tests.workloads.helpers import run_rebalance_campaign


# ----------------------------------------------------------------------
# naive references
# ----------------------------------------------------------------------
def dense_vote(rows, n_procs):
    """One vote per row into a dense (n, P) matrix; argmax takes the
    lowest processor among ties."""
    n = rows[0].size
    votes = np.zeros((n, n_procs), dtype=np.int64)
    for row in rows:
        np.add.at(votes, (np.arange(n), row), 1)
    return votes.argmax(axis=1)


def lexsort_order(keys):
    return np.lexsort((np.arange(keys.size), keys))


def add_at_counts(a, b, n):
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (a, b), 1)
    return out


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# majority vote
# ----------------------------------------------------------------------
@st.composite
def vote_cases(draw):
    """k <= 9 references drawn (with repeats -> aliased row objects) from
    up to 4 distinct rows that agree on a drawn share of positions, so
    unanimous, majority, split and all-different iterations all occur."""
    n_procs = draw(st.sampled_from([1, 2, 3, 5, 64]))
    n = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, n_procs, size=n)
    agree = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    distinct = [base] + [
        np.where(rng.random(n) < agree, base, rng.integers(0, n_procs, size=n))
        for _ in range(draw(st.integers(0, 3)))
    ]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=9))
    return n_procs, [distinct[i] for i in picks]


@given(vote_cases())
@settings(max_examples=200, deadline=None)
def test_majority_owner_matches_dense_argmax(case):
    n_procs, rows = case
    before = [row.copy() for row in rows]
    got = majority_owner(rows)
    assert_same(got, dense_vote(rows, n_procs))
    # the answer is a fresh array and the (cached) rows are untouched
    assert all(got is not row for row in rows)
    for row, kept in zip(rows, before):
        np.testing.assert_array_equal(row, kept)


def test_majority_owner_aliased_rows_equal_copied_rows():
    # weights are an optimisation over object identity only: the same
    # values in k separate arrays must vote the same way
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(0, 6, size=500) for _ in range(3))
    aliased = [a, b, a, c, a, b, c, b]
    copied = [row.copy() for row in aliased]
    assert_same(majority_owner(aliased), majority_owner(copied))
    assert_same(majority_owner(aliased), dense_vote(aliased, 6))


@pytest.mark.parametrize("weights", [(4, 4), (5, 3), (1, 6)])
def test_majority_owner_two_distinct_rows(weights):
    # Euler's shape: every reference goes through one of two
    # indirections.  Even split -> lowest id, else the heavier row.
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, 8, size=300), rng.integers(0, 8, size=300)
    rows = [a] * weights[0] + [b] * weights[1]
    assert_same(majority_owner(rows), dense_vote(rows, 8))


@pytest.mark.parametrize("total", [255, 256, 300])
def test_majority_owner_counts_widen_past_uint8(total):
    # three distinct rows that agree at position 0: its count is the
    # total weight, which wraps to 0 in uint8 from 256 on
    a = np.array([2, 0, 1, 3])
    b = np.array([2, 1, 1, 0])
    c = np.array([2, 1, 0, 0])
    rows = [a] * (total - 120) + [b] * 60 + [c] * 60
    assert_same(majority_owner(rows), dense_vote(rows, 4))


# ----------------------------------------------------------------------
# stable grouping
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_keys", [1, 2, 64, 512, 2**16, 2**16 + 1, 512 * 512, 2**32, 2**33 + 5]
)
@pytest.mark.parametrize("seed", range(3))
def test_stable_order_matches_lexsort(n_keys, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 4000))
    # at most 40 distinct keys occur (the other processors are empty),
    # the top key of the range among them
    live = rng.integers(0, n_keys, size=max(1, min(n_keys, 40)))
    keys = rng.choice(live, size=n)
    if n:
        keys[rng.integers(0, n)] = n_keys - 1
    got = stable_order(keys, n_keys)
    assert_same(got, lexsort_order(keys))
    assert_same(got, np.argsort(keys, kind="stable"))


@given(
    st.sampled_from([1, 2, 64, 512, 70_000]),
    st.integers(0, 600),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_partition_from_home_matches_lexsort(n_procs, n, seed):
    rng = np.random.default_rng(seed)
    home = rng.choice(rng.integers(0, n_procs, size=5), size=n)
    part = partition_from_home(home, n_procs, "almost_owner")
    assert part.n_iterations == n
    assert_same(part.flat, lexsort_order(home))
    assert_same(part.bounds[1:], np.cumsum(np.bincount(home, minlength=n_procs)))
    assert part.bounds[0] == 0 and part.bounds.size == n_procs + 1
    if n:
        np.testing.assert_array_equal(part.owner_of(), home)


#: values whose comparisons the stable sort treats specially
SPECIAL_FLOATS = st.sampled_from([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0, -1.0])


@given(
    st.sampled_from([0, 1, 2, 3, 17, 5_000]),
    st.lists(SPECIAL_FLOATS | st.floats(), min_size=1, max_size=8),
    st.floats(0, 1),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_stable_argsort_matches_numpy_stable(n, pool, fresh_share, seed):
    # keys drawn from a small pool (many duplicates), a share replaced
    # by distinct values
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.array(pool, dtype=np.float64), size=n)
    fresh = rng.random(n) < fresh_share
    keys[fresh] = rng.standard_normal(int(fresh.sum()))
    assert_same(stable_argsort(keys), np.argsort(keys, kind="stable"))


def test_stable_argsort_too_long_to_pack_takes_the_stable_sort(monkeypatch):
    keys = np.array([2.0, np.nan, -0.0, 1.0, 0.0, np.nan, 2.0, 1.0])
    sorts = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        sorts.append(kwargs.get("kind"))
        return real(a, *args, **kwargs)

    # 8 keys need 3 position bits: 6 word bits still pack rank and
    # position, 5 do not
    monkeypatch.setattr(np, "argsort", spy)
    for word_bits, path in ((6, None), (5, "stable")):
        monkeypatch.setattr(kernels, "_WORD_BITS", word_bits)
        sorts.clear()
        assert_same(stable_argsort(keys), real(keys, kind="stable"))
        assert sorts == [path]


def test_partition_from_home_rejects_a_home_outside_the_machine():
    with pytest.raises(ValueError, match=r"processor id 4 out of range \[0, 4\)"):
        partition_from_home(np.array([0, 4, 1]), 4, "almost_owner")


# ----------------------------------------------------------------------
# sorted unique + inverse
# ----------------------------------------------------------------------
@given(
    st.sampled_from([np.int32, np.int64]),
    st.integers(0, 800),
    st.sampled_from([1, 7, 1000, 2**31 - 1]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_sorted_unique_inverse_matches_np_unique(dtype, n, key_range, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_range, size=n).astype(dtype)
    uniq, inverse = sorted_unique_inverse(keys)
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    assert_same(uniq, want_uniq)
    assert_same(inverse, want_inverse.astype(np.int64))
    np.testing.assert_array_equal(uniq[inverse], keys)


def _packs(keys):
    """Whether ``keys`` take the packed one-sort path (np.unique is not
    consulted) or fall back to np.unique."""
    real = np.unique
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    np.unique = spy
    try:
        got = sorted_unique_inverse(keys)
    finally:
        np.unique = real
    want = real(keys, return_inverse=True)
    assert_same(got[0], want[0])
    assert_same(got[1], want[1].astype(np.int64))
    return not calls


def test_sorted_unique_inverse_width_guard_both_sides():
    # 5 keys need 3 position bits: a 59-bit key still packs into 62 bits
    # beside them, a 60-bit key does not and must not overflow silently
    tail = [3, 3, 0, 9]
    assert _packs(np.array([2**59 - 1] + tail, dtype=np.int64))
    assert not _packs(np.array([2**59] + tail, dtype=np.int64))
    assert not _packs(np.array([2**63 - 1, 2**63 - 1, 5], dtype=np.int64))
    # the position width counts too: the same 59-bit key stops packing
    # once the stream needs a fourth position bit
    assert not _packs(np.array([2**59 - 1] + tail * 2, dtype=np.int64))


def test_sorted_unique_inverse_negative_keys_take_np_unique():
    assert _packs(np.array([4, 0, 4, 1], dtype=np.int64))
    assert not _packs(np.array([4, -1, 4, 1], dtype=np.int64))
    assert not _packs(np.array([-(2**20), 7, -(2**20)], dtype=np.int32))


# ----------------------------------------------------------------------
# pair histograms
# ----------------------------------------------------------------------
@given(
    st.sampled_from([1, 2, 5, 64]),
    st.integers(0, 500),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_pair_counts_matches_add_at(n, size, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=size)
    b = rng.integers(0, n, size=size)
    assert_same(pair_counts(a, b, n), add_at_counts(a, b, n))


@pytest.mark.parametrize(
    "a, b, bad",
    [
        ([0, 4, 1], [0, 1, 2], 4),
        ([0, 1, 2], [3, -1, 0], -1),
        # a * n + b lands inside the matrix: only a range check sees it
        ([0, 0], [1, 5], 5),
        ([1, -1], [0, 4], -1),
    ],
)
def test_pair_counts_rejects_ids_outside_the_machine(a, b, bad):
    with pytest.raises(ValueError, match=rf"processor id {bad} out of range \[0, 4\)"):
        pair_counts(np.array(a), np.array(b), 4)


def test_pair_counts_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="matching shapes"):
        pair_counts(np.array([0, 1]), np.array([0]), 2)


def test_paged_table_charging_leaves_the_reference_stream_alone():
    # strip_counts builds its histogram key in place -- on its own
    # page-owner array, never on the caller's references
    rng = np.random.default_rng(4)
    n_procs, size = 8, 90
    m = Machine(n_procs)
    table = DistributedTranslationTable(
        m, IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)
    )
    sizes = rng.integers(0, 30, size=n_procs)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    values = rng.integers(0, size, size=int(sizes.sum()))
    kept = values.copy()
    table.dereference_flat(values, bounds)
    np.testing.assert_array_equal(values, kept)


# ----------------------------------------------------------------------
# end to end: a remap campaign, pinned to the pre-kernel values
# ----------------------------------------------------------------------
EXCHANGE_VECTORS = (
    "src", "dst", "nbytes", "clock_add", "mem_add", "messages_sent",
    "bytes_sent", "messages_received", "bytes_received", "msg_time",
)  # fmt: skip
COMPUTE_VECTORS = ("dt", "flops", "iops", "mem")

#: recorded at the parent commit (k^2 vote, composite-key sorts,
#: searchsorted inverse, np.add.at histograms) by this file's own
#: ``campaign_fingerprint``; the translation cache must not change any
#: of them, it only adds the tape
PARENT_FINGERPRINTS = {
    8: {
        "moves": [187, 60, 206],
        "elapsed": "1.95916715",
        "counters": "15356557d0b73eb7",
        "product": "3d712f73b8120cdc",
        "y": "c1d44f4b2b5844c0",
        "tape": "53fb81acf9c40bb6",
    },
    512: {
        "moves": [284, 74, 289],
        "elapsed": "0.8237341153273818",
        "counters": "c3bc3d8c4e2c770a",
        "product": "dda4c97ee8b1a42f",
        "y": "fd89e8a34a6da14a",
        "tape": "d3b9ec21208558b0",
    },
}


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def product_parts(product):
    part = product.iteration_partition
    yield part.flat
    yield part.bounds
    for key in sorted(product.patterns, key=repr):
        loc = product.patterns[key].localized
        yield key
        yield loc.local_sizes
        yield from (loc.refs_flat, loc.ref_bounds, loc.slots.keys, loc.slots.slot_bounds)
        yield from entries(loc.schedule)


def tape_parts(cache):
    """Every vector of every planned charge on every live cache entry's
    tape, in slot insertion order."""
    for slot, (_version, entry) in cache._slots.items():
        yield slot[0]
        for method, args in entry.charges.tape:
            yield method
            for arg in args:
                if isinstance(arg, ExchangeCharge):
                    yield from (getattr(arg, f) for f in EXCHANGE_VECTORS)
                elif isinstance(arg, ComputeCharge):
                    yield from (getattr(arg, f) for f in COMPUTE_VECTORS)
                else:
                    yield arg


def campaign_fingerprint(n_procs: int, translation_cache: str) -> dict:
    mesh = generate_mesh(3000, seed=5)
    machine, prog, moves = run_rebalance_campaign(
        mesh, n_procs, epochs=3, seed=2, translation_cache=translation_cache
    )
    (record,) = prog.records.values()
    return {
        "moves": moves,
        "elapsed": repr(machine.elapsed()),
        "counters": digest(getattr(machine.counters, f) for f in COUNTER_FIELDS),
        "product": digest(product_parts(record.product)),
        "y": digest([prog.arrays["y"].to_global()]),
        "tape": (
            digest(tape_parts(prog.translation_cache))
            if translation_cache == "on"
            else None
        ),
    }


@pytest.mark.parametrize("translation_cache", ["on", "off"])
@pytest.mark.parametrize("n_procs", [8, 512])
def test_remap_campaign_identical_to_parent_commit(n_procs, translation_cache):
    want = dict(PARENT_FINGERPRINTS[n_procs])
    if translation_cache == "off":
        want["tape"] = None
    assert campaign_fingerprint(n_procs, translation_cache) == want
