"""Property-based tests on CHAOS invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chaos import build_translation_table, localize
from repro.chaos.remap import remap_arrays
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    DistArray,
    IrregularDistribution,
)
from repro.machine import Machine
from tests.chaos.pairs import ghost_regions, segment
from tests.chaos.schedule_oracle import entries


@st.composite
def localize_cases(draw):
    n_procs = draw(st.sampled_from([1, 2, 4, 8]))
    size = draw(st.integers(min_value=1, max_value=60))
    owners = draw(
        st.lists(
            st.integers(0, n_procs - 1), min_size=size, max_size=size
        )
    )
    n_refs = draw(st.integers(min_value=0, max_value=40))
    refs = [
        draw(st.lists(st.integers(0, size - 1), min_size=0, max_size=n_refs))
        for _ in range(n_procs)
    ]
    return n_procs, np.asarray(owners), [np.asarray(r, dtype=np.int64) for r in refs]


@given(localize_cases())
@settings(max_examples=60, deadline=None)
def test_gather_reproduces_global_reads(case):
    """The fundamental inspector/executor contract: after localize+gather,
    local indexing over [local segment | ghost buffer] equals global reads."""
    n_procs, owners, refs = case
    m = Machine(n_procs)
    dist = IrregularDistribution(owners, n_procs)
    tt = build_translation_table(m, dist)
    res = localize(m, tt, refs)
    rng = np.random.default_rng(42)
    vals = rng.normal(size=dist.size)
    arr = DistArray.from_global(m, dist, vals)
    ghosts = np.zeros(res.schedule.ghost_total(), dtype=arr.dtype)
    regions = ghost_regions(res.schedule, ghosts)
    res.schedule.gather(arr, ghosts)
    for p in range(n_procs):
        combined = np.concatenate([arr.local(p), regions[p]])
        assert np.array_equal(combined[segment(res.refs_flat, res.ref_bounds, p)], vals[refs[p]])


@given(localize_cases())
@settings(max_examples=60, deadline=None)
def test_scatter_add_matches_sequential_reduction(case):
    """scatter_add of per-iteration contributions == np.add.at globally."""
    n_procs, owners, refs = case
    m = Machine(n_procs)
    dist = IrregularDistribution(owners, n_procs)
    tt = build_translation_table(m, dist)
    res = localize(m, tt, refs)
    arr = DistArray.from_global(m, dist, np.zeros(dist.size))
    ghosts = np.zeros(res.schedule.ghost_total(), dtype=arr.dtype)
    regions = ghost_regions(res.schedule, ghosts)

    # each processor contributes 1.0 per reference, into local part or ghost
    expected = np.zeros(dist.size)
    for p in range(n_procs):
        combined = np.zeros(dist.size and (res.local_sizes[p] + regions[p].size))
        np.add.at(combined, segment(res.refs_flat, res.ref_bounds, p), 1.0)
        arr.local(p)[:] += combined[: res.local_sizes[p]]
        regions[p][:] = combined[res.local_sizes[p]:]
        np.add.at(expected, refs[p], 1.0)
    res.schedule.scatter_op(ghosts, arr, np.add)
    assert np.allclose(arr.to_global(), expected)


@st.composite
def remap_cases(draw):
    n_procs = draw(st.sampled_from([1, 2, 4]))
    size = draw(st.integers(min_value=0, max_value=50))
    kind = draw(st.sampled_from(["block", "cyclic", "irregular"]))
    if kind == "block":
        new = BlockDistribution(size, n_procs)
    elif kind == "cyclic":
        new = CyclicDistribution(size, n_procs)
    else:
        owners = draw(
            st.lists(st.integers(0, n_procs - 1), min_size=size, max_size=size)
        )
        new = IrregularDistribution(np.asarray(owners, dtype=np.int64), n_procs)
    return n_procs, size, new


@given(remap_cases())
@settings(max_examples=60, deadline=None)
def test_remap_preserves_content(case):
    n_procs, size, new = case
    m = Machine(n_procs)
    vals = np.arange(size, dtype=np.float64) * 1.5
    arr = DistArray.from_global(m, BlockDistribution(size, n_procs), vals)
    remap_arrays([arr], new)
    assert np.array_equal(arr.to_global(), vals)


@given(localize_cases())
@settings(max_examples=40, deadline=None)
def test_schedule_counters_consistent(case):
    """Ghost slots equal unique off-processor references; every recv slot
    is covered exactly once."""
    n_procs, owners, refs = case
    m = Machine(n_procs)
    dist = IrregularDistribution(owners, n_procs)
    tt = build_translation_table(m, dist)
    res = localize(m, tt, refs)
    sched = res.schedule
    _, entry_p, _, entry_recv = entries(sched)
    for p in range(n_procs):
        expected = np.unique(
            np.asarray(refs[p])[
                np.asarray(dist.owner(refs[p])) != p
            ] if len(refs[p]) else np.empty(0, dtype=np.int64)
        )
        assert sched.ghost_sizes[p] == expected.size
        slots = entry_recv[entry_p == p]
        assert sorted(slots.tolist()) == list(range(sched.ghost_sizes[p]))
