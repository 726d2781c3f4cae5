"""Flat-backed DistArray vs the historical per-processor-list semantics.

The seed ``DistArray`` kept one ndarray per virtual processor; PR 3
replaced that with one contiguous backing array plus CSR offsets and a
content-version counter.  These tests keep the old list implementation
as a reference oracle and check, over randomized distributions, that the
flat form is observably identical across ``from_global`` / ``rebind`` /
remap / localize / executor round-trips — and that the version counter
invalidates the cached global view on *every* mutation path, including
writes through retained ``local(p)`` views.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.chaos.localize import FlatRefs, localize
from repro.chaos.remap import build_remap_schedule
from repro.chaos.ttable import build_translation_table
from repro.core import ArrayRef, ForallLoop, Reduce, run_executor, run_inspector
from repro.distribution import (
    BlockDistribution,
    CyclicDistribution,
    DistArray,
    IrregularDistribution,
)
from repro.machine.machine import Machine
from tests.chaos.pairs import ghost_regions, segment


# ----------------------------------------------------------------------
# reference oracle: the seed's per-processor-list implementation
# ----------------------------------------------------------------------
class ListDistArray:
    """Historical DistArray semantics: one ndarray per processor."""

    def __init__(self, machine, distribution, values):
        values = np.asarray(values)
        self.machine = machine
        self.distribution = distribution
        self.dtype = values.dtype
        self._local = [
            np.ascontiguousarray(values[distribution.local_indices(p)])
            for p in range(machine.n_procs)
        ]

    def local(self, p):
        return self._local[p]

    def to_global(self):
        out = np.empty(self.distribution.size, dtype=self.dtype)
        for p in range(self.machine.n_procs):
            out[self.distribution.local_indices(p)] = self._local[p]
        return out

    def global_get(self, gidx):
        g = np.asarray(gidx, dtype=np.int64)
        owners = np.asarray(self.distribution.owner(g))
        lidx = np.asarray(self.distribution.local_index(g))
        out = np.empty(g.shape, dtype=self.dtype)
        for p in np.unique(owners):
            sel = owners == p
            out[sel] = self._local[int(p)][lidx[sel]]
        return out

    def global_set(self, gidx, values):
        g = np.asarray(gidx, dtype=np.int64)
        vals = np.broadcast_to(np.asarray(values, dtype=self.dtype), g.shape)
        owners = np.asarray(self.distribution.owner(g))
        lidx = np.asarray(self.distribution.local_index(g))
        for p in np.unique(owners):
            sel = owners == p
            self._local[int(p)][lidx[sel]] = vals[sel]

    def rebind(self, distribution, new_locals):
        self.distribution = distribution
        self._local = [
            np.ascontiguousarray(seg, dtype=self.dtype) for seg in new_locals
        ]


def random_dist(rng, size, n_procs):
    kind = rng.choice(["block", "cyclic", "irregular"])
    if kind == "block":
        return BlockDistribution(size, n_procs)
    if kind == "cyclic":
        return CyclicDistribution(size, n_procs)
    return IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)


def assert_same_state(flat: DistArray, ref: ListDistArray):
    for p in range(flat.machine.n_procs):
        np.testing.assert_array_equal(flat.local(p), ref.local(p))
    np.testing.assert_array_equal(flat.to_global(), ref.to_global())


# ----------------------------------------------------------------------
# randomized oracle equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_from_global_and_accessors_match_list_oracle(seed):
    rng = np.random.default_rng(seed)
    n_procs = int(rng.choice([1, 2, 4, 8]))
    size = int(rng.integers(0, 40))
    dist = random_dist(rng, size, n_procs)
    vals = rng.normal(size=size)
    m = Machine(n_procs)
    flat = DistArray.from_global(m, dist, vals)
    ref = ListDistArray(m, dist, vals)
    assert_same_state(flat, ref)
    if size:
        g = rng.integers(0, size, size=int(rng.integers(1, 20)))
        np.testing.assert_array_equal(flat.global_get(g), ref.global_get(g))
        wv = rng.normal(size=g.size)
        flat.global_set(g, wv)
        ref.global_set(g, wv)
        assert_same_state(flat, ref)


@pytest.mark.parametrize("seed", range(6))
def test_rebind_and_remap_match_list_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n_procs = int(rng.choice([2, 4, 8]))
    size = int(rng.integers(1, 60))
    old = random_dist(rng, size, n_procs)
    new = random_dist(rng, size, n_procs)
    vals = rng.normal(size=size)
    m = Machine(n_procs)
    flat = DistArray.from_global(m, old, vals)
    ref = ListDistArray(m, old, vals)

    # explicit rebind: the oracle takes per-processor segments (the
    # list-era API), the runtime their concatenation
    segs = [vals[new.local_indices(p)] for p in range(n_procs)]
    flat.rebind_flat(new, np.concatenate(segs))
    ref.rebind(new, segs)
    assert_same_state(flat, ref)
    np.testing.assert_array_equal(flat.to_global(), vals)

    # full remap back through the CHAOS schedule
    sched = build_remap_schedule(m, new, old)
    sched.apply(flat)
    ref.rebind(old, [vals[old.local_indices(p)] for p in range(n_procs)])
    assert_same_state(flat, ref)


@pytest.mark.parametrize("seed", range(4))
def test_localize_round_trip_matches_list_oracle(seed):
    """Localized refs + gathered ghosts reconstruct the referenced values."""
    rng = np.random.default_rng(200 + seed)
    n_procs = int(rng.choice([2, 4]))
    size = int(rng.integers(4, 40))
    dist = random_dist(rng, size, n_procs)
    vals = rng.normal(size=size)
    m = Machine(n_procs)
    arr = DistArray.from_global(m, dist, vals)
    ref = ListDistArray(m, dist, vals)

    ref_lists = [
        rng.integers(0, size, size=int(rng.integers(0, 15)))
        for _ in range(n_procs)
    ]
    tt = build_translation_table(m, dist)
    res = localize(m, tt, FlatRefs.from_lists(ref_lists))
    ghosts = np.zeros(res.schedule.ghost_total(), dtype=arr.dtype)
    res.schedule.gather(arr, ghosts)
    for p, region in enumerate(ghost_regions(res.schedule, ghosts)):
        combined = np.concatenate([ref.local(p), region])
        np.testing.assert_array_equal(
            combined[segment(res.refs_flat, res.ref_bounds, p)], vals[ref_lists[p]]
        )


@pytest.mark.parametrize("seed", range(3))
def test_executor_round_trip_matches_sequential(seed):
    """L2-style edge sweep through inspector+executor == sequential NumPy."""
    rng = np.random.default_rng(300 + seed)
    n_procs = int(rng.choice([2, 4]))
    n_data = int(rng.integers(8, 24))
    n_iter = int(rng.integers(8, 30))
    m = Machine(n_procs)
    dist = random_dist(rng, n_data, n_procs)
    idist = BlockDistribution(n_iter, n_procs)
    arrays = {
        "x": DistArray.from_global(m, dist, rng.normal(size=n_data), name="x"),
        "y": DistArray.from_global(m, dist, rng.normal(size=n_data), name="y"),
        "ia": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ia"
        ),
        "ib": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ib"
        ),
    }
    x1, x2 = ArrayRef("x", "ia"), ArrayRef("x", "ib")
    loop = ForallLoop(
        "L2",
        n_iter,
        [
            Reduce("add", ArrayRef("y", "ia"), lambda a, b: a * b, (x1, x2), flops=2),
            Reduce("add", ArrayRef("y", "ib"), lambda a, b: a - b, (x1, x2), flops=2),
        ],
    )
    x = arrays["x"].to_global()
    want = arrays["y"].to_global()
    ia = arrays["ia"].to_global()
    ib = arrays["ib"].to_global()
    np.add.at(want, ia, x[ia] * x[ib])
    np.add.at(want, ib, x[ia] - x[ib])

    product = run_inspector(m, loop, arrays)
    run_executor(m, product, arrays)
    np.testing.assert_allclose(arrays["y"].to_global(), want)


# ----------------------------------------------------------------------
# version counter / cached global view invalidation
# ----------------------------------------------------------------------
@pytest.fixture
def m4():
    return Machine(4)


def make_arr(m, kind="cyclic"):
    dist = (
        CyclicDistribution(12, 4)
        if kind == "cyclic"
        else BlockDistribution(12, 4)
    )
    return DistArray.from_global(m, dist, np.arange(12.0))


class TestGlobalViewCache:
    def test_reads_do_not_bump_and_cache_is_reused(self, m4):
        arr = make_arr(m4)
        v0 = arr.version
        gv = arr.global_view()
        assert arr.global_view() is gv  # cache hit, same object
        arr.to_global()
        arr.global_get([3, 5])
        arr.backing_ro
        assert arr.version == v0
        assert arr.global_view() is gv

    def test_global_view_is_read_only_and_to_global_is_writable(self, m4):
        arr = make_arr(m4)
        gv = arr.global_view()
        with pytest.raises((ValueError, RuntimeError)):
            gv[0] = 99.0
        g = arr.to_global()
        g[0] = 99.0  # fresh copy, must be writable
        assert arr.global_view()[0] != 99.0

    def test_backing_ro_rejects_writes(self, m4):
        arr = make_arr(m4)
        with pytest.raises((ValueError, RuntimeError)):
            arr.backing_ro[0] = 1.0

    def test_global_set_invalidates(self, m4):
        arr = make_arr(m4)
        gv = arr.global_view()
        v0 = arr.version
        arr.global_set([7], [99.0])
        assert arr.version > v0
        assert arr.global_view() is not gv
        assert arr.to_global()[7] == 99.0

    def test_set_global_invalidates(self, m4):
        arr = make_arr(m4)
        arr.global_view()
        v0 = arr.version
        arr.set_global(np.full(12, 5.0))
        assert arr.version > v0
        assert arr.to_global().tolist() == [5.0] * 12

    def test_rebind_invalidates(self, m4):
        arr = make_arr(m4)
        vals = arr.to_global()
        v0 = arr.version
        new = BlockDistribution(12, 4)
        arr.rebind_flat(
            new, np.concatenate([vals[new.local_indices(p)] for p in range(4)])
        )
        assert arr.version > v0
        np.testing.assert_array_equal(arr.to_global(), vals)

    def test_remap_apply_invalidates(self, m4):
        arr = make_arr(m4)
        vals = arr.to_global()
        arr.global_view()
        v0 = arr.version
        sched = build_remap_schedule(m4, arr.distribution, BlockDistribution(12, 4))
        sched.apply(arr)
        assert arr.version > v0
        np.testing.assert_array_equal(arr.to_global(), vals)

    def test_backing_mut_invalidates(self, m4):
        arr = make_arr(m4)
        arr.global_view()
        v0 = arr.version
        data = arr.backing_mut()
        data[:] = 0.0
        assert arr.version > v0
        assert arr.to_global().tolist() == [0.0] * 12

    @pytest.mark.parametrize("kind", ["cyclic", "block"])
    def test_write_releases_the_superseded_view(self, m4, kind):
        arr = make_arr(m4, kind)
        gv = arr.global_view()
        assert arr.global_view() is gv  # no write between: the same object
        gone = weakref.ref(gv)
        arr.global_set([4], [-1.0])
        # the caller still holds the old view: it is intact, and stale
        assert gv[4] == 4.0 and gone() is gv
        fresh = arr.global_view()
        assert fresh is not gv and fresh[4] == -1.0
        assert arr.global_view() is fresh
        del gv
        gc.collect()
        assert gone() is None  # the array kept no reference to it

    def test_view_write_drops_the_cached_view(self, m4):
        arr = make_arr(m4)
        gone = weakref.ref(arr.global_view())
        arr.local(2)[0] = 50.0  # the write barrier bumps the version
        gc.collect()
        assert gone() is None
        assert 50.0 in arr.global_view()


class TestLocalViewWriteBarrier:
    def test_indexed_assignment_bumps(self, m4):
        arr = make_arr(m4)
        v0 = arr.version
        arr.local(0)[:] = 5.0
        assert arr.version > v0
        assert arr.to_global()[0] == 5.0  # cyclic: proc 0 owns g=0

    def test_retained_view_written_after_cache_fill(self, m4):
        arr = make_arr(m4)
        view = arr.local(1)
        before = arr.to_global()  # fills the cache *after* view handout
        view[0] = 123.0  # write through the retained view
        after = arr.to_global()
        assert after[1] == 123.0  # cyclic: proc 1, offset 0 -> g=1
        assert before[1] != 123.0

    def test_derived_view_write_bumps(self, m4):
        arr = make_arr(m4)
        arr.global_view()
        v0 = arr.version
        arr.local(0)[1:3][0] = 77.0
        assert arr.version > v0
        assert arr.to_global()[4] == 77.0  # cyclic: proc 0, offset 1 -> g=4

    def test_inplace_operator_bumps(self, m4):
        arr = make_arr(m4)
        view = arr.local(2)
        arr.global_view()
        v0 = arr.version
        view += 1.0
        assert arr.version > v0
        assert arr.to_global()[2] == 3.0  # g=2 held 2.0

    def test_ufunc_out_bumps(self, m4):
        arr = make_arr(m4)
        view = arr.local(0)
        v0 = arr.version
        np.negative(view, out=view)
        assert arr.version > v0
        assert arr.to_global()[4] == -4.0

    def test_ufunc_at_bumps(self, m4):
        arr = make_arr(m4)
        view = arr.local(3)
        arr.global_view()
        v0 = arr.version
        np.add.at(view, [0, 0], 10.0)
        assert arr.version > v0
        assert arr.to_global()[3] == 23.0  # g=3 held 3.0, +10 twice

    def test_reads_through_views_do_not_bump(self, m4):
        arr = make_arr(m4)
        view = arr.local(0)
        v0 = arr.version
        _ = view + 1.0
        _ = view.sum()
        _ = view[1:]
        _ = np.asarray(view)
        assert arr.version == v0


class TestExecutorInvalidation:
    def test_executor_write_invalidates_target_only(self, m4):
        rng = np.random.default_rng(7)
        dist = BlockDistribution(16, 4)
        idist = BlockDistribution(16, 4)
        arrays = {
            "x": DistArray.from_global(m4, dist, rng.normal(size=16), name="x"),
            "y": DistArray.from_global(m4, dist, np.zeros(16), name="y"),
            "ia": DistArray.from_global(
                m4, idist, rng.permutation(16), name="ia"
            ),
        }
        loop = ForallLoop(
            "L1",
            16,
            [
                Reduce(
                    "add",
                    ArrayRef("y", "ia"),
                    lambda a: 2.0 * a,
                    (ArrayRef("x", "ia"),),
                    flops=1,
                )
            ],
        )
        product = run_inspector(m4, loop, arrays)
        y_before = arrays["y"].version
        ia_view = arrays["ia"].global_view()
        run_executor(m4, product, arrays)
        assert arrays["y"].version > y_before
        # indirection array was only read: its cached view must survive
        assert arrays["ia"].global_view() is ia_view
        x = arrays["x"].to_global()
        ia = arrays["ia"].to_global()
        want = np.zeros(16)
        np.add.at(want, ia, 2.0 * x[ia])
        np.testing.assert_allclose(arrays["y"].to_global(), want)
