"""Tests for localize + communication schedules (the inspector core)."""

import numpy as np
import pytest

from repro.chaos import REDUCTION_OPS, build_translation_table, localize
from repro.core import ArrayRef, Reduce
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine
from tests.chaos.pairs import ghost_regions, segment


@pytest.fixture
def m4():
    return Machine(4)


def make_setup(m, dist, ref_lists, values=None):
    """Localize ref_lists against dist; return (arr, result, ghosts), the
    ghosts a zeroed flat array in the schedule's layout."""
    tt = build_translation_table(m, dist)
    res = localize(m, tt, [np.asarray(r, dtype=np.int64) for r in ref_lists])
    if values is None:
        values = np.arange(dist.size, dtype=np.float64) * 10
    arr = DistArray.from_global(m, dist, values)
    ghosts = np.zeros(res.schedule.ghost_total(), dtype=arr.dtype)
    return arr, res, ghosts


def local_refs(res, p):
    return segment(res.refs_flat, res.ref_bounds, p)


def ghost_globals(res, p):
    return segment(res.slots.keys, res.slots.slot_bounds, p)


class TestLocalize:
    def test_on_processor_refs_stay_local(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [dist.local_indices(p) for p in range(4)]  # all owned
        arr, res, ghosts = make_setup(m4, dist, refs)
        assert res.schedule.element_count() == 0
        assert res.slots.keys.size == 0
        for p in range(4):
            assert np.all(local_refs(res, p) < res.local_sizes[p])

    def test_off_processor_refs_get_ghost_slots(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [[(2 * p + 2) % 8] for p in range(4)]  # everyone reads neighbor
        arr, res, ghosts = make_setup(m4, dist, refs)
        assert res.schedule.element_count() == 4
        for p in range(4):
            assert local_refs(res, p)[0] == res.local_sizes[p]  # first ghost slot

    def test_duplicate_refs_deduplicated(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [[7, 7, 7, 7], [], [], []]
        arr, res, ghosts = make_setup(m4, dist, refs)
        assert ghost_globals(res, 0).tolist() == [7]
        assert res.schedule.element_count() == 1
        assert np.all(local_refs(res, 0) == res.local_sizes[0])

    def test_mixed_local_and_ghost(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [[0, 1, 5], [], [], []]
        arr, res, ghosts = make_setup(m4, dist, refs)
        is_local = local_refs(res, 0) < res.local_sizes[0]
        assert is_local.tolist() == [True, True, False]

    def test_wrong_list_count(self, m4):
        dist = BlockDistribution(8, 4)
        tt = build_translation_table(m4, dist)
        with pytest.raises(ValueError, match="expected 4"):
            localize(m4, tt, [np.array([0])] * 3)

    def test_localize_charges_machine(self, m4):
        dist = BlockDistribution(8, 4)
        make_setup(m4, dist, [[5], [0], [0], [0]])
        assert m4.elapsed() > 0


class TestGather:
    def test_gather_fetches_correct_values(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [[5, 0], [7], [1], [0, 6]]
        arr, res, ghosts = make_setup(m4, dist, refs)
        res.schedule.gather(arr, ghosts)
        g = arr.to_global()
        for p in range(4):
            want = g[ghost_globals(res, p)]
            assert np.array_equal(ghost_regions(res.schedule, ghosts)[p], want)

    def test_executor_view_matches_reference(self, m4):
        """Localized indexing over [local | ghost] reproduces global reads."""
        rng = np.random.default_rng(5)
        dist = IrregularDistribution(rng.integers(0, 4, size=30), 4)
        refs = [rng.integers(0, 30, size=12) for _ in range(4)]
        arr, res, ghosts = make_setup(m4, dist, refs)
        res.schedule.gather(arr, ghosts)
        g = arr.to_global()
        for p in range(4):
            combined = np.concatenate([arr.local(p), ghost_regions(res.schedule, ghosts)[p]])
            assert np.array_equal(combined[local_refs(res, p)], g[refs[p]])

    def test_gather_charges_messages(self, m4):
        dist = BlockDistribution(8, 4)
        arr, res, ghosts = make_setup(m4, dist, [[7], [], [], []])
        before = m4.counters.messages_sent[3]
        res.schedule.gather(arr, ghosts)
        assert m4.counters.messages_sent[3] == before + 1

    def test_stale_schedule_rejected(self, m4):
        dist = BlockDistribution(8, 4)
        arr, res, ghosts = make_setup(m4, dist, [[7], [], [], []])
        # rebind the array to a different distribution
        new = IrregularDistribution([3, 2, 1, 0] * 2, 4)
        vals = arr.to_global()
        arr.rebind_flat(
            new, np.concatenate([vals[new.local_indices(p)] for p in range(4)])
        )
        with pytest.raises(ValueError, match="stale"):
            res.schedule.gather(arr, ghosts)

    def test_wrong_ghost_shape_rejected(self, m4):
        dist = BlockDistribution(8, 4)
        arr, res, _ = make_setup(m4, dist, [[7], [], [], []])
        bad = np.zeros(res.schedule.ghost_total() + 5)
        with pytest.raises(ValueError, match="flat ghost array"):
            res.schedule.gather(arr, bad)


class TestScatter:
    def test_scatter_add_accumulates(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [[7], [7], [7], []]  # three procs contribute to element 7
        arr, res, ghosts = make_setup(m4, dist, refs, values=np.zeros(8))
        for p in range(3):
            ghost_regions(res.schedule, ghosts)[p][:] = p + 1.0
        res.schedule.scatter_op(ghosts, arr, np.add)
        assert arr.to_global()[7] == pytest.approx(6.0)

    def test_scatter_overwrites(self, m4):
        dist = BlockDistribution(8, 4)
        refs = [[4], [], [], []]
        arr, res, ghosts = make_setup(m4, dist, refs, values=np.zeros(8))
        ghost_regions(res.schedule, ghosts)[0][:] = 9.0
        res.schedule.scatter(ghosts, arr)
        assert arr.to_global()[4] == 9.0

    def test_scatter_op_max(self, m4):
        dist = BlockDistribution(8, 4)  # element 3 is owned by processor 1
        refs = [[3], [], [], [3]]
        arr, res, ghosts = make_setup(m4, dist, refs, values=np.full(8, 5.0))
        ghost_regions(res.schedule, ghosts)[0][:] = 2.0
        ghost_regions(res.schedule, ghosts)[3][:] = 11.0
        res.schedule.scatter_op(ghosts, arr, REDUCTION_OPS["max"])
        assert arr.to_global()[3] == 11.0

    def test_unknown_op_rejected(self):
        # op names are validated where a REDUCE statement names one
        with pytest.raises(ValueError, match="unknown reduction"):
            Reduce("xor", ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ia"),))

    def test_non_ufunc_rejected(self, m4):
        dist = BlockDistribution(8, 4)
        arr, res, ghosts = make_setup(m4, dist, [[3], [], [], []])
        with pytest.raises(TypeError, match="ufunc"):
            res.schedule.scatter_op(ghosts, arr, sum)

    def test_gather_scatter_round_trip_identity(self, m4):
        """scatter(gather(x)) with overwrite semantics leaves x unchanged."""
        rng = np.random.default_rng(11)
        dist = IrregularDistribution(rng.integers(0, 4, size=40), 4)
        refs = [rng.integers(0, 40, size=15) for _ in range(4)]
        vals = rng.normal(size=40)
        arr, res, ghosts = make_setup(m4, dist, refs, values=vals)
        res.schedule.gather(arr, ghosts)
        res.schedule.scatter(ghosts, arr)
        assert np.allclose(arr.to_global(), vals)


class TestGhostLayout:
    def test_sizes_follow_schedule(self, m4):
        dist = BlockDistribution(8, 4)
        arr, res, ghosts = make_setup(m4, dist, [[7, 5], [], [], []])
        assert res.schedule.ghost_total() == ghosts.size == 2
        assert [r.size for r in ghost_regions(res.schedule, ghosts)] == [2, 0, 0, 0]
