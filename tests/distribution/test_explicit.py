"""ExplicitDistribution and stable repartitioning."""

import numpy as np
import pytest

from repro.distribution import (
    BlockDistribution,
    ExplicitDistribution,
    IrregularDistribution,
    repartition_stable,
)


class TestExplicitDistribution:
    def test_round_trip_matches_maps(self):
        owners = np.array([1, 0, 1, 2, 0, 2, 1])
        local = np.array([0, 1, 2, 0, 0, 1, 1])
        d = ExplicitDistribution(owners, local, 3)
        g = np.arange(7)
        o, l = d.translate(g)
        assert np.array_equal(o, owners) and np.array_equal(l, local)
        for p in range(3):
            li = np.arange(d.local_size(p))
            back = d.global_index(p, li)
            assert np.array_equal(d.owner(back), np.full(back.size, p))
            assert np.array_equal(d.local_index(back), li)

    def test_matches_irregular_when_layout_agrees(self):
        rng = np.random.default_rng(1)
        owners = rng.integers(0, 4, size=40)
        irr = IrregularDistribution(owners, 4)
        g = np.arange(40)
        exp = ExplicitDistribution(owners, irr.local_index(g), 4)
        assert np.array_equal(exp.global_perm(), irr.global_perm())
        assert np.array_equal(exp.flat_offsets(), irr.flat_offsets())

    def test_rejects_sparse_offsets(self):
        # offset 1 on proc 0 is skipped -> not dense
        with pytest.raises(ValueError, match="out of range"):
            ExplicitDistribution([0, 0], [0, 2], 2)

    def test_rejects_duplicate_offsets(self):
        with pytest.raises(ValueError, match="assigned twice"):
            ExplicitDistribution([0, 0, 1], [0, 0, 0], 2)

    def test_rejects_owner_out_of_range(self):
        with pytest.raises(ValueError, match="owner map entry"):
            ExplicitDistribution([0, 3], [0, 0], 2)

    def test_signature_changes_with_layout(self):
        a = ExplicitDistribution([0, 1], [0, 0], 2)
        b = ExplicitDistribution([1, 0], [0, 0], 2)
        c = ExplicitDistribution([0, 1], [0, 0], 2)
        assert a.signature() != b.signature()
        assert a.signature() == c.signature()


class TestRepartitionStable:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.owners = rng.integers(0, 4, size=60)
        self.dist = IrregularDistribution(self.owners, 4)
        self.g = np.arange(60)

    def test_untouched_elements_keep_owner_and_offset(self):
        rng = np.random.default_rng(8)
        move_g = rng.choice(60, size=14, replace=False)
        move_to = rng.integers(0, 4, size=14)
        new, plan = repartition_stable(self.dist, move_g, move_to)
        touched = np.zeros(60, dtype=bool)
        touched[plan.moved] = True
        touched[plan.repacked] = True
        keep = ~touched
        assert np.array_equal(new.owner(self.g)[keep], self.owners[keep])
        assert np.array_equal(
            new.local_index(self.g)[keep], self.dist.local_index(self.g)[keep]
        )

    def test_moved_and_repacked_are_disjoint_and_correct(self):
        rng = np.random.default_rng(9)
        move_g = rng.choice(60, size=20, replace=False)
        move_to = rng.integers(0, 4, size=20)
        new, plan = repartition_stable(self.dist, move_g, move_to)
        assert not np.intersect1d(plan.moved, plan.repacked).size
        assert (new.owner(plan.moved) != self.dist.owner(plan.moved)).all()
        assert (new.owner(plan.repacked) == self.dist.owner(plan.repacked)).all()
        assert (
            new.local_index(plan.repacked) != self.dist.local_index(plan.repacked)
        ).all()

    def test_noop_moves_are_dropped(self):
        move_g = np.array([3, 5])
        move_to = self.owners[move_g]  # already there
        new, plan = repartition_stable(self.dist, move_g, move_to)
        assert plan.moved.size == 0 and plan.repacked.size == 0
        assert np.array_equal(new.owner(self.g), self.owners)
        assert np.array_equal(
            new.local_index(self.g), self.dist.local_index(self.g)
        )

    def test_growth_fills_holes_then_appends(self):
        # drain proc 0 partially into proc 1: proc 1 has no holes, all
        # arrivals append past its old size in gidx order
        mine = np.flatnonzero(self.owners == 0)[:3]
        new, plan = repartition_stable(self.dist, mine, np.full(3, 1))
        old_size1 = self.dist.local_size(1)
        got = np.sort(new.local_index(mine))
        assert np.array_equal(got, old_size1 + np.arange(3))

    def test_shrink_compacts_tail_into_holes(self):
        # move proc 2's lowest-offset elements away: survivors from the
        # tail must slide down so offsets stay dense
        mine = self.dist.global_index(2, np.arange(3))  # offsets 0,1,2
        new, plan = repartition_stable(self.dist, mine, np.full(3, 3))
        assert plan.repacked.size == 3
        ns = new.local_size(2)
        li = np.sort(new.local_index(self.dist.local_indices(2)[3:]))
        assert np.array_equal(li, np.arange(ns)[np.isin(np.arange(ns), li)])
        # density was already verified by the constructor; spot-check
        assert ns == self.dist.local_size(2) - 3

    def test_works_from_regular_distribution(self):
        d = BlockDistribution(12, 4)
        new, plan = repartition_stable(d, [0, 1], [3, 3])
        assert new.local_size(0) == 1 and new.local_size(3) == 5
        assert plan.moved.size == 2

    def test_rejects_duplicate_moves(self):
        with pytest.raises(ValueError, match="duplicate"):
            repartition_stable(self.dist, [1, 1], [0, 1])

    def test_duplicate_check_and_affected_set_need_no_np_unique(self, monkeypatch):
        # NumPy >= 2.3 hashes in np.unique (slow on the sorted move lists
        # a balancer emits): both uses go through kernels.sorted_unique
        rng = np.random.default_rng(12)
        move_g = rng.choice(60, size=20, replace=False)  # unsorted
        move_to = rng.integers(0, 4, size=20)
        want, want_plan = repartition_stable(self.dist, np.sort(move_g), move_to[np.argsort(move_g)])

        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called by repartition_stable")

        monkeypatch.setattr(np, "unique", forbidden)
        got, plan = repartition_stable(self.dist, move_g, move_to)
        assert got.signature() == want.signature()
        assert np.array_equal(plan.moved, want_plan.moved)
        assert np.array_equal(plan.repacked, want_plan.repacked)
        with pytest.raises(ValueError, match="duplicate"):
            repartition_stable(self.dist, [5, 9, 5], [0, 1, 2])  # not adjacent

    def test_rejects_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            repartition_stable(self.dist, [1], [4])

    def test_chained_repartitions_stay_dense(self):
        dist = self.dist
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = int(rng.integers(1, 10))
            mg = rng.choice(60, size=k, replace=False)
            mt = rng.integers(0, 4, size=k)
            dist, _ = repartition_stable(dist, mg, mt)
        # constructor validates density/bijectivity on every step; the
        # layout is still a permutation of all 60 elements
        assert int(dist.local_sizes().sum()) == 60
