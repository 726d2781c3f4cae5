"""Tests for loop-iteration partitioning."""

import numpy as np
import pytest

from repro.core import ArrayRef, Assign, ForallLoop, Reduce, partition_iterations
from repro.core.iteration import owner_rows
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


def setup_arrays(m, n_data=8, n_iter=8, ia=None, ib=None):
    arrays = {
        "x": DistArray.from_global(
            m, BlockDistribution(n_data, 4), np.arange(float(n_data))
        ),
        "y": DistArray.from_global(
            m, BlockDistribution(n_data, 4), np.zeros(n_data)
        ),
    }
    if ia is not None:
        arrays["ia"] = DistArray.from_global(
            m, BlockDistribution(n_iter, 4), np.asarray(ia, dtype=np.int64)
        )
    if ib is not None:
        arrays["ib"] = DistArray.from_global(
            m, BlockDistribution(n_iter, 4), np.asarray(ib, dtype=np.int64)
        )
    return arrays


class TestAlmostOwner:
    def test_majority_vote(self, m4):
        # all three refs of iteration i point at elements owned by proc 3
        ia = [6] * 8  # owner 3 under block(8, 4)
        ib = [7] * 8
        arrays = setup_arrays(m4, ia=ia, ib=ib)
        loop = ForallLoop(
            "L",
            8,
            [
                Reduce(
                    "add",
                    ArrayRef("y", "ia"),
                    lambda a: a,
                    (ArrayRef("x", "ib"),),
                )
            ],
        )
        part = partition_iterations(m4, loop, arrays)
        assert part.counts() == [0, 0, 0, 8]

    def test_tie_goes_to_lowest_processor(self, m4):
        # iteration refs split evenly between procs 0 and 3
        ia = [0] * 8  # proc 0
        ib = [7] * 8  # proc 3
        arrays = setup_arrays(m4, ia=ia, ib=ib)
        loop = ForallLoop(
            "L",
            8,
            [Assign(ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ib"),))],
        )
        part = partition_iterations(m4, loop, arrays)
        assert part.counts()[0] == 8

    def test_all_iterations_covered_exactly_once(self, m4):
        rng = np.random.default_rng(3)
        ia = rng.integers(0, 8, size=8)
        ib = rng.integers(0, 8, size=8)
        arrays = setup_arrays(m4, ia=ia, ib=ib)
        loop = ForallLoop(
            "L",
            8,
            [Assign(ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ib"),))],
        )
        part = partition_iterations(m4, loop, arrays)
        assert sorted(part.flat.tolist()) == list(range(8))
        assert part.owner_of().size == 8

    def test_direct_refs_follow_data_distribution(self, m4):
        arrays = setup_arrays(m4)
        loop = ForallLoop(
            "L", 8, [Assign(ArrayRef("y"), lambda a: a * 2, (ArrayRef("x"),))]
        )
        part = partition_iterations(m4, loop, arrays)
        # direct references: iteration i lives with element i
        assert part.counts() == [2, 2, 2, 2]


class TestOwnerComputes:
    def test_follows_lhs_owner(self, m4):
        ia = [1] * 8  # proc 0 owns element 1
        ib = [7] * 8
        arrays = setup_arrays(m4, ia=ia, ib=ib)
        loop = ForallLoop(
            "L",
            8,
            [Assign(ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ib"),))],
        )
        part = partition_iterations(m4, loop, arrays, method="owner_computes")
        assert part.counts()[0] == 8

    def test_unknown_method(self, m4):
        arrays = setup_arrays(m4)
        loop = ForallLoop(
            "L", 8, [Assign(ArrayRef("y"), lambda a: a, (ArrayRef("x"),))]
        )
        with pytest.raises(ValueError, match="unknown iteration"):
            partition_iterations(m4, loop, arrays, method="greedy")


class TestCostsAndEdgeCases:
    def test_charges_machine(self, m4):
        arrays = setup_arrays(m4, ia=[0] * 8, ib=[7] * 8)
        loop = ForallLoop(
            "L", 8, [Assign(ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ib"),))]
        )
        partition_iterations(m4, loop, arrays)
        assert m4.elapsed() > 0

    def test_zero_iterations(self, m4):
        arrays = setup_arrays(m4)
        loop = ForallLoop(
            "L", 0, [Assign(ArrayRef("y"), lambda a: a, (ArrayRef("x"),))]
        )
        # zero-length loops still need a valid (empty) partition
        loop.n_iterations = 0
        part = partition_iterations(m4, loop, arrays)
        assert part.counts() == [0, 0, 0, 0]

    def test_size_mismatch_detected(self, m4):
        arrays = setup_arrays(m4, ia=[0] * 8)
        loop = ForallLoop(
            "L", 5, [Assign(ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x"),))]
        )
        with pytest.raises(ValueError, match="iterates 5"):
            partition_iterations(m4, loop, arrays)

    def test_irregular_data_distribution(self, m4):
        owners = np.array([3, 3, 3, 3, 0, 0, 0, 0])
        arrays = {
            "x": DistArray.from_global(
                m4, IrregularDistribution(owners, 4), np.arange(8.0)
            ),
            "y": DistArray.from_global(
                m4, IrregularDistribution(owners, 4), np.zeros(8)
            ),
            "ia": DistArray.from_global(
                m4, BlockDistribution(8, 4), np.arange(8, dtype=np.int64)
            ),
        }
        loop = ForallLoop(
            "L",
            8,
            [Reduce("add", ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ia"),))],
        )
        part = partition_iterations(m4, loop, arrays)
        # iterations follow the irregular owners of their targets
        assert part.counts() == [4, 0, 0, 4]


class TestOwnerRows:
    """One row per distinct (distribution, indirection) source: the row
    *object* is shared, because ``majority_owner`` weights by identity."""

    def rows(self, m4, at=None):
        arrays = setup_arrays(m4, ia=[0, 7, 2, 5, 1, 6, 3, 4], ib=[7] * 8)
        # z holds the same elements under a different layout
        arrays["z"] = DistArray.from_global(
            m4, IrregularDistribution([3, 3, 2, 2, 1, 1, 0, 0], 4), np.zeros(8)
        )
        refs = [
            ArrayRef("x", "ia"),
            ArrayRef("y", "ia"),
            ArrayRef("x", "ib"),
            ArrayRef("z", "ia"),
            ArrayRef("x"),
            ArrayRef("y"),
            ArrayRef("z"),
        ]
        loop = ForallLoop("L", 8, [Assign(refs[1], lambda *a: a[0], tuple(refs))])
        return arrays, refs, owner_rows(loop, arrays, refs, at=at)

    def test_same_source_same_object_otherwise_distinct(self, m4):
        _, _, (x_ia, y_ia, x_ib, z_ia, x_i, y_i, z_i) = self.rows(m4)
        assert x_ia is y_ia and x_i is y_i
        distinct = [x_ia, x_ib, z_ia, x_i, z_i]
        assert len({id(r) for r in distinct}) == len(distinct)

    def test_rows_are_the_owners_of_the_targets(self, m4):
        arrays, refs, rows = self.rows(m4)
        for ref, row in zip(refs, rows):
            targets = (
                np.arange(8) if ref.index is None else arrays[ref.index].to_global()
            )
            assert np.array_equal(row, arrays[ref.array].distribution.owner(targets))

    def test_at_restricts_every_row_to_those_iterations(self, m4):
        at = np.array([1, 4, 6])
        _, _, full = self.rows(m4)
        _, _, some = self.rows(m4, at=at)
        assert some[0] is some[1] and some[4] is some[5]
        for row, sub in zip(full, some):
            assert np.array_equal(sub, row[at])
