"""Tests for the partition metrics."""

import numpy as np
import pytest

from repro.partitioners import edge_cut, load_imbalance


PATH = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])  # path on 5 vertices


class TestEdgeCut:
    def test_no_cut(self):
        assert edge_cut(PATH, np.zeros(5, dtype=int)) == 0

    def test_full_cut(self):
        assert edge_cut(PATH, np.array([0, 1, 0, 1, 0])) == 4

    def test_single_cut(self):
        assert edge_cut(PATH, np.array([0, 0, 0, 1, 1])) == 1

    def test_empty_edges(self):
        assert edge_cut(np.empty((2, 0), dtype=int), np.zeros(3, dtype=int)) == 0

    def test_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(2, E\)"):
            edge_cut(np.zeros((3, 1), dtype=int), np.zeros(3, dtype=int))

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            edge_cut(np.array([[0], [5]]), np.zeros(3, dtype=int))


class TestLoadImbalance:
    def test_balanced(self):
        assert load_imbalance(np.array([0, 1, 0, 1]), 2) == 1.0

    def test_skewed(self):
        assert load_imbalance(np.array([0, 0, 0, 1]), 2) == pytest.approx(1.5)

    def test_weighted(self):
        lb = load_imbalance(np.array([0, 1]), 2, weights=np.array([3.0, 1.0]))
        assert lb == pytest.approx(1.5)

    def test_empty(self):
        assert load_imbalance(np.empty(0, dtype=int), 2) == 1.0

    def test_bad_parts(self):
        with pytest.raises(ValueError, match="at least one part"):
            load_imbalance(np.array([0]), 0)
