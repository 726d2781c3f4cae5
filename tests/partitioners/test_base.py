"""Tests for the partitioner interface, problem validation, and registry."""

import numpy as np
import pytest

from repro.partitioners import (
    PartitionProblem,
    PartitionResult,
    Partitioner,
    available_partitioners,
    get_partitioner,
    register_partitioner,
)
from repro.partitioners.base import _REGISTRY


class TestPartitionProblem:
    def test_minimal(self):
        p = PartitionProblem(10)
        assert p.n_edges == 0
        assert p.effective_weights().tolist() == [1.0] * 10

    def test_edges_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(2, E\)"):
            PartitionProblem(4, edges=np.zeros((3, 2), dtype=np.int64))

    def test_edge_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            PartitionProblem(4, edges=np.array([[0], [4]]))

    def test_coords_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(ndim, N\)"):
            PartitionProblem(4, coords=np.zeros(4))

    def test_coords_count_checked(self):
        with pytest.raises(ValueError, match="cover 3 vertices"):
            PartitionProblem(4, coords=np.zeros((2, 3)))

    def test_weights_shape_checked(self):
        with pytest.raises(ValueError, match="weights"):
            PartitionProblem(4, weights=np.ones(3))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PartitionProblem(2, weights=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["weights", "coords"])
    def test_non_finite_input_rejected(self, field, bad):
        # one NaN weight passes a ``min() < 0`` check and skews every RCB
        # split below it; one inf weight takes every cut it reaches
        arrays = {"weights": np.ones(8), "coords": np.zeros((3, 8))}
        arrays[field][..., 3] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PartitionProblem(8, **{field: arrays[field]})

    def test_explicit_weights_returned(self):
        p = PartitionProblem(3, weights=np.array([1.0, 2.0, 3.0]))
        assert p.effective_weights().tolist() == [1.0, 2.0, 3.0]


class TestPartitionResult:
    def test_owner_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            PartitionResult(owner_map=np.array([0, 2]), n_parts=2)

    def test_owner_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            PartitionResult(owner_map=np.zeros((2, 2), dtype=int), n_parts=2)


class TestRegistry:
    def test_builtins_present(self):
        names = available_partitioners()
        for expected in ["BLOCK", "LOAD", "RCB", "RSB"]:
            assert expected in names

    def test_case_insensitive_lookup(self):
        assert get_partitioner("rcb").name == "RCB"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            get_partitioner("METIS")

    def test_custom_registration_and_duplicate_rejection(self):
        @register_partitioner("TEST_CUSTOM")
        class Custom(Partitioner):
            def partition(self, problem, n_parts):
                self.validate(problem, n_parts)
                return PartitionResult(
                    owner_map=np.zeros(problem.n_vertices, dtype=np.int64),
                    n_parts=n_parts,
                )

        try:
            p = get_partitioner("test_custom")
            res = p.partition(PartitionProblem(5), 2)
            assert res.owner_map.tolist() == [0] * 5
            with pytest.raises(ValueError, match="already registered"):
                register_partitioner("TEST_CUSTOM")(Custom)
        finally:
            _REGISTRY.pop("TEST_CUSTOM", None)

    @pytest.mark.parametrize("name", ["RSB+KL", "TEST-CUSTOM", "2WAY", "", "A B"])
    def test_name_must_be_one_identifier(self, name):
        """``SET ... USING <name>`` reads one identifier, so a name the
        directive source could not spell is refused at registration."""
        with pytest.raises(ValueError, match="not an identifier"):
            register_partitioner(name)
        assert name.upper() not in _REGISTRY

    def test_needs_edges_enforced(self):
        with pytest.raises(ValueError, match="LINK"):
            get_partitioner("RSB").partition(PartitionProblem(5), 2)

    def test_needs_coords_enforced(self):
        with pytest.raises(ValueError, match="GEOMETRY"):
            get_partitioner("RCB").partition(PartitionProblem(5), 2)

    def test_n_parts_positive(self):
        with pytest.raises(ValueError, match="at least one part"):
            get_partitioner("BLOCK").partition(PartitionProblem(5), 0)
