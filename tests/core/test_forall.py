"""Tests for FORALL loop specifications."""

import pytest

from repro.core import ArrayRef, Assign, ForallLoop, Reduce


def f(*args):
    return args[0]


class TestArrayRef:
    def test_direct_vs_indirect(self):
        assert ArrayRef("x").index is None
        assert ArrayRef("x", "ia").index == "ia"


class TestStatements:
    def test_reduce_validates_op(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            Reduce("xor", ArrayRef("y", "ia"), f, (ArrayRef("x", "ib"),))

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError, match="flops"):
            Assign(ArrayRef("y", "ia"), f, (ArrayRef("x", "ib"),), flops=-1)

    def test_reads_coerced_to_tuple(self):
        s = Assign(ArrayRef("y", "ia"), f, [ArrayRef("x", "ib")])
        assert isinstance(s.reads, tuple)


class TestForallLoop:
    def make_l2(self):
        """The paper's loop L2: edge sweep with two reductions."""
        x1, x2 = ArrayRef("x", "end_pt1"), ArrayRef("x", "end_pt2")
        return ForallLoop(
            "L2",
            100,
            [
                Reduce("add", ArrayRef("y", "end_pt1"), lambda a, b: a * b, (x1, x2)),
                Reduce("add", ArrayRef("y", "end_pt2"), lambda a, b: a + b, (x1, x2)),
            ],
        )

    def test_data_arrays(self):
        loop = self.make_l2()
        assert loop.data_arrays() == ["x", "y"]

    def test_indirection_arrays(self):
        loop = self.make_l2()
        assert loop.indirection_arrays() == ["end_pt1", "end_pt2"]

    def test_written_arrays(self):
        assert self.make_l2().written_arrays() == ["y"]

    def test_l1_single_statement(self):
        """The paper's loop L1: y(ia(i)) = x(ib(i)) + x(ic(i))."""
        loop = ForallLoop(
            "L1",
            50,
            [
                Assign(
                    ArrayRef("y", "ia"),
                    lambda a, b: a + b,
                    (ArrayRef("x", "ib"), ArrayRef("x", "ic")),
                )
            ],
        )
        # first-appearance order: statement reads precede its left-hand side
        assert loop.indirection_arrays() == ["ib", "ic", "ia"]
        assert loop.data_arrays() == ["x", "y"]

    def test_empty_statements_rejected(self):
        with pytest.raises(ValueError, match="no statements"):
            ForallLoop("L", 10, [])

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="negative iteration"):
            ForallLoop("L", -1, [Assign(ArrayRef("y"), f, (ArrayRef("x"),))])

    def test_bad_statement_type(self):
        with pytest.raises(TypeError, match="unsupported statement"):
            ForallLoop("L", 10, ["y = x"])
