"""Lowering and end-to-end interpreter tests.

The key integration property: a directive program through the full
tokenize/parse/analyze/lower pipeline produces bit-identical results to
the hand-coded core API (the paper's compiler-vs-hand comparison).
"""

import numpy as np
import pytest

from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce
from repro.lang import compile_expression, lower_forall, parse, run_program
from repro.lang.ast_nodes import ForallStmt
from repro.machine import Machine


def get_forall(src) -> ForallStmt:
    return [s for s in parse(src).statements if isinstance(s, ForallStmt)][0]


class TestCompileExpression:
    def compile(self, text, scalars=None):
        f = get_forall(f"FORALL i = 1, n\n y(ia(i)) = {text}\nEND FORALL")
        return compile_expression(f.body[0].expr, "I", scalars)

    def test_simple_sum(self):
        func, refs, flops = self.compile("x(ia(i)) + x(ib(i))")
        assert refs == (ArrayRef("X", "IA"), ArrayRef("X", "IB"))
        out = func(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        assert out.tolist() == [11.0, 22.0]
        assert flops == 1.0

    def test_duplicate_refs_share_slot(self):
        func, refs, flops = self.compile("x(ia(i)) * x(ia(i))")
        assert len(refs) == 1
        assert func(np.array([3.0]))[0] == 9.0

    def test_constants_and_precedence(self):
        func, refs, _ = self.compile("2.0 * x(ia(i)) + 1.0")
        assert func(np.array([5.0]))[0] == 11.0

    def test_unary_minus(self):
        func, refs, _ = self.compile("-x(ia(i))")
        assert func(np.array([4.0]))[0] == -4.0

    def test_power(self):
        func, _, flops = self.compile("x(ia(i)) ** 2")
        assert func(np.array([3.0]))[0] == 9.0
        assert flops >= 8.0

    def test_intrinsics(self):
        func, _, _ = self.compile("SQRT(ABS(x(ia(i))))")
        assert func(np.array([-16.0]))[0] == 4.0

    def test_min_max_variadic(self):
        func, refs, _ = self.compile("MAX(x(ia(i)), x(ib(i)), 0.0)")
        assert func(np.array([-5.0]), np.array([-2.0]))[0] == 0.0

    def test_scalar_binding(self):
        func, _, _ = self.compile("alpha * x(ia(i))", scalars={"ALPHA": 2.5})
        assert func(np.array([4.0]))[0] == 10.0

    def test_unbound_scalar(self):
        with pytest.raises(KeyError, match="ALPHA"):
            self.compile("alpha * x(ia(i))")

    def test_division(self):
        func, _, _ = self.compile("x(ia(i)) / 4.0")
        assert func(np.array([10.0]))[0] == 2.5

    def test_wrong_arity_call(self):
        func, refs, _ = self.compile("x(ia(i)) + x(ib(i))")
        with pytest.raises(ValueError, match="takes 2 operands"):
            func(np.array([1.0]))


class TestLowerForall:
    def test_reduce_lowering(self):
        f = get_forall(
            "FORALL i = 1, m\n REDUCE (ADD, y(e1(i)), x(e1(i)) * x(e2(i)))\nEND FORALL"
        )
        loop = lower_forall(f, {"M": 10})
        assert isinstance(loop, ForallLoop)
        assert loop.n_iterations == 10
        stmt = loop.statements[0]
        assert isinstance(stmt, Reduce) and stmt.op == "add"
        assert stmt.lhs == ArrayRef("Y", "E1")

    def test_one_based_bounds(self):
        f = get_forall("FORALL i = 1, n\n y(i) = x(i)\nEND FORALL")
        loop = lower_forall(f, {"N": 7})
        assert loop.n_iterations == 7

    def test_non_unit_lower_bound_rejected(self):
        f = get_forall("FORALL i = 2, n\n y(i) = x(i)\nEND FORALL")
        with pytest.raises(ValueError, match="must start at 1"):
            lower_forall(f, {"N": 7})

    def test_loop_name_includes_line(self):
        f = get_forall("FORALL i = 1, n\n y(i) = x(i)\nEND FORALL")
        loop = lower_forall(f, {"N": 3})
        assert loop.name.startswith("forall_L")


FIGURE4 = """
REAL*8 x(nnode), y(nnode)
INTEGER end_pt1(nedge), end_pt2(nedge)
DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
DISTRIBUTE reg(BLOCK), reg2(BLOCK)
ALIGN x, y WITH reg
ALIGN end_pt1, end_pt2 WITH reg2
C$ CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$ SET distfmt BY PARTITIONING G USING RSB
C$ REDISTRIBUTE reg(distfmt)
DO t = 1, 5
  FORALL i = 1, nedge
    REDUCE (ADD, y(end_pt1(i)), x(end_pt1(i)) * x(end_pt2(i)))
    REDUCE (ADD, y(end_pt2(i)), x(end_pt1(i)) - x(end_pt2(i)))
  END FORALL
END DO
"""


def make_inputs(n_nodes=24, n_edges=40, seed=0):
    rng = np.random.default_rng(seed)
    e1 = rng.integers(0, n_nodes, n_edges)
    e2 = (e1 + 1 + rng.integers(0, n_nodes - 1, n_edges)) % n_nodes
    x = rng.normal(size=n_nodes)
    return x, e1, e2


class TestEndToEnd:
    def test_figure4_program_runs_and_matches_reference(self):
        x, e1, e2 = make_inputs()
        m = Machine(4)
        cp = run_program(
            FIGURE4,
            m,
            sizes={"NNODE": 24, "NEDGE": 40},
            data={"X": x, "END_PT1": e1, "END_PT2": e2},
        )
        want = np.zeros(24)
        for _ in range(5):
            np.add.at(want, e1, x[e1] * x[e2])
            np.add.at(want, e2, x[e1] - x[e2])
        assert np.allclose(cp.array_global("Y"), want)

    def test_schedule_reuse_happens_inside_do_loop(self):
        x, e1, e2 = make_inputs()
        m = Machine(4)
        cp = run_program(
            FIGURE4,
            m,
            sizes={"NNODE": 24, "NEDGE": 40},
            data={"X": x, "END_PT1": e1, "END_PT2": e2},
        )
        assert cp.program.inspector_runs == 1
        assert cp.program.reuse_hits == 4

    def test_arrays_redistributed(self):
        x, e1, e2 = make_inputs()
        m = Machine(4)
        cp = run_program(
            FIGURE4,
            m,
            sizes={"NNODE": 24, "NEDGE": 40},
            data={"X": x, "END_PT1": e1, "END_PT2": e2},
        )
        assert cp.program.arrays["X"].distribution.kind == "irregular"
        assert m.elapsed() > 0

    def test_compiled_equals_hand_coded(self):
        """The paper's comparison: compiler-generated code vs hand-embedded
        CHAOS calls must compute identical results."""
        x, e1, e2 = make_inputs(seed=5)
        m1 = Machine(4)
        cp = run_program(
            FIGURE4,
            m1,
            sizes={"NNODE": 24, "NEDGE": 40},
            data={"X": x, "END_PT1": e1, "END_PT2": e2},
        )

        m2 = Machine(4)
        prog = IrregularProgram(m2, track=False)
        prog.decomposition("reg", 24)
        prog.decomposition("reg2", 40)
        prog.distribute("reg", "block")
        prog.distribute("reg2", "block")
        prog.array("X", "reg", values=x)
        prog.array("Y", "reg", values=np.zeros(24))
        prog.array("END_PT1", "reg2", values=e1, dtype=np.int64)
        prog.array("END_PT2", "reg2", values=e2, dtype=np.int64)
        prog.construct("G", 24, link=("END_PT1", "END_PT2"))
        prog.set_distribution("distfmt", "G", "RSB")
        prog.redistribute("reg", "distfmt")
        x1, x2 = ArrayRef("X", "END_PT1"), ArrayRef("X", "END_PT2")
        loop = ForallLoop(
            "hand",
            40,
            [
                Reduce("add", ArrayRef("Y", "END_PT1"), lambda a, b: a * b, (x1, x2), flops=2),
                Reduce("add", ArrayRef("Y", "END_PT2"), lambda a, b: a - b, (x1, x2), flops=2),
            ],
        )
        prog.forall(loop, n_times=5)
        assert np.allclose(cp.array_global("Y"), prog.arrays["Y"].to_global())

    def test_geometry_program(self):
        src = """
        REAL*8 x(n), y(n), xc(n), yc(n)
        INTEGER ia(n), ib(n)
        DYNAMIC, DECOMPOSITION reg(n)
        DISTRIBUTE reg(BLOCK)
        ALIGN x, y, xc, yc, ia, ib WITH reg
        C$ CONSTRUCT G (n, GEOMETRY(2, xc, yc))
        C$ SET fmt BY PARTITIONING G USING RCB
        C$ REDISTRIBUTE reg(fmt)
        FORALL i = 1, n
          y(ia(i)) = x(ib(i)) * 3.0
        END FORALL
        """
        rng = np.random.default_rng(2)
        n = 16
        ia = rng.permutation(n)
        ib = rng.integers(0, n, n)
        x = rng.normal(size=n)
        m = Machine(4)
        cp = run_program(
            src,
            m,
            sizes={"N": n},
            data={
                "X": x,
                "IA": ia,
                "IB": ib,
                "XC": rng.normal(size=n),
                "YC": rng.normal(size=n),
            },
        )
        want = np.zeros(n)
        want[ia] = x[ib] * 3.0
        assert np.allclose(cp.array_global("Y"), want)

    def test_missing_size_symbol(self):
        with pytest.raises(KeyError, match="NNODE"):
            run_program(FIGURE4, Machine(4), sizes={"NEDGE": 40})

    def test_bad_initial_data_shape(self):
        with pytest.raises(ValueError, match="initial data"):
            run_program(
                FIGURE4,
                Machine(4),
                sizes={"NNODE": 24, "NEDGE": 40},
                data={"X": np.zeros(3)},
            )

    def test_zero_trip_do_loop(self):
        src = """
        REAL*8 x(n), y(n)
        INTEGER ia(n)
        DECOMPOSITION reg(n)
        DISTRIBUTE reg(BLOCK)
        ALIGN x, y, ia WITH reg
        DO t = 1, 0
          FORALL i = 1, n
            REDUCE (ADD, y(ia(i)), x(ia(i)))
          END FORALL
        END DO
        """
        cp = run_program(
            src, Machine(2), sizes={"N": 8}, data={"IA": np.arange(8)}
        )
        assert cp.program.inspector_runs == 0
        assert np.allclose(cp.array_global("Y"), 0)


class TestEvalConst:
    """Constant folding of size/bound expressions (all binary operators)."""

    def test_binop_constants_fold(self):
        from repro.lang.ast_nodes import BinOp, Num, Var
        from repro.lang.lower import _eval_const

        env = {"n": 8.0}
        assert _eval_const(BinOp("+", Num(2), Num(3)), env) == 5.0
        assert _eval_const(BinOp("-", Num(2), Num(3)), env) == -1.0
        assert _eval_const(BinOp("*", Var("n"), Num(3)), env) == 24.0
        assert _eval_const(BinOp("/", Var("n"), Num(2)), env) == 4.0
        assert _eval_const(BinOp("**", Num(2), Num(5)), env) == 32.0
