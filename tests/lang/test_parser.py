"""Parser tests, including the paper's figure programs."""

import pytest

from repro.lang import (
    AlignStmt,
    ArrayIndex,
    AssignStmt,
    BinOp,
    ConstructStmt,
    DecompositionDecl,
    DistributeStmt,
    DoStmt,
    ForallStmt,
    Num,
    ParseError,
    RedistributeStmt,
    ReduceStmt,
    SetStmt,
    TypeDecl,
    Var,
    parse,
)

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
FORALL i = 1, nedge
  REDUCE (ADD, y(end_pt1(i)), x(end_pt1(i)) * x(end_pt2(i)))
  REDUCE (ADD, y(end_pt2(i)), x(end_pt1(i)) - x(end_pt2(i)))
END FORALL
"""


class TestFigure4:
    def test_statement_sequence(self):
        prog = parse(FIGURE4)
        kinds = [type(s).__name__ for s in prog.statements]
        assert kinds == [
            "TypeDecl",
            "TypeDecl",
            "DecompositionDecl",
            "DistributeStmt",
            "AlignStmt",
            "AlignStmt",
            "ConstructStmt",
            "SetStmt",
            "RedistributeStmt",
            "ForallStmt",
        ]

    def test_declarations(self):
        prog = parse(FIGURE4)
        real = prog.statements[0]
        assert isinstance(real, TypeDecl)
        assert real.type_name == "REAL*8"
        assert [a for a, _ in real.arrays] == ["X", "Y"]

    def test_dynamic_decomposition(self):
        prog = parse(FIGURE4)
        dec = prog.statements[2]
        assert isinstance(dec, DecompositionDecl)
        assert dec.dynamic
        assert [d for d, _ in dec.decomps] == ["REG", "REG2"]

    def test_distribute(self):
        prog = parse(FIGURE4)
        dist = prog.statements[3]
        assert isinstance(dist, DistributeStmt)
        assert dist.targets == [("REG", "BLOCK"), ("REG2", "BLOCK")]

    def test_construct_link(self):
        prog = parse(FIGURE4)
        cons = prog.statements[6]
        assert isinstance(cons, ConstructStmt)
        assert cons.name == "G"
        assert cons.link == ("END_PT1", "END_PT2")
        assert cons.geometry is None

    def test_set(self):
        prog = parse(FIGURE4)
        s = prog.statements[7]
        assert isinstance(s, SetStmt)
        assert (s.target, s.geocol, s.partitioner) == ("DISTFMT", "G", "RSB")

    def test_redistribute(self):
        prog = parse(FIGURE4)
        r = prog.statements[8]
        assert isinstance(r, RedistributeStmt)
        assert (r.decomp, r.fmt) == ("REG", "DISTFMT")

    def test_forall_body(self):
        prog = parse(FIGURE4)
        f = prog.statements[9]
        assert isinstance(f, ForallStmt)
        assert f.var == "I"
        assert len(f.body) == 2
        assert all(isinstance(s, ReduceStmt) for s in f.body)
        assert f.body[0].op == "ADD"
        lhs = f.body[0].lhs
        assert lhs.name == "Y" and isinstance(lhs.index, ArrayIndex)


class TestFigure5Geometry:
    def test_geometry_construct(self):
        src = """
        REAL*8 xc(n), yc(n), zc(n)
        DECOMPOSITION reg(n)
        DISTRIBUTE reg(BLOCK)
        ALIGN xc, yc, zc WITH reg
        C$ CONSTRUCT G (n, GEOMETRY(3, xc, yc, zc))
        C$ SET distfmt BY PARTITIONING G USING RCB
        """
        prog = parse(src)
        cons = [s for s in prog.statements if isinstance(s, ConstructStmt)][0]
        assert cons.geometry == ["XC", "YC", "ZC"]
        s = [st for st in prog.statements if isinstance(st, SetStmt)][0]
        assert s.partitioner == "RCB"

    def test_combined_clauses(self):
        src = """
        REAL*8 xc(n), w(n)
        INTEGER e1(m), e2(m)
        DECOMPOSITION reg(n), reg2(m)
        DISTRIBUTE reg(BLOCK), reg2(BLOCK)
        ALIGN xc, w WITH reg
        ALIGN e1, e2 WITH reg2
        C$ CONSTRUCT G (n, GEOMETRY(1, xc), LOAD(w), LINK(m, e1, e2))
        """
        cons = [s for s in parse(src).statements if isinstance(s, ConstructStmt)][0]
        assert cons.geometry == ["XC"]
        assert cons.load == "W"
        assert cons.link == ("E1", "E2")

    def test_rsb_kl_partitioner_name(self):
        # a partitioner is named by one identifier (the registry refuses
        # any other name), so an operator after it is a syntax error
        src = """
        INTEGER e1(m), e2(m)
        DECOMPOSITION reg2(m)
        DISTRIBUTE reg2(BLOCK)
        ALIGN e1, e2 WITH reg2
        C$ CONSTRUCT G (m, LINK(m, e1, e2))
        C$ SET fmt BY PARTITIONING G USING RSB+KL
        """
        with pytest.raises(ParseError, match="line 7"):
            parse(src)


class TestLoops:
    def test_do_wrapping_forall(self):
        src = """
        REAL*8 x(n), y(n)
        INTEGER ia(n)
        DECOMPOSITION reg(n)
        DISTRIBUTE reg(BLOCK)
        ALIGN x, y, ia WITH reg
        DO t = 1, 100
          FORALL i = 1, n
            REDUCE (ADD, y(ia(i)), x(ia(i)))
          END FORALL
        END DO
        """
        do = [s for s in parse(src).statements if isinstance(s, DoStmt)][0]
        assert isinstance(do.hi, Num) and do.hi.value == 100
        assert len(do.body) == 1 and isinstance(do.body[0], ForallStmt)

    def test_assignment_in_forall(self):
        src = """
        FORALL i = 1, n
          y(ia(i)) = x(ib(i)) + x(ic(i))
        END FORALL
        """
        f = parse(src).statements[0]
        assert isinstance(f.body[0], AssignStmt)
        assert isinstance(f.body[0].expr, BinOp)

    def test_expression_precedence(self):
        src = """
        FORALL i = 1, n
          y(ia(i)) = x(ia(i)) + x(ib(i)) * 2.0
        END FORALL
        """
        expr = parse(src).statements[0].body[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_intrinsic_call(self):
        src = """
        FORALL i = 1, n
          y(ia(i)) = SQRT(x(ia(i)))
        END FORALL
        """
        expr = parse(src).statements[0].body[0].expr
        assert expr.func == "SQRT"

    def test_direct_reference(self):
        src = """
        FORALL i = 1, n
          y(i) = x(ia(i))
        END FORALL
        """
        lhs = parse(src).statements[0].body[0].lhs
        assert isinstance(lhs.index, Var) and lhs.index.name == "I"


class TestErrors:
    def test_empty_forall(self):
        with pytest.raises(ParseError, match="empty FORALL"):
            parse("FORALL i = 1, n\nEND FORALL")

    def test_reduce_bad_op(self):
        src = "FORALL i = 1, n\n REDUCE (XOR, y(ia(i)), x(i))\nEND FORALL"
        with pytest.raises(ParseError, match="expected one of"):
            parse(src)

    def test_missing_paren(self):
        with pytest.raises(ParseError, match="expected"):
            parse("DISTRIBUTE reg(BLOCK")

    def test_unknown_statement(self):
        with pytest.raises(ParseError, match="unknown statement"):
            parse("SCATTER x")

    def test_reduce_target_must_be_ref(self):
        src = "FORALL i = 1, n\n REDUCE (ADD, 3.0, x(i))\nEND FORALL"
        with pytest.raises(ParseError, match="expected an expression|target"):
            parse(src)

    def test_multi_subscript_rejected(self):
        src = "FORALL i = 1, n\n y(a(i), b(i)) = x(i)\nEND FORALL"
        with pytest.raises(ParseError, match="one subscript"):
            parse(src)
