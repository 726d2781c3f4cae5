"""A Fortran-90D-like directive frontend ("runtime compilation").

This package performs, at the source level, the transformation the
paper's prototype Fortran 90D compiler performs (Figure 6): parse a
program written in the directive dialect of Figures 3-5, analyze its
FORALL loops, and lower everything onto the
:class:`~repro.core.program.IrregularProgram` runtime context -- which
emits the CHAOS calls (GeoCoL generation, partitioner invocation, array
remapping, inspector/executor with the conservative reuse guard).

Accepted statement subset::

    REAL*8 x(nnode), y(nnode)
    INTEGER end_pt1(nedge), end_pt2(nedge)
    DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
    DISTRIBUTE reg(BLOCK), reg2(BLOCK)
    ALIGN x, y WITH reg
    ALIGN end_pt1, end_pt2 WITH reg2
    C$ CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
    C$ SET distfmt BY PARTITIONING G USING RSB
    C$ REDISTRIBUTE reg(distfmt)
    DO t = 1, 100
      FORALL i = 1, nedge
        REDUCE (ADD, y(end_pt1(i)), x(end_pt1(i)) * x(end_pt2(i)))
        REDUCE (ADD, y(end_pt2(i)), x(end_pt1(i)) - x(end_pt2(i)))
      END FORALL
    END DO

plus GEOMETRY/LOAD clauses in CONSTRUCT, plain assignments inside
FORALL (``y(ia(i)) = x(ib(i)) + x(ic(i))``), arithmetic expressions with
the intrinsics SQRT/EXP/LOG/SIN/COS/ABS/MIN/MAX, and CYCLIC
distributions.  Sizes (``nnode``...) and initial array contents are
supplied at run time -- exactly the values "known only at runtime" that
make these programs irregular.
"""

from repro.lang.tokens import Token, TokenKind, tokenize
from repro.lang.ast_nodes import (
    ProgramAST,
    TypeDecl,
    DecompositionDecl,
    DistributeStmt,
    AlignStmt,
    ConstructStmt,
    SetStmt,
    RedistributeStmt,
    ForallStmt,
    DoStmt,
    AssignStmt,
    ReduceStmt,
    Num,
    Var,
    BinOp,
    UnOp,
    Call,
    ArrayIndex,
)
from repro.lang.parser import parse, ParseError
from repro.lang.analysis import analyze, AnalysisError, ProgramInfo
from repro.lang.lower import lower_forall, compile_expression
from repro.lang.interp import run_program, CompiledProgram

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "ProgramAST",
    "TypeDecl",
    "DecompositionDecl",
    "DistributeStmt",
    "AlignStmt",
    "ConstructStmt",
    "SetStmt",
    "RedistributeStmt",
    "ForallStmt",
    "DoStmt",
    "AssignStmt",
    "ReduceStmt",
    "Num",
    "Var",
    "BinOp",
    "UnOp",
    "Call",
    "ArrayIndex",
    "parse",
    "ParseError",
    "analyze",
    "AnalysisError",
    "ProgramInfo",
    "lower_forall",
    "compile_expression",
    "run_program",
    "CompiledProgram",
]
