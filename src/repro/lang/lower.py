"""Lowering: directive AST -> core runtime objects (the Figure 6 step).

``compile_expression`` turns a FORALL body expression into a vectorized
Python callable over operand arrays (one operand per distinct
``array(index(i))`` pattern) plus the modeled flop count;
``lower_forall`` assembles a :class:`~repro.core.forall.ForallLoop` from
a parsed FORALL statement.  The interpreter (:mod:`repro.lang.interp`)
drives these against an :class:`~repro.core.program.IrregularProgram`,
which is where the embedded CHAOS calls (K1-K4) actually happen.
"""

from __future__ import annotations

import numpy as np

from repro.core.forall import ArrayRef, Assign, ForallLoop, Reduce
from repro.lang.ast_nodes import (
    ArrayIndex,
    AssignStmt,
    BinOp,
    Call,
    ForallStmt,
    Num,
    ReduceStmt,
    UnOp,
    Var,
)

#: flops charged per expression node kind (i860-era relative weights)
_FLOPS_BINOP = 1.0
_FLOPS_POW = 8.0
_FLOPS_CALL = 8.0

_REDUCE_OP_MAP = {"ADD": "add", "MULTIPLY": "multiply", "MIN": "min", "MAX": "max"}

_INTRINSIC_FUNCS = {
    "SQRT": np.sqrt,
    "EXP": np.exp,
    "LOG": np.log,
    "SIN": np.sin,
    "COS": np.cos,
    "ABS": np.abs,
}


def _ref_of(node: ArrayIndex, loop_var: str) -> ArrayRef:
    """ArrayIndex AST -> core ArrayRef (validated by analysis already)."""
    if isinstance(node.index, Var) and node.index.name == loop_var:
        return ArrayRef(node.name, None)
    if isinstance(node.index, ArrayIndex):
        return ArrayRef(node.name, node.index.name)
    raise ValueError(f"unsupported subscript on {node.name!r}")


def compile_expression(expr, loop_var: str, scalars: dict[str, float] | None = None):
    """Compile an expression to ``(func, refs, flops)``.

    ``refs`` is the tuple of distinct :class:`ArrayRef` operands in
    first-appearance order; ``func(*operand_arrays)`` evaluates the
    expression vectorized over iterations; ``flops`` is the modeled cost
    per iteration.  Scalar identifiers are baked in from ``scalars``.
    """
    slots: dict[ArrayRef, int] = {}
    evaluator, flops = _build(expr, loop_var, scalars or {}, slots)
    refs = tuple(slots)  # insertion order == slot order

    def func(*operands):
        if len(operands) != len(refs):
            raise ValueError(
                f"expression takes {len(refs)} operands, got {len(operands)}"
            )
        return evaluator(operands)

    return func, refs, flops


def _build(node, loop_var: str, scalars: dict[str, float], slots: dict[ArrayRef, int]):
    """Lower one expression node: ``(closure over operands, flops)``.

    Module level, not nested in :func:`compile_expression`: a nested
    self-recursive function is a reference cycle holding every closure
    it built, freed only by the collector's next full pass."""
    if isinstance(node, Num):
        v = node.value
        return (lambda ops: v), 0.0
    if isinstance(node, Var):
        try:
            v = float(scalars[node.name])
        except KeyError:
            raise KeyError(f"scalar {node.name!r} has no bound value") from None
        return (lambda ops: v), 0.0
    if isinstance(node, ArrayIndex):
        ref = _ref_of(node, loop_var)
        slot = slots.setdefault(ref, len(slots))
        return (lambda ops: ops[slot]), 0.0
    if isinstance(node, BinOp):
        lf, lflops = _build(node.left, loop_var, scalars, slots)
        rf, rflops = _build(node.right, loop_var, scalars, slots)
        flops = lflops + rflops + (_FLOPS_POW if node.op == "**" else _FLOPS_BINOP)
        op = node.op
        if op == "+":
            return (lambda ops: lf(ops) + rf(ops)), flops
        if op == "-":
            return (lambda ops: lf(ops) - rf(ops)), flops
        if op == "*":
            return (lambda ops: lf(ops) * rf(ops)), flops
        if op == "/":
            return (lambda ops: lf(ops) / rf(ops)), flops
        if op == "**":
            return (lambda ops: lf(ops) ** rf(ops)), flops
        raise ValueError(f"unsupported operator {op!r}")
    if isinstance(node, UnOp):
        f, flops = _build(node.operand, loop_var, scalars, slots)
        return (lambda ops: -f(ops)), flops + _FLOPS_BINOP
    if isinstance(node, Call):
        built = [_build(a, loop_var, scalars, slots) for a in node.args]
        argfs = [f for f, _ in built]
        flops = sum(fl for _, fl in built) + _FLOPS_CALL
        if node.func in _INTRINSIC_FUNCS:
            if len(argfs) != 1:
                raise ValueError(f"{node.func} takes one argument")
            fn = _INTRINSIC_FUNCS[node.func]
            f0 = argfs[0]
            return (lambda ops: fn(f0(ops))), flops
        if node.func == "MIN":
            return (lambda ops: _variadic(np.minimum, argfs, ops)), flops
        if node.func == "MAX":
            return (lambda ops: _variadic(np.maximum, argfs, ops)), flops
        if node.func == "MOD":
            if len(argfs) != 2:
                raise ValueError("MOD takes two arguments")
            fa, fb = argfs
            return (lambda ops: np.mod(fa(ops), fb(ops))), flops
        raise ValueError(f"unknown intrinsic {node.func!r}")
    raise ValueError(f"unsupported expression node {node!r}")


def _variadic(ufunc, argfs, ops):
    vals = [f(ops) for f in argfs]
    out = vals[0]
    for v in vals[1:]:
        out = ufunc(out, v)
    return out


def _eval_const(expr, env: dict[str, float]) -> float:
    """Evaluate a size/bound expression over bound symbols."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise KeyError(f"size symbol {expr.name!r} has no bound value") from None
    if isinstance(expr, BinOp):
        lhs, rhs = _eval_const(expr.left, env), _eval_const(expr.right, env)
        return {
            "+": lhs + rhs,
            "-": lhs - rhs,
            "*": lhs * rhs,
            "/": lhs / rhs,
            "**": lhs**rhs,
        }[expr.op]
    if isinstance(expr, UnOp):
        return -_eval_const(expr.operand, env)
    raise ValueError(f"expression {expr!r} is not a compile-time constant")


def lower_forall(
    stmt: ForallStmt, env: dict[str, float], scalars: dict[str, float] | None = None
) -> ForallLoop:
    """Lower one FORALL statement to a core ForallLoop.

    ``env`` binds size symbols for the loop bounds.  Loop bounds are
    1-based in the source (Fortran) and become 0-based iterations.
    """
    lo = int(_eval_const(stmt.lo, env))
    hi = int(_eval_const(stmt.hi, env))
    if lo != 1:
        raise ValueError(
            f"line {stmt.line}: FORALL must start at 1 (got {lo}); shift the "
            "index space"
        )
    n_iter = max(hi - lo + 1, 0)
    statements = []
    for body in stmt.body:
        func, refs, flops = compile_expression(body.expr, stmt.var, scalars)
        lhs = _ref_of(body.lhs, stmt.var)
        if isinstance(body, ReduceStmt):
            statements.append(
                Reduce(
                    op=_REDUCE_OP_MAP[body.op],
                    lhs=lhs,
                    func=func,
                    reads=refs,
                    flops=flops + 1.0,  # + the combine itself
                )
            )
        elif isinstance(body, AssignStmt):
            statements.append(Assign(lhs=lhs, func=func, reads=refs, flops=flops))
        else:  # pragma: no cover - analysis rejects other nodes
            raise TypeError(f"unsupported FORALL body {type(body).__name__}")
    return ForallLoop(f"forall_L{stmt.line}", n_iter, statements)
