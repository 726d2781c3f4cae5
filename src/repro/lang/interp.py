"""Program driver: execute a compiled directive program on a machine.

``run_program`` performs the whole paper pipeline for a source string:
tokenize -> parse -> analyze -> lower -> drive an
:class:`~repro.core.program.IrregularProgram` (which embeds the CHAOS
calls).  Returns a :class:`CompiledProgram` exposing the runtime context,
the lowered loops, and the machine for inspection.

Conventions bridging Fortran-style source and the Python runtime:

* loop bounds are 1-based in source (``FORALL i = 1, nedge``) and map to
  0-based iteration spaces;
* *values* of indirection arrays are 0-based global element indices
  (the data is supplied from Python, not read from Fortran files);
* array sizes are symbols (``nnode``) bound via ``sizes``; initial array
  contents come from ``data`` (missing entries are zero-filled);
* scalars referenced in expressions are bound via ``scalars``.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import IrregularProgram
from repro.lang.analysis import analyze
from repro.lang.ast_nodes import (
    AlignStmt,
    ConstructStmt,
    DecompositionDecl,
    DistributeStmt,
    DoStmt,
    ForallStmt,
    ProgramAST,
    RedistributeStmt,
    SetStmt,
    TypeDecl,
)
from repro.lang.lower import _eval_const, lower_forall
from repro.lang.parser import parse
from repro.machine.machine import Machine


class CompiledProgram:
    """The result of running a directive program."""

    def __init__(
        self,
        source: str,
        machine: Machine,
        sizes: dict[str, int] | None = None,
        data: dict[str, np.ndarray] | None = None,
        scalars: dict[str, float] | None = None,
        **program_kwargs,
    ):
        self.machine = machine
        self.sizes = dict(sizes or {})
        self.data = dict(data or {})
        self.scalars = dict(scalars or {})
        self.ast: ProgramAST = parse(source)
        self.info = analyze(self.ast)
        self.program = IrregularProgram(machine, **program_kwargs)
        self._loop_cache: dict[int, object] = {}
        self._align_of: dict[str, str] = {}

    # ------------------------------------------------------------------
    def run(self) -> "CompiledProgram":
        """Execute every statement in program order."""
        self._exec_block(self.ast.statements)
        return self

    def _exec_block(self, statements) -> None:
        for stmt in statements:
            self._exec(stmt)

    def _exec(self, stmt) -> None:
        if isinstance(stmt, TypeDecl):
            pass  # array creation happens at ALIGN, when the decomp is known
        elif isinstance(stmt, DecompositionDecl):
            for name, size_expr in stmt.decomps:
                self.program.decomposition(name, self._const(size_expr))
        elif isinstance(stmt, DistributeStmt):
            for name, fmt in stmt.targets:
                if fmt in ("BLOCK", "CYCLIC"):
                    self.program.distribute(name, fmt.lower())
                else:
                    # Figure 3: DISTRIBUTE irreg(map) with a map array
                    self.program.distribute_by_map(name, fmt)
        elif isinstance(stmt, AlignStmt):
            for array in stmt.arrays:
                self._create_array(array, stmt.decomp)
        elif isinstance(stmt, ConstructStmt):
            self.program.construct(
                stmt.name,
                self._const(stmt.n_vertices),
                geometry=stmt.geometry,
                load=stmt.load,
                link=stmt.link,
            )
        elif isinstance(stmt, SetStmt):
            self.program.set_distribution(
                stmt.target, stmt.geocol, stmt.partitioner
            )
        elif isinstance(stmt, RedistributeStmt):
            self.program.redistribute(stmt.decomp, stmt.fmt)
        elif isinstance(stmt, ForallStmt):
            self._run_forall(stmt, n_times=1)
        elif isinstance(stmt, DoStmt):
            self._run_do(stmt)
        else:  # pragma: no cover - analysis rejects unknown nodes
            raise TypeError(f"cannot execute {type(stmt).__name__}")

    # ------------------------------------------------------------------
    def _run_do(self, stmt: DoStmt) -> None:
        trips = int(self._const(stmt.hi)) - int(self._const(stmt.lo)) + 1
        if trips <= 0:
            return
        if len(stmt.body) == 1 and isinstance(stmt.body[0], ForallStmt):
            # the common timing pattern: amortize through program.forall
            self._run_forall(stmt.body[0], n_times=trips)
            return
        for _ in range(trips):
            self._exec_block(stmt.body)

    def _run_forall(self, stmt: ForallStmt, n_times: int) -> None:
        key = id(stmt)
        if key not in self._loop_cache:
            env = {**self.sizes, **self.scalars}
            self._loop_cache[key] = lower_forall(stmt, env, self.scalars)
        loop = self._loop_cache[key]
        self.program.forall(loop, n_times=n_times)

    # ------------------------------------------------------------------
    def _create_array(self, name: str, decomp: str) -> None:
        arr_info = self.info.arrays[name]
        dtype = (
            np.int64 if arr_info.type_name.startswith("INTEGER") else np.float64
        )
        size = self._const(arr_info.size_expr)
        decomp_size = self.program.decomps[decomp].size
        if size != decomp_size:
            raise ValueError(
                f"array {name!r} has size {size} but decomposition {decomp!r} "
                f"has size {decomp_size}"
            )
        values = self.data.get(name)
        if values is not None:
            values = np.asarray(values)
            if values.shape != (size,):
                raise ValueError(
                    f"initial data for {name!r} has shape {values.shape}, "
                    f"expected ({size},)"
                )
            self.program.array(name, decomp, values=values.astype(dtype))
        else:
            self.program.array(name, decomp, dtype=dtype)
        self._align_of[name] = decomp

    def _const(self, expr) -> int:
        env = {**self.sizes, **self.scalars}
        return int(_eval_const(expr, env))

    # -- conveniences ---------------------------------------------------------
    def array_global(self, name: str) -> np.ndarray:
        """Assembled global contents of a program array."""
        return self.program.arrays[name].to_global()

    def elapsed(self) -> float:
        return self.machine.elapsed()


def run_program(
    source: str,
    machine: Machine,
    sizes: dict[str, int] | None = None,
    data: dict[str, np.ndarray] | None = None,
    scalars: dict[str, float] | None = None,
    **program_kwargs,
) -> CompiledProgram:
    """Compile and execute a directive program; returns the CompiledProgram."""
    return CompiledProgram(
        source, machine, sizes=sizes, data=data, scalars=scalars, **program_kwargs
    ).run()
