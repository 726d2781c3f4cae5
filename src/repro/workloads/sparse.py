"""Sparse matrix-vector workload (the paper's sparse-solver domain).

A CSR matvec expressed as the canonical irregular loop: iterate over
nonzeros k with REDUCE(ADD, y(row(k)), a(k) * x(col(k))) -- one direct
read (the nonzero value), one indirect read (the x entry), one indirect
reduction (the y entry).  CHAOS/PARTI's original home turf.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.forall import ArrayRef, ForallLoop, Reduce
from repro.core.program import IrregularProgram
from repro.machine.machine import Machine

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

#: modeled flops per nonzero (multiply + add)
SPMV_FLOPS = 2.0


def random_sparse_csr(
    n: int, nnz_per_row: int = 7, bandwidth: float = 0.05, seed: int = 0
) -> sp.csr_matrix:
    """A banded-plus-random sparse matrix like a 1-D discretization with
    long-range coupling; rows have ~``nnz_per_row`` entries."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for k in range(nnz_per_row):
        r = np.arange(n)
        if k < nnz_per_row // 2 + 1:
            # banded part: neighbours within fractional bandwidth
            offset = rng.integers(-max(1, int(bandwidth * n)), max(2, int(bandwidth * n)), n)
            c = np.clip(r + offset, 0, n - 1)
        else:
            c = rng.integers(0, n, n)
        rows.append(r)
        cols.append(c)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = rng.normal(size=rows.size)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat.tocsr()


def spmv_loop(nnz: int) -> ForallLoop:
    """y(row(k)) += a(k) * x(col(k)) over nonzeros."""
    return ForallLoop(
        "spmv",
        nnz,
        [
            Reduce(
                "add",
                ArrayRef("y", "row"),
                lambda a, xv: a * xv,
                (ArrayRef("a"), ArrayRef("x", "col")),
                flops=SPMV_FLOPS,
            )
        ],
    )


def setup_spmv_program(
    machine: Machine, matrix: sp.csr_matrix, seed: int = 0, **program_kwargs
) -> IrregularProgram:
    """Declare SpMV state: COO triplets on an nnz decomposition, x/y on
    an n decomposition."""
    coo = matrix.tocoo()
    n = matrix.shape[0]
    nnz = coo.nnz
    rng = np.random.default_rng(seed)
    prog = IrregularProgram(machine, **program_kwargs)
    prog.decomposition("vec", n)
    prog.decomposition("nz", nnz)
    prog.distribute("vec", "block")
    prog.distribute("nz", "block")
    prog.array("x", "vec", values=rng.normal(size=n))
    prog.array("y", "vec", values=np.zeros(n))
    prog.array("a", "nz", values=coo.data)
    prog.array("row", "nz", values=coo.row, dtype=np.int64)
    prog.array("col", "nz", values=coo.col, dtype=np.int64)
    return prog


def spmv_sequential_reference(
    matrix: sp.csr_matrix, x: np.ndarray, n_times: int = 1
) -> np.ndarray:
    """y accumulated over n_times matvecs."""
    y = np.zeros(matrix.shape[0])
    for _ in range(n_times):
        y += matrix @ x
    return y
