"""FORALL loop specifications (the paper's Figure 1 loop form).

The paper's assumptions, encoded here as validation rules:

* loops are single- or multi-statement FORALLs whose only loop-carried
  dependences are left-hand-side reductions (add, multiply, min, max);
* irregular accesses are single-level indirections ``y(ia(i))`` where
  ``ia`` is a distributed array indexed directly by the loop index
  (``ArrayRef(array, index=ia)``); direct references ``x(i)`` are
  ``ArrayRef(array, index=None)``.

A statement's right-hand side is a vectorized Python callable over the
gathered operand values, and it must be a *pure elementwise* function:
result ``j`` depends only on element ``j`` of each operand (a scalar
result broadcasts), and it neither mutates its operands nor keeps
state.  The executor evaluates it on runs of whole processors'
iterations (*strips*), possibly several at once on different threads,
and one gathered operand array may be passed to every statement of a
strip that reads the same reference.  ``flops`` declares the modeled
floating-point cost per iteration, which is what the machine is charged
(the callable's Python cost is not measured).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.gather_scatter import REDUCTION_OPS


@dataclass(frozen=True)
class ArrayRef:
    """A reference ``array(index(i))``, or ``array(i)`` when index is None."""

    array: str
    index: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sub = f"{self.index}(i)" if self.index else "i"
        return f"{self.array}({sub})"


@dataclass(frozen=True)
class Assign:
    """``lhs = func(*reads)`` -- no loop-carried dependence allowed.

    ``func`` is a pure elementwise function of its operands (see the
    module docstring); it may run concurrently on disjoint processor
    strips.
    """

    lhs: ArrayRef
    func: Callable
    reads: tuple[ArrayRef, ...]
    flops: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", tuple(self.reads))
        if self.flops < 0:
            raise ValueError("flops must be non-negative")


@dataclass(frozen=True)
class Reduce:
    """``REDUCE(op, lhs, func(*reads))`` -- lhs accumulates contributions.

    ``func`` is a pure elementwise function of its operands (see the
    module docstring); it may run concurrently on disjoint processor
    strips.  Contributions still combine into each element in iteration
    order, whatever the strip split.
    """

    op: str
    lhs: ArrayRef
    func: Callable
    reads: tuple[ArrayRef, ...]
    flops: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", tuple(self.reads))
        if self.op not in REDUCTION_OPS:
            raise ValueError(
                f"unknown reduction op {self.op!r}; choose from "
                f"{sorted(REDUCTION_OPS)}"
            )
        if self.flops < 0:
            raise ValueError("flops must be non-negative")


Statement = Assign | Reduce


class ForallLoop:
    """A named FORALL loop over ``range(n_iterations)``.

    Statements run in program order on every strip of processors; each
    statement's callable must be a pure elementwise function, and it may
    run concurrently on disjoint processor strips (see the module
    docstring).
    """

    def __init__(self, name: str, n_iterations: int, statements: list[Statement]):
        if n_iterations < 0:
            raise ValueError(f"negative iteration count {n_iterations}")
        if not statements:
            raise ValueError(f"loop {name!r} has no statements")
        for s in statements:
            if not isinstance(s, (Assign, Reduce)):
                raise TypeError(f"unsupported statement type {type(s).__name__}")
        self.name = name
        self.n_iterations = int(n_iterations)
        self.statements = list(statements)

    # -- derived array sets -------------------------------------------------
    def refs(self) -> list[ArrayRef]:
        """Every ArrayRef in the loop (reads then writes, in order)."""
        out: list[ArrayRef] = []
        for s in self.statements:
            out.extend(s.reads)
            out.append(s.lhs)
        return out

    def read_refs(self) -> list[ArrayRef]:
        out: list[ArrayRef] = []
        for s in self.statements:
            out.extend(s.reads)
        return out

    def write_refs(self) -> list[ArrayRef]:
        return [s.lhs for s in self.statements]

    def data_arrays(self) -> list[str]:
        """Unique data array names, in first-appearance order."""
        seen: dict[str, None] = {}
        for ref in self.refs():
            seen.setdefault(ref.array, None)
        return list(seen)

    def indirection_arrays(self) -> list[str]:
        """Unique indirection array names, in first-appearance order."""
        seen: dict[str, None] = {}
        for ref in self.refs():
            if ref.index is not None:
                seen.setdefault(ref.index, None)
        return list(seen)

    def written_arrays(self) -> list[str]:
        seen: dict[str, None] = {}
        for ref in self.write_refs():
            seen.setdefault(ref.array, None)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ForallLoop({self.name!r}, n={self.n_iterations}, "
            f"{len(self.statements)} statements)"
        )
