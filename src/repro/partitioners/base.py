"""Partitioner interface, standardized problem/result types, registry.

The "standardized representation" the compiler generates from GeoCoL
directives (Section 4.1.2) is :class:`PartitionProblem`: vertex count,
optional edge lists (LINK), optional coordinates (GEOMETRY), optional
vertex weights (LOAD).  Every partitioner consumes this one type -- that
uniform calling sequence is exactly the paper's fix for partitioners
"using different data structures and being very problem dependent".

Partitioners also *model their own parallel cost* (the paper's
partitioners are themselves parallelized): a :class:`PartitionResult`
carries total flop/iop counts and a synchronization-round count, which
the mapper coupler divides across processors and charges to the machine.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PartitionProblem:
    """Standardized partitioner input (built from a GeoCoL graph).

    Attributes
    ----------
    n_vertices:
        Number of GeoCoL vertices (= distributed-array elements).
    edges:
        Optional ``(2, E)`` int array of undirected edges (LINK info).
    coords:
        Optional ``(ndim, N)`` float array of spatial positions (GEOMETRY).
    weights:
        Optional ``(N,)`` float array of computational loads (LOAD).
    """

    n_vertices: int
    edges: np.ndarray | None = None
    coords: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n_vertices < 0:
            raise ValueError(f"negative vertex count {self.n_vertices}")
        if self.edges is not None:
            self.edges = np.ascontiguousarray(self.edges, dtype=np.int64)
            if self.edges.ndim != 2 or self.edges.shape[0] != 2:
                raise ValueError(
                    f"edges must have shape (2, E), got {self.edges.shape}"
                )
            if self.edges.size and (
                self.edges.min() < 0 or self.edges.max() >= self.n_vertices
            ):
                raise ValueError("edge endpoint out of range")
        if self.coords is not None:
            self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
            if self.coords.ndim != 2:
                raise ValueError(
                    f"coords must have shape (ndim, N), got {self.coords.shape}"
                )
            if self.coords.shape[1] != self.n_vertices:
                raise ValueError(
                    f"coords cover {self.coords.shape[1]} vertices, expected "
                    f"{self.n_vertices}"
                )
            if not np.isfinite(self.coords).all():
                raise ValueError("coords must be finite (found NaN or inf)")
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
            if self.weights.shape != (self.n_vertices,):
                raise ValueError(
                    f"weights must have shape ({self.n_vertices},), got "
                    f"{self.weights.shape}"
                )
            if not np.isfinite(self.weights).all():
                raise ValueError("weights must be finite (found NaN or inf)")
            if self.weights.size and self.weights.min() < 0:
                raise ValueError("vertex weights must be non-negative")

    @property
    def n_edges(self) -> int:
        return 0 if self.edges is None else self.edges.shape[1]

    def effective_weights(self) -> np.ndarray:
        """Weights, defaulting to unit weight per vertex."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.n_vertices, dtype=np.float64)


@dataclass
class PartitionResult:
    """Partitioner output: an owner map plus a modeled parallel cost."""

    owner_map: np.ndarray
    n_parts: int
    flops: float = 0.0
    iops: float = 0.0
    sync_rounds: int = 0
    comm_bytes: float = 0.0
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.owner_map = np.ascontiguousarray(self.owner_map, dtype=np.int64)
        if self.owner_map.ndim != 1:
            raise ValueError("owner map must be 1-D")
        if self.owner_map.size and (
            self.owner_map.min() < 0 or self.owner_map.max() >= self.n_parts
        ):
            raise ValueError(
                f"owner map entries must lie in [0, {self.n_parts})"
            )


class Partitioner(ABC):
    """Base class: implement :meth:`partition`, declare what you need."""

    #: registry name, set by @register_partitioner
    name: str = "?"
    needs_edges: bool = False
    needs_coords: bool = False

    @abstractmethod
    def partition(self, problem: PartitionProblem, n_parts: int) -> PartitionResult:
        """Partition ``problem`` into ``n_parts`` pieces."""

    def validate(self, problem: PartitionProblem, n_parts: int) -> None:
        """Common input checks; concrete partitioners call this first."""
        if n_parts < 1:
            raise ValueError(f"need at least one part, got {n_parts}")
        if self.needs_edges and problem.edges is None:
            raise ValueError(
                f"partitioner {self.name} needs LINK (connectivity) information"
            )
        if self.needs_coords and problem.coords is None:
            raise ValueError(
                f"partitioner {self.name} needs GEOMETRY (coordinate) information"
            )


_REGISTRY: dict[str, type[Partitioner]] = {}
#: a name the directive tokenizer reads as one IDENT
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def register_partitioner(name: str):
    """Class decorator: register a partitioner under an (upper-case) name.

    This is the hook user-written custom partitioners use too, as long as
    "the calling sequence matches" (a ``partition(problem, n_parts)``).
    The name must be one identifier, so that ``SET ... USING <name>``
    can name it from directive source.
    """
    if not _NAME.fullmatch(name):
        raise ValueError(
            f"partitioner name {name!r} is not an identifier "
            f"({_NAME.pattern}), so directive source could not name it"
        )

    def wrap(cls: type[Partitioner]) -> type[Partitioner]:
        key = name.upper()
        if key in _REGISTRY:
            raise ValueError(f"partitioner {key!r} already registered")
        cls.name = key
        _REGISTRY[key] = cls
        return cls

    return wrap


def get_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a registered partitioner by (case-insensitive) name."""
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_partitioners() -> list[str]:
    """Sorted names of all registered partitioners."""
    return sorted(_REGISTRY)
