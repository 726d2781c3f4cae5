"""GeoCoL: the Geometry/Connectivity/Load partitioner-interface graph.

"Since the data structure that stores information on which data
partitioning is to be based can represent Geometrical, Connectivity
and/or Load information, we call this the GeoCoL data structure."
(Section 4.1.1.)

``construct_geocol`` is the runtime procedure the compiler emits for a
``CONSTRUCT`` directive (K1 in Figure 6): it assembles the standardized
representation from distributed program arrays -- coordinate arrays
(GEOMETRY), vertex weights (LOAD) and edge lists (LINK) -- and charges
the machine for the parallel graph generation the paper times as "Graph
Generation" in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.kernels import pair_counts
from repro.core.dad import DAD
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine
from repro.partitioners.base import PartitionProblem

#: modeled integer ops per edge: normalize endpoints, bucket by owner,
#: insert into the distributed graph structure
GEOCOL_EDGE_IOPS = 30.0
#: modeled integer ops per vertex carrying geometry or load data
GEOCOL_VERTEX_IOPS = 6.0
#: wire bytes per edge shipped to the GeoCoL owner of its endpoint
GEOCOL_EDGE_BYTES = 8


@dataclass
class GeoCoL:
    """Assembled GeoCoL graph (global arrays) plus source DAD tracking.

    ``source_dads`` maps every program array that fed the construction to
    the DAD it had at construction time -- the same conservative machinery
    that guards schedules guards GeoCoL graphs ("We employ the same
    method to track possible changes to arrays used in the construction
    of the data structure produced at runtime to link partitioners with
    programs", Section 3).
    """

    name: str
    n_vertices: int
    geometry: np.ndarray | None = None
    load: np.ndarray | None = None
    edges: np.ndarray | None = None
    source_dads: dict[str, DAD] = field(default_factory=dict)
    source_last_mod: dict[str, int] = field(default_factory=dict)

    def to_problem(self) -> PartitionProblem:
        """The standardized partitioner input."""
        return PartitionProblem(
            n_vertices=self.n_vertices,
            edges=self.edges,
            coords=self.geometry,
            weights=self.load,
        )

    @property
    def n_edges(self) -> int:
        return 0 if self.edges is None else self.edges.shape[1]


def construct_geocol(
    machine: Machine,
    name: str,
    n_vertices: int,
    geometry: list[DistArray] | None = None,
    load: DistArray | None = None,
    link: tuple[DistArray, DistArray] | None = None,
) -> GeoCoL:
    """Build a GeoCoL graph from distributed program arrays.

    Mirrors the directive
    ``CONSTRUCT G (N, GEOMETRY(k, x1..xk), LOAD(w), LINK(E, e1, e2))``:
    any combination of the three information kinds is allowed, but at
    least one must be present.
    """
    if n_vertices < 0:
        raise ValueError(f"negative vertex count {n_vertices}")
    if geometry is None and load is None and link is None:
        raise ValueError(
            f"GeoCoL {name!r} needs at least one of GEOMETRY, LOAD, LINK"
        )

    source_dads: dict[str, DAD] = {}

    coords = None
    if geometry is not None:
        if not geometry:
            raise ValueError("GEOMETRY needs at least one coordinate array")
        for arr in geometry:
            if arr.size != n_vertices:
                raise ValueError(
                    f"coordinate array {arr.name!r} has size {arr.size}, "
                    f"GeoCoL {name!r} has {n_vertices} vertices"
                )
            source_dads[arr.name] = DAD.of(arr)
        coords = np.stack(
            [np.asarray(arr.global_view(), dtype=np.float64) for arr in geometry]
        )

    weights = None
    if load is not None:
        if load.size != n_vertices:
            raise ValueError(
                f"load array {load.name!r} has size {load.size}, GeoCoL "
                f"{name!r} has {n_vertices} vertices"
            )
        source_dads[load.name] = DAD.of(load)
        weights = load.to_global().astype(np.float64)

    edges = None
    if link is not None:
        e1, e2 = link
        if e1.size != e2.size:
            raise ValueError(
                f"edge lists {e1.name!r} and {e2.name!r} have different sizes"
            )
        source_dads[e1.name] = DAD.of(e1)
        source_dads[e2.name] = DAD.of(e2)
        edges = np.stack(
            [
                np.asarray(e1.global_view(), dtype=np.int64),
                np.asarray(e2.global_view(), dtype=np.int64),
            ]
        )
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError(
                f"LINK endpoints must lie in [0, {n_vertices}) for GeoCoL {name!r}"
            )

    _charge_generation(machine, n_vertices, coords, weights, edges)
    return GeoCoL(
        name=name,
        n_vertices=n_vertices,
        geometry=coords,
        load=weights,
        edges=edges,
        source_dads=source_dads,
    )


def _charge_generation(machine, n_vertices, coords, weights, edges) -> None:
    """Model the parallel GeoCoL generation cost (Table 2 "Graph Generation").

    Edge records are bucketed by the (block-default) owner of their first
    endpoint and shipped there; vertex data is normalized in place.
    """
    n_procs = machine.n_procs
    per_vertex = 0.0
    if coords is not None:
        per_vertex += GEOCOL_VERTEX_IOPS * coords.shape[0]
    if weights is not None:
        per_vertex += GEOCOL_VERTEX_IOPS
    vchunk = -(-n_vertices // n_procs) if n_vertices else 0
    viops = [
        per_vertex * max(0, min(vchunk, n_vertices - p * vchunk))
        for p in range(n_procs)
    ]
    eiops = [0.0] * n_procs
    if edges is not None and edges.size:
        n_edges = edges.shape[1]
        echunk = -(-n_edges // n_procs)
        # edges start block-distributed over processors; each is examined
        # and shipped to the (block) owner of its first endpoint
        holder = np.arange(n_edges, dtype=np.int64) // echunk
        dest = np.minimum(edges[0] // max(vchunk, 1), n_procs - 1)
        counts = pair_counts(holder, dest, n_procs)
        for p in range(n_procs):
            eiops[p] = GEOCOL_EDGE_IOPS * float(counts[p].sum())
        off_diag = counts.copy()
        np.fill_diagonal(off_diag, 0)
        ship_p, ship_q = np.nonzero(off_diag)
        machine.exchange(
            src=ship_p,
            dst=ship_q,
            nbytes=off_diag[ship_p, ship_q] * GEOCOL_EDGE_BYTES,
        )
    machine.charge_compute_all(iops=[v + e for v, e in zip(viops, eiops)])
    machine.barrier()
