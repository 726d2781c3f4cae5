"""Adaptive-mesh refinement scenario for the incremental inspector.

Adaptive CFD codes -- a core CHAOS use case -- change mesh connectivity
every few dozen time steps: a shock or vortex moves, the cells around it
are refined/coarsened, and the edge list is locally rewritten while the
rest of the mesh is untouched.  We model that as *local edge
re-targeting*: each adaptation epoch picks a refinement region (a ball
around a point that drifts across the domain), and every selected edge
inside it is reconnected to a geometrically nearby node -- the
connectivity change a local remeshing produces -- until a target
fraction of the mesh's edges has changed.  Node count, edge count, and
every array's distribution are untouched (sizes and DADs are fixed),
which is exactly the situation where the conservative Section 3 check
forces a full re-inspection and incremental patching shines.

:class:`RefinementSchedule` precomputes the per-epoch edge updates for a
mesh deterministically from a seed, so benchmark configurations
(full-re-inspect vs. reuse vs. incremental) replay identical adaptation
streams.  :func:`apply_adaptation` pushes one epoch's updates into an
``IrregularProgram`` through ``set_array_elements``, which records the
touched index ranges the diff kernel needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chaos.kernels import stable_argsort
from repro.workloads.mesh import UnstructuredMesh


@dataclass
class EdgeUpdate:
    """One adaptation epoch: new endpoint values for changed edges."""

    positions: np.ndarray  # edge indices rewritten this epoch (sorted)
    end1: np.ndarray  # new end_pt1 values at those positions
    end2: np.ndarray  # new end_pt2 values at those positions

    @property
    def n_changed(self) -> int:
        return int(self.positions.size)


def refine_edges(
    mesh: UnstructuredMesh,
    edges: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    center: np.ndarray | None = None,
) -> EdgeUpdate:
    """Re-target ``fraction`` of the edges inside a refinement region.

    Edges whose first endpoint lies nearest ``center`` are selected
    (growing the ball until the fraction is met -- a localized patch of
    the mesh, not a uniform sample) and their second endpoint is
    reconnected to a node spatially close to the first: the new local
    connectivity a refinement/retriangulation pass produces.  Returns
    the update; ``edges`` is not modified.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n_edges = edges.shape[1]
    n_change = max(1, int(round(fraction * n_edges)))
    coords = mesh.coords  # (ndim, N)
    if center is None:
        center = coords[:, rng.integers(0, mesh.n_nodes)]
    # distance of each edge's first endpoint to the refinement center,
    # per node and then gathered: the same per-column sums, on fewer columns
    d = np.linalg.norm(coords - center[:, None], axis=0)[edges[0]]
    positions = np.sort(np.argpartition(d, n_change - 1)[:n_change])

    # reconnect each selected edge to a node near its first endpoint:
    # spatial ordering along a random direction gives cheap "nearby"
    # neighbours without a k-d tree
    direction = rng.normal(size=mesh.ndim)
    direction /= np.linalg.norm(direction) + 1e-12
    key = direction @ coords  # (N,) projection
    order = stable_argsort(key)
    rank = np.empty(mesh.n_nodes, dtype=np.int64)
    rank[order] = np.arange(mesh.n_nodes)
    e1 = edges[0, positions]
    hop = rng.integers(1, 8, size=n_change) * rng.choice((-1, 1), size=n_change)
    new_rank = np.clip(rank[e1] + hop, 0, mesh.n_nodes - 1)
    new_e2 = order[new_rank]
    # self-loops would make a degenerate edge; nudge them one rank over
    self_loop = new_e2 == e1
    if self_loop.any():
        new_rank[self_loop] = np.where(
            new_rank[self_loop] + 1 < mesh.n_nodes,
            new_rank[self_loop] + 1,
            new_rank[self_loop] - 1,
        )
        new_e2 = order[new_rank]
    return EdgeUpdate(
        positions=positions.astype(np.int64),
        end1=e1.astype(np.int64),
        end2=new_e2.astype(np.int64),
    )


@dataclass
class RefinementSchedule:
    """Deterministic multi-epoch refinement stream for one mesh."""

    mesh: UnstructuredMesh
    fraction: float
    updates: list[EdgeUpdate]
    edges_per_epoch: list[np.ndarray]  # full edge array after each epoch

    @property
    def n_epochs(self) -> int:
        return len(self.updates)


def build_refinement_schedule(
    mesh: UnstructuredMesh,
    fraction: float,
    n_epochs: int,
    seed: int = 0,
) -> RefinementSchedule:
    """Precompute ``n_epochs`` refinement epochs at a change fraction.

    The refinement center performs a deterministic drift (new random
    center each epoch), modeling a feature moving through the domain.
    ``edges_per_epoch[e]`` is the full edge list after epoch ``e`` --
    what a from-scratch inspection at that point sees.
    """
    rng = np.random.default_rng(seed)
    edges = mesh.edges.copy()
    updates: list[EdgeUpdate] = []
    edges_per_epoch: list[np.ndarray] = []
    for _ in range(n_epochs):
        upd = refine_edges(mesh, edges, fraction, rng)
        edges = edges.copy()
        edges[0, upd.positions] = upd.end1
        edges[1, upd.positions] = upd.end2
        updates.append(upd)
        edges_per_epoch.append(edges)
    return RefinementSchedule(
        mesh=mesh, fraction=fraction, updates=updates, edges_per_epoch=edges_per_epoch
    )


def apply_adaptation(prog, update: EdgeUpdate) -> None:
    """Write one epoch's edge updates into a program's edge arrays.

    Uses ``set_array_elements`` so the modification registry records the
    touched ranges -- the region information incremental inspection
    diffs against.  Both endpoint arrays are written (end_pt1 values are
    unchanged by :func:`refine_edges`, but a real remesher rewrites the
    whole edge record; the diff kernel discovers the values are equal).
    """
    prog.set_array_elements("end_pt1", update.positions, update.end1)
    prog.set_array_elements("end_pt2", update.positions, update.end2)
