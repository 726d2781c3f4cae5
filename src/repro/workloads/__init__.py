"""Workload generators standing in for the paper's applications.

The paper times loops extracted from two real codes we cannot obtain:

* a 3-D unstructured-mesh Euler solver (Mavriplis) at 10K and 53K mesh
  points -- replaced by synthetic Delaunay tetrahedral meshes with
  randomized node numbering and the same edge-sweep loop structure
  (:mod:`~repro.workloads.mesh`, :mod:`~repro.workloads.euler`);
* the CHARMM 648-atom water-box electrostatic force loop -- replaced by
  a synthetic 216-molecule water box with a cutoff pair list and a
  Coulomb force sweep (:mod:`~repro.workloads.md`).

``scale_config`` maps the ``REPRO_SCALE`` environment variable to
problem sizes: ``small`` (CI-friendly, default) or ``paper``
(10K / 53K mesh points, full pair list).
"""

import os
from dataclasses import dataclass

from repro.workloads.mesh import (
    UnstructuredMesh,
    clear_mesh_cache,
    edges_from_simplices,
    generate_mesh,
)
from repro.workloads.euler import (
    euler_edge_loop,
    euler_flux_loop_statements,
    setup_euler_program,
    euler_sequential_reference,
)
from repro.workloads.md import (
    water_box,
    pair_list,
    md_force_loop,
    setup_md_program,
    md_sequential_reference,
)
from repro.workloads.adaptive import (
    EdgeUpdate,
    RefinementSchedule,
    apply_adaptation,
    build_refinement_schedule,
    refine_edges,
)
from repro.workloads.rebalance import (
    drifting_weights,
    rebalance_moves,
)


@dataclass(frozen=True)
class ScaleConfig:
    """Problem sizes for one benchmark scale."""

    name: str
    mesh_small: int
    mesh_large: int
    md_atoms: int
    sweep_iterations: int


_SCALES = {
    "tiny": ScaleConfig(
        name="tiny", mesh_small=200, mesh_large=400, md_atoms=162, sweep_iterations=10
    ),
    "small": ScaleConfig(
        name="small", mesh_small=1200, mesh_large=4000, md_atoms=648, sweep_iterations=100
    ),
    "medium": ScaleConfig(
        name="medium", mesh_small=4000, mesh_large=12000, md_atoms=648, sweep_iterations=100
    ),
    "paper": ScaleConfig(
        name="paper", mesh_small=10000, mesh_large=53000, md_atoms=648, sweep_iterations=100
    ),
}


def scale_config(name: str | None = None) -> ScaleConfig:
    """Resolve a scale by name or the REPRO_SCALE environment variable."""
    key = (name or os.environ.get("REPRO_SCALE", "small")).lower()
    try:
        return _SCALES[key]
    except KeyError:
        raise ValueError(
            f"unknown scale {key!r}; choose from {sorted(_SCALES)}"
        ) from None


__all__ = [
    "UnstructuredMesh",
    "clear_mesh_cache",
    "generate_mesh",
    "edges_from_simplices",
    "euler_edge_loop",
    "euler_flux_loop_statements",
    "setup_euler_program",
    "euler_sequential_reference",
    "water_box",
    "pair_list",
    "md_force_loop",
    "setup_md_program",
    "md_sequential_reference",
    "EdgeUpdate",
    "RefinementSchedule",
    "apply_adaptation",
    "build_refinement_schedule",
    "refine_edges",
    "drifting_weights",
    "rebalance_moves",
    "ScaleConfig",
    "scale_config",
]
