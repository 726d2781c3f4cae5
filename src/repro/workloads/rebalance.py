"""Load-imbalance-driven repartitioning (Table 2's epoch loop).

The paper's mapper/coupler story: an adaptive computation's per-node
work drifts over time (a shock or refinement front concentrates work),
the load balancer responds by migrating a *small* set of elements
between processors, and every distributed array is remapped before the
sweep continues.  Rebuilding the remap schedule from scratch costs
O(N) per epoch even when only a handful of elements actually move;
:func:`repro.distribution.irregular.repartition_stable` plus
``redistribute(..., moved=...)`` makes the remap cost proportional to
the migration delta instead.

This module holds the two pieces of that loop a driver needs:
:func:`drifting_weights`, the deterministic per-epoch work model (a
Gaussian hotspot whose center walks across the domain), and
:func:`rebalance_moves`, the greedy balancer turning a weighted
distribution into an element-move list.  The ``rebalance_remap``
workload of ``benchmarks/perf`` drives them step by step.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution
from repro.workloads.mesh import UnstructuredMesh


def drifting_weights(
    mesh: UnstructuredMesh, epoch: int, seed: int = 0, amplitude: float = 8.0
) -> np.ndarray:
    """Per-node work weights with a hotspot that drifts each epoch.

    Weight is ``1 + amplitude * exp(-(d/r)^2)`` where ``d`` is the
    distance to the epoch's hotspot center -- a new deterministic
    center per epoch, modeling a feature moving through the domain.
    Independent of any distribution, so full-rebuild and incremental
    remaps see the identical load signal.
    """
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, mesh.n_nodes, size=epoch + 1)
    center = mesh.coords[:, centers[epoch]]
    d = np.linalg.norm(mesh.coords - center[:, None], axis=0)
    radius = 0.25 * (d.max() + 1e-12)
    return 1.0 + amplitude * np.exp(-((d / radius) ** 2))


def rebalance_moves(
    dist: Distribution, weights, slack: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy element migration restoring load balance within ``slack``.

    Overloaded processors (load above ``mean * (1 + slack)``) shed their
    heaviest elements, one at a time, to the currently lightest
    processor -- the classic greedy repartitioner.  Fully deterministic:
    donors are visited heaviest-first, elements shed by descending
    weight with global index as tie-break.  Returns ``(move_g,
    move_to)`` ready for ``redistribute(..., moved=...)``; the move
    count scales with the *imbalance*, not the mesh size.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = dist.n_procs
    if w.shape != (dist.size,):
        raise ValueError(f"expected {dist.size} weights, got shape {w.shape}")
    g_all = np.arange(dist.size, dtype=np.int64)
    owner = np.asarray(dist.owner(g_all), dtype=np.int64)
    loads = np.bincount(owner, weights=w, minlength=n).astype(np.float64)
    target = loads.sum() / n
    hi = target * (1.0 + slack)
    move_g: list[int] = []
    move_to: list[int] = []
    donors = np.flatnonzero(loads > hi)
    for p in donors[np.argsort(-loads[donors], kind="stable")]:
        mine = np.flatnonzero(owner == p)
        shed_order = mine[np.lexsort((mine, -w[mine]))]
        for g in shed_order:
            if loads[p] <= hi:
                break
            q = int(np.argmin(loads))
            if q == p or loads[q] + w[g] >= loads[p] - w[g]:
                break  # no receiver this move would actually help
            move_g.append(int(g))
            move_to.append(q)
            loads[p] -= w[g]
            loads[q] += w[g]
    return (
        np.asarray(move_g, dtype=np.int64),
        np.asarray(move_to, dtype=np.int64),
    )
