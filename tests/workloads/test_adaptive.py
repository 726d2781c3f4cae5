"""The refinement stream: node-space distances and the kernel sort
reproduce the edge-space formula bit for bit."""

import numpy as np
import pytest

from repro.workloads import generate_mesh
from repro.workloads.adaptive import EdgeUpdate, build_refinement_schedule, refine_edges
from repro.workloads.mesh import UnstructuredMesh


def reference_refine_edges(mesh, edges, fraction, rng):
    """The edge-space formula: a norm over every edge's gathered
    coordinates and a merge-sort stable argsort of the projection."""
    n_change = max(1, int(round(fraction * edges.shape[1])))
    coords = mesh.coords
    center = coords[:, rng.integers(0, mesh.n_nodes)]
    d = np.linalg.norm(coords[:, edges[0]] - center[:, None], axis=0)
    positions = np.sort(np.argpartition(d, n_change - 1)[:n_change])
    direction = rng.normal(size=mesh.ndim)
    direction /= np.linalg.norm(direction) + 1e-12
    order = np.argsort(direction @ coords, kind="stable")
    rank = np.empty(mesh.n_nodes, dtype=np.int64)
    rank[order] = np.arange(mesh.n_nodes)
    e1 = edges[0, positions]
    hop = rng.integers(1, 8, size=n_change) * rng.choice((-1, 1), size=n_change)
    new_rank = np.clip(rank[e1] + hop, 0, mesh.n_nodes - 1)
    new_e2 = order[new_rank]
    self_loop = new_e2 == e1
    if self_loop.any():
        new_rank[self_loop] = np.where(
            new_rank[self_loop] + 1 < mesh.n_nodes,
            new_rank[self_loop] + 1,
            new_rank[self_loop] - 1,
        )
        new_e2 = order[new_rank]
    return EdgeUpdate(positions.astype(np.int64), e1.astype(np.int64), new_e2.astype(np.int64))


def reference_schedule(mesh, fraction, n_epochs, seed):
    rng = np.random.default_rng(seed)
    edges = mesh.edges.copy()
    updates, per_epoch = [], []
    for _ in range(n_epochs):
        upd = reference_refine_edges(mesh, edges, fraction, rng)
        edges = edges.copy()
        edges[0, upd.positions] = upd.end1
        edges[1, upd.positions] = upd.end2
        updates.append(upd)
        per_epoch.append(edges)
    return updates, per_epoch


def twin_mesh(n=300, seed=0):
    """Every node has a twin at the same coordinates: exact ties in both
    the distances and the projection, which the stable order must break
    by node id exactly as the merge sort does."""
    base = generate_mesh(n, seed=seed)
    coords = np.concatenate([base.coords, base.coords], axis=1)
    edges = np.concatenate([base.edges, base.edges + n], axis=1)
    return UnstructuredMesh(coords=coords, edges=edges)


def assert_same_stream(mesh, fraction, n_epochs, seed):
    got = build_refinement_schedule(mesh, fraction, n_epochs, seed=seed)
    want_updates, want_edges = reference_schedule(mesh, fraction, n_epochs, seed)
    for g, w in zip(got.updates, want_updates, strict=True):
        for field in ("positions", "end1", "end2"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
    for a, b in zip(got.edges_per_epoch, want_edges, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_schedule_matches_the_edge_space_formula(seed):
    assert_same_stream(generate_mesh(2000, seed=1), 0.05, 10, seed)


@pytest.mark.parametrize("seed", range(3))
def test_ties_break_like_the_merge_sort(seed):
    assert_same_stream(twin_mesh(), 0.2, 4, seed)


def test_update_shape_and_bad_fraction():
    mesh = generate_mesh(500, seed=2)
    upd = refine_edges(mesh, mesh.edges, 0.1, np.random.default_rng(0))
    assert upd.n_changed == round(0.1 * mesh.n_edges)
    assert np.all(np.diff(upd.positions) > 0)
    assert np.array_equal(upd.end1, mesh.edges[0, upd.positions])
    assert not np.any(upd.end1 == upd.end2)
    with pytest.raises(ValueError, match="fraction"):
        refine_edges(mesh, mesh.edges, 0.0, np.random.default_rng(0))
