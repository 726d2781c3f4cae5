"""Synthetic 3-D unstructured meshes.

The paper's meshes come from an unstructured Euler solver; what matters
for the runtime system is (a) the edge list's irregular connectivity,
(b) spatial coordinates for geometric partitioners, and (c) a node
numbering with no useful correspondence to mesh locality ("the way in
which the nodes of an irregular computational mesh are numbered
frequently does not have a useful correspondence to the connectivity
pattern", Section 1).  We generate graded point clouds (denser near a
'body'), tetrahedralize them with Delaunay, extract unique edges, and
randomly renumber the nodes.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass

import numpy as np

#: in-process cache of generated meshes, keyed by the full parameter tuple;
#: Delaunay on 50k graded points costs seconds, and every benchmark harness
#: regenerates the same handful of meshes
_MESH_CACHE: dict[tuple, "UnstructuredMesh"] = {}


@dataclass
class UnstructuredMesh:
    """An unstructured mesh: node coordinates plus a unique edge list."""

    coords: np.ndarray  # (ndim, N)
    edges: np.ndarray  # (2, E), each undirected edge once, e0 < e1

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[1]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[1]

    @property
    def ndim(self) -> int:
        return self.coords.shape[0]

    def renumbered(self, rng: np.random.Generator) -> "UnstructuredMesh":
        """Randomly permute node labels (coords move with their node)."""
        n = self.n_nodes
        perm = rng.permutation(n)  # new label of old node i is perm[i]
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        edges = perm[self.edges]
        edges = np.sort(edges, axis=0)
        return UnstructuredMesh(coords=self.coords[:, inv], edges=edges)


def edges_from_simplices(simplices: np.ndarray) -> np.ndarray:
    """Unique undirected edges (2, E) from a (M, k) simplex array."""
    simplices = np.asarray(simplices, dtype=np.int64)
    k = simplices.shape[1]
    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            pairs.append(simplices[:, [a, b]])
    edges = np.concatenate(pairs, axis=0)
    edges = np.sort(edges, axis=1)
    edges = np.unique(edges, axis=0)
    return edges.T.copy()


def _graded_points(n: int, ndim: int, rng: np.random.Generator) -> np.ndarray:
    """Point cloud graded toward an embedded 'body', like a CFD mesh.

    60% of points cluster near a small sphere at the domain center (the
    aircraft/airfoil surface region), the rest fill the far field --
    giving the strongly non-uniform densities real solver meshes have.
    """
    n_near = int(0.6 * n)
    n_far = n - n_near
    # near-field: radius ~ lognormal shell around r0
    directions = rng.normal(size=(n_near, ndim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True) + 1e-12
    radii = 0.15 + 0.12 * rng.lognormal(mean=0.0, sigma=0.6, size=n_near)
    near = 0.5 + directions * radii[:, None]
    far = rng.uniform(0.0, 1.0, size=(n_far, ndim))
    pts = np.clip(np.concatenate([near, far], axis=0), 0.0, 1.0)
    return pts


def clear_mesh_cache() -> None:
    """Drop every in-process cached mesh (tests use this)."""
    _MESH_CACHE.clear()


def _fresh_copy(mesh: UnstructuredMesh) -> UnstructuredMesh:
    """Copies protect cached meshes from caller-side mutation."""
    return UnstructuredMesh(coords=mesh.coords.copy(), edges=mesh.edges.copy())


def _disk_cache_path(cache_dir: str, key: tuple) -> str:
    n_nodes, ndim, seed, renumber, graded = key
    name = f"mesh_n{n_nodes}_d{ndim}_s{seed}_r{int(renumber)}_g{int(graded)}.npz"
    return os.path.join(cache_dir, name)


def _persist_mesh(cache_dir: str, key: tuple, mesh: UnstructuredMesh) -> None:
    """Write-then-rename so concurrent readers never see a partial .npz
    and an interrupted write cannot poison the cache."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _disk_cache_path(cache_dir, key)
    # savez appends .npz to names lacking it, so keep the suffix
    tmp = f"{path}.tmp{os.getpid()}.npz"
    try:
        np.savez(tmp, coords=mesh.coords, edges=mesh.edges)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_persisted(path: str) -> UnstructuredMesh | None:
    """Read one on-disk cache entry; damaged files are quarantined.

    A truncated or corrupted ``.npz`` (torn write from a killed process,
    disk damage) must never take the generator down: the bad file is
    moved aside to ``<path>.quarantine`` for post-mortem and ``None`` is
    returned so the caller regenerates and re-persists transparently.
    """
    try:
        with np.load(path) as data:
            coords = np.asarray(data["coords"])
            edges = np.asarray(data["edges"])
        if coords.ndim != 2 or edges.ndim != 2 or edges.shape[0] != 2:
            raise ValueError(
                f"cached mesh has wrong shapes: coords {coords.shape}, "
                f"edges {edges.shape}"
            )
        return UnstructuredMesh(coords=coords, edges=edges)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        try:
            os.replace(path, f"{path}.quarantine")
        except OSError:
            pass  # someone else already moved/removed it; regenerate anyway
        return None


def generate_mesh(
    n_nodes: int,
    ndim: int = 3,
    seed: int = 0,
    renumber: bool = True,
    graded: bool = True,
    cache: bool = True,
    cache_dir: str | None = None,
) -> UnstructuredMesh:
    """Generate a Delaunay mesh on ``n_nodes`` points.

    ``renumber=True`` (default) destroys any locality in the node
    numbering, which is what makes BLOCK distributions genuinely bad on
    these meshes (the Table 4 baseline).

    Generation is deterministic in its parameters, so results are cached
    in-process by default (``cache=False`` opts out); passing
    ``cache_dir`` additionally persists meshes on disk as ``.npz`` files
    (the benchmarks use ``benchmarks/out/``, so repeated bench runs skip
    the multi-second Delaunay step entirely).  Callers always receive a
    fresh copy, never the cached instance.  A damaged on-disk entry is
    quarantined and the mesh regenerated and re-persisted transparently.
    """
    if n_nodes < ndim + 2:
        raise ValueError(
            f"need at least {ndim + 2} nodes for a {ndim}-D mesh, got {n_nodes}"
        )
    if ndim not in (2, 3):
        raise ValueError(f"only 2-D and 3-D meshes supported, got ndim={ndim}")
    key = (int(n_nodes), int(ndim), int(seed), bool(renumber), bool(graded))
    if cache and key in _MESH_CACHE:
        mesh = _MESH_CACHE[key]
        if cache_dir is not None and not os.path.exists(
            _disk_cache_path(cache_dir, key)
        ):
            _persist_mesh(cache_dir, key, mesh)
        return _fresh_copy(mesh)
    if cache and cache_dir is not None:
        path = _disk_cache_path(cache_dir, key)
        if os.path.exists(path):
            mesh = _load_persisted(path)
            if mesh is not None:
                _MESH_CACHE[key] = mesh
                return _fresh_copy(mesh)
            # damaged entry was quarantined: fall through to regenerate
            # (and re-persist below)
    from scipy.spatial import Delaunay  # only a cache miss pays for SciPy

    rng = np.random.default_rng(seed)
    pts = (
        _graded_points(n_nodes, ndim, rng)
        if graded
        else rng.uniform(size=(n_nodes, ndim))
    )
    tri = Delaunay(pts)
    edges = edges_from_simplices(tri.simplices)
    mesh = UnstructuredMesh(coords=pts.T.copy(), edges=edges)
    if renumber:
        mesh = mesh.renumbered(rng)
    if cache:
        _MESH_CACHE[key] = _fresh_copy(mesh)
        if cache_dir is not None:
            _persist_mesh(cache_dir, key, mesh)
    return mesh
