"""Tests for the unstructured mesh generator."""

import os

import numpy as np
import pytest

from repro.workloads import edges_from_simplices, generate_mesh
from repro.workloads.mesh import UnstructuredMesh
from tests.workloads.helpers import degree


class TestEdgesFromSimplices:
    def test_single_triangle(self):
        edges = edges_from_simplices(np.array([[0, 1, 2]]))
        assert edges.shape == (2, 3)
        assert set(map(tuple, edges.T)) == {(0, 1), (0, 2), (1, 2)}

    def test_shared_edges_deduplicated(self):
        edges = edges_from_simplices(np.array([[0, 1, 2], [1, 2, 3]]))
        assert edges.shape[1] == 5  # not 6: (1,2) shared

    def test_tetrahedron(self):
        edges = edges_from_simplices(np.array([[0, 1, 2, 3]]))
        assert edges.shape[1] == 6


class TestGenerateMesh:
    def test_basic_properties(self):
        mesh = generate_mesh(200, seed=1)
        assert mesh.n_nodes == 200
        assert mesh.ndim == 3
        assert mesh.edges.min() >= 0 and mesh.edges.max() < 200
        # Delaunay tet meshes have ~6-8 edges per node
        assert 3 * 200 < mesh.n_edges < 10 * 200

    def test_edges_unique_and_ordered(self):
        mesh = generate_mesh(150, seed=2)
        assert np.all(mesh.edges[0] < mesh.edges[1])
        pairs = set(map(tuple, mesh.edges.T))
        assert len(pairs) == mesh.n_edges

    def test_deterministic(self):
        a = generate_mesh(100, seed=5)
        b = generate_mesh(100, seed=5)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.coords, b.coords)

    def test_2d_mesh(self):
        mesh = generate_mesh(100, ndim=2, seed=0)
        assert mesh.ndim == 2
        assert mesh.n_edges > mesh.n_nodes  # planar triangulation

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least"):
            generate_mesh(3)

    def test_bad_ndim(self):
        with pytest.raises(ValueError, match="2-D and 3-D"):
            generate_mesh(100, ndim=4)

    def test_renumbering_destroys_block_locality(self):
        """The property Table 4 depends on: after random renumbering,
        consecutive node ids are NOT spatially close, so block
        distributions cut many edges."""
        shuffled = generate_mesh(500, seed=3, renumber=True)
        # locality baseline: renumber nodes by spatial bins (snake order)
        x, y, z = shuffled.coords
        order = np.lexsort((z, np.floor(y * 8), np.floor(x * 8)))
        perm = np.empty(500, dtype=np.int64)
        perm[order] = np.arange(500)  # new label of old node
        sorted_mesh = UnstructuredMesh(
            coords=shuffled.coords[:, order],
            edges=np.sort(perm[shuffled.edges], axis=0),
        )

        def block_cut(mesh, parts=8):
            chunk = -(-mesh.n_nodes // parts)
            owners = np.arange(mesh.n_nodes) // chunk
            return int((owners[mesh.edges[0]] != owners[mesh.edges[1]]).sum())

        assert sorted_mesh.n_edges == shuffled.n_edges
        # shuffled numbering cuts nearly every edge (BLOCK ~ random owners)...
        assert block_cut(shuffled) > 0.7 * shuffled.n_edges
        # ...and clearly more than a spatially ordered numbering would
        assert block_cut(shuffled) > 1.4 * block_cut(sorted_mesh)

    def test_renumbering_preserves_geometry_topology(self):
        mesh = generate_mesh(120, seed=4, renumber=False)
        rng = np.random.default_rng(0)
        renamed = mesh.renumbered(rng)
        # degree multiset is invariant under renumbering
        assert sorted(degree(mesh).tolist()) == sorted(degree(renamed).tolist())
        # edge lengths are invariant too
        def lengths(m):
            d = m.coords[:, m.edges[0]] - m.coords[:, m.edges[1]]
            return np.sort(np.linalg.norm(d, axis=0))
        assert np.allclose(lengths(mesh), lengths(renamed))

    def test_graded_mesh_has_density_contrast(self):
        mesh = generate_mesh(1000, seed=7, graded=True)
        center = np.linalg.norm(mesh.coords - 0.5, axis=0)
        near = (center < 0.3).sum()
        # far more than the uniform share (~11% of unit cube volume)
        assert near > 0.3 * mesh.n_nodes


class TestDiskCacheSelfHealing:
    """A damaged on-disk mesh entry is quarantined and regenerated."""

    def fill(self, tmp_path):
        from repro.workloads.mesh import _disk_cache_path, clear_mesh_cache

        cache_dir = str(tmp_path)
        ref = generate_mesh(100, seed=6, cache_dir=cache_dir)
        path = _disk_cache_path(
            cache_dir, (100, 3, 6, True, True)
        )
        assert os.path.exists(path)
        clear_mesh_cache()  # force the next lookup through the disk
        return cache_dir, path, ref

    def reload(self, cache_dir):
        return generate_mesh(100, seed=6, cache_dir=cache_dir)

    def assert_healed(self, cache_dir, path, ref):
        mesh = self.reload(cache_dir)
        assert np.array_equal(mesh.coords, ref.coords)
        assert np.array_equal(mesh.edges, ref.edges)
        # the bad file was moved aside for post-mortem ...
        assert os.path.exists(f"{path}.quarantine")
        # ... and a good entry re-persisted in its place
        assert os.path.exists(path)
        from repro.workloads.mesh import clear_mesh_cache

        clear_mesh_cache()
        again = self.reload(cache_dir)
        assert np.array_equal(again.edges, ref.edges)

    def test_truncated_npz_is_quarantined_and_regenerated(self, tmp_path):
        cache_dir, path, ref = self.fill(tmp_path)
        with open(path, "r+b") as f:
            f.truncate(50)
        self.assert_healed(cache_dir, path, ref)

    def test_garbage_file_is_quarantined_and_regenerated(self, tmp_path):
        cache_dir, path, ref = self.fill(tmp_path)
        with open(path, "wb") as f:
            f.write(b"not a zip archive at all")
        self.assert_healed(cache_dir, path, ref)

    def test_wrong_contents_are_quarantined(self, tmp_path):
        cache_dir, path, ref = self.fill(tmp_path)
        np.savez(f"{path}.tmp.npz", something_else=np.arange(4))
        os.replace(f"{path}.tmp.npz", path)
        self.assert_healed(cache_dir, path, ref)

    def test_wrong_shapes_are_quarantined(self, tmp_path):
        cache_dir, path, ref = self.fill(tmp_path)
        np.savez(
            f"{path}.tmp.npz",
            coords=np.zeros((3, 10)),
            edges=np.zeros((5, 7), dtype=np.int64),  # not (2, E)
        )
        os.replace(f"{path}.tmp.npz", path)
        self.assert_healed(cache_dir, path, ref)

    def test_intact_cache_is_not_touched(self, tmp_path):
        cache_dir, path, ref = self.fill(tmp_path)
        mesh = self.reload(cache_dir)
        assert np.array_equal(mesh.edges, ref.edges)
        assert not os.path.exists(f"{path}.quarantine")
