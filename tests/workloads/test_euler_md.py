"""Tests for the Euler and MD workloads end-to-end."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.workloads import (
    euler_edge_loop,
    euler_sequential_reference,
    generate_mesh,
    md_force_loop,
    md_sequential_reference,
    pair_list,
    scale_config,
    setup_euler_program,
    setup_md_program,
    water_box,
)


class TestEuler:
    def test_simulated_sweep_matches_reference(self):
        mesh = generate_mesh(150, seed=1)
        m = Machine(4)
        prog = setup_euler_program(m, mesh, seed=1)
        x = prog.arrays["x"].to_global()
        prog.forall(euler_edge_loop(mesh), n_times=3)
        want = euler_sequential_reference(x, mesh.edges, n_times=3)
        assert np.allclose(prog.arrays["y"].to_global(), want)

    def test_sweep_after_repartition_matches(self):
        mesh = generate_mesh(150, seed=2)
        m = Machine(4)
        prog = setup_euler_program(m, mesh, seed=2)
        x = prog.arrays["x"].to_global()
        prog.construct("G", mesh.n_nodes, link=("end_pt1", "end_pt2"))
        prog.set_distribution("fmt", "G", "RSB")
        prog.redistribute("reg", "fmt")
        prog.forall(euler_edge_loop(mesh), n_times=2)
        want = euler_sequential_reference(x, mesh.edges, n_times=2)
        assert np.allclose(prog.arrays["y"].to_global(), want)

    def test_geometry_arrays_present(self):
        mesh = generate_mesh(100, seed=0)
        prog = setup_euler_program(Machine(2), mesh)
        for name in ("xc", "yc", "zc"):
            assert name in prog.arrays
            assert prog.arrays[name].size == mesh.n_nodes


class TestWaterBox:
    def test_shape_and_charges(self):
        coords, charges = water_box(648, seed=0)
        assert coords.shape == (3, 648)
        assert charges.shape == (648,)
        # overall neutral, 216 O and 432 H
        assert abs(charges.sum()) < 1e-9
        assert (charges < 0).sum() == 216

    def test_density_is_liquid_like(self):
        coords, _ = water_box(648, seed=0)
        vol = np.prod(coords.max(axis=1) - coords.min(axis=1))
        mol_per_a3 = 216 / vol
        assert 0.02 < mol_per_a3 < 0.05  # ~0.033 for liquid water

    def test_non_multiple_of_three_rejected(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            water_box(100)

    def test_pair_list_properties(self):
        coords, _ = water_box(648, seed=0)
        pairs = pair_list(coords, cutoff=8.0)
        assert pairs.shape[0] == 2
        assert np.all(pairs[0] < pairs[1])
        d = coords[:, pairs[0]] - coords[:, pairs[1]]
        assert np.linalg.norm(d, axis=0).max() <= 8.0 + 1e-9
        # a dense-ish pair list: tens of neighbours per atom
        assert pairs.shape[1] > 10 * 648

    def test_pair_list_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(3, N\)"):
            pair_list(np.zeros((2, 10)))


class TestMDSweep:
    def test_simulated_force_matches_reference(self):
        m = Machine(4)
        prog, pairs = setup_md_program(m, n_atoms=648, cutoff=5.0, seed=0)
        coords = np.stack(
            [prog.arrays[c].to_global() for c in ("rx", "ry", "rz")]
        )
        charges = prog.arrays["q"].to_global()
        prog.forall(md_force_loop(pairs.shape[1]), n_times=2)
        want = md_sequential_reference(coords, charges, pairs, n_times=2)
        assert np.allclose(prog.arrays["fx"].to_global(), want)

    def test_schedule_reuse_in_md(self):
        m = Machine(4)
        prog, pairs = setup_md_program(m, n_atoms=648, cutoff=5.0)
        loop = md_force_loop(pairs.shape[1])
        prog.forall(loop, n_times=5)
        assert prog.inspector_runs == 1
        assert prog.reuse_hits == 4


class TestScaleConfig:
    def test_default_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_config().name == "small"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        cfg = scale_config()
        assert cfg.mesh_large == 53000

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert scale_config("small").name == "small"

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            scale_config("huge")
