"""Cross-module integration: the full Figure 2 pipeline on every
workload under every applicable partitioner, verified against
sequential NumPy, plus determinism guarantees."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.partitioners import load_imbalance
from repro.workloads import generate_mesh, water_box
from repro.workloads.euler import (
    euler_edge_loop,
    euler_sequential_reference,
    setup_euler_program,
)
from repro.workloads.md import (
    md_force_loop,
    md_sequential_reference,
    setup_md_program,
)
from tests.workloads.helpers import degree


GEOMETRY_PARTITIONERS = ["RCB"]
LINK_PARTITIONERS = ["RSB"]


class TestEulerAllPartitioners:
    @pytest.fixture(scope="class")
    def mesh(self):
        return generate_mesh(400, seed=3)

    @pytest.mark.parametrize("name", GEOMETRY_PARTITIONERS)
    def test_geometry_partitioners(self, mesh, name):
        m = Machine(8)
        prog = setup_euler_program(m, mesh, seed=3)
        x = prog.arrays["x"].to_global()
        prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
        prog.set_distribution("fmt", "G", name)
        prog.redistribute("reg", "fmt")
        prog.forall(euler_edge_loop(mesh), n_times=3)
        want = euler_sequential_reference(x, mesh.edges, n_times=3)
        assert np.allclose(prog.arrays["y"].to_global(), want)

    @pytest.mark.parametrize("name", LINK_PARTITIONERS)
    def test_link_partitioners(self, mesh, name):
        m = Machine(8)
        prog = setup_euler_program(m, mesh, seed=3)
        x = prog.arrays["x"].to_global()
        prog.construct("G", mesh.n_nodes, link=("end_pt1", "end_pt2"))
        prog.set_distribution("fmt", "G", name)
        prog.redistribute("reg", "fmt")
        prog.forall(euler_edge_loop(mesh), n_times=3)
        want = euler_sequential_reference(x, mesh.edges, n_times=3)
        assert np.allclose(prog.arrays["y"].to_global(), want)

    def test_load_weighted_geocol(self, mesh):
        """LOAD information combined with GEOMETRY: heavier nodes get
        spread, and the sweep still computes correctly."""
        m = Machine(4)
        prog = setup_euler_program(m, mesh, seed=3)
        x = prog.arrays["x"].to_global()
        deg = degree(mesh).astype(np.float64)
        prog.array("w", "reg", values=deg)
        prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"], load="w")
        prog.set_distribution("fmt", "G", "RCB")
        prog.redistribute("reg", "fmt")
        prog.forall(euler_edge_loop(mesh), n_times=2)
        want = euler_sequential_reference(x, mesh.edges, n_times=2)
        assert np.allclose(prog.arrays["y"].to_global(), want)
        # weighted balance: per-processor degree sums are comparable
        owners = prog.arrays["x"].distribution.owner_map()
        assert load_imbalance(owners, 4, weights=deg) < 1.3

    def test_load_only_geocol(self, mesh):
        """A LOAD-only GeoCoL (Section 4.1.1: weights as the sole
        criterion) can only be partitioned by LOAD; the sweep stays exact
        and the per-processor degree sums stay balanced."""
        m = Machine(4)
        prog = setup_euler_program(m, mesh, seed=3)
        x = prog.arrays["x"].to_global()
        deg = degree(mesh).astype(np.float64)
        prog.array("w", "reg", values=deg)
        prog.construct("G", mesh.n_nodes, load="w")
        prog.set_distribution("fmt", "G", "LOAD")
        prog.redistribute("reg", "fmt")
        prog.forall(euler_edge_loop(mesh), n_times=3)
        want = euler_sequential_reference(x, mesh.edges, n_times=3)
        assert np.allclose(prog.arrays["y"].to_global(), want)
        owners = prog.arrays["x"].distribution.owner_map()
        assert load_imbalance(owners, 4, weights=deg) < 1.01


class TestMDPipeline:
    def test_md_with_rcb_repartition(self):
        m = Machine(4)
        prog, pairs = setup_md_program(m, n_atoms=324, cutoff=6.0, seed=1)
        coords = np.stack([prog.arrays[c].to_global() for c in ("rx", "ry", "rz")])
        charges = prog.arrays["q"].to_global()
        prog.construct("G", 324, geometry=["rx", "ry", "rz"])
        prog.set_distribution("fmt", "G", "RCB")
        prog.redistribute("atoms", "fmt")
        prog.forall(md_force_loop(pairs.shape[1]), n_times=3)
        want = md_sequential_reference(coords, charges, pairs, n_times=3)
        assert np.allclose(prog.arrays["fx"].to_global(), want)

    def test_md_rsb_on_pair_graph(self):
        m = Machine(4)
        prog, pairs = setup_md_program(m, n_atoms=324, cutoff=5.0, seed=1)
        coords = np.stack([prog.arrays[c].to_global() for c in ("rx", "ry", "rz")])
        charges = prog.arrays["q"].to_global()
        prog.construct("G", 324, link=("p1", "p2"))
        prog.set_distribution("fmt", "G", "RSB")
        prog.redistribute("atoms", "fmt")
        prog.forall(md_force_loop(pairs.shape[1]), n_times=2)
        want = md_sequential_reference(coords, charges, pairs, n_times=2)
        assert np.allclose(prog.arrays["fx"].to_global(), want)


class TestDeterminism:
    def test_identical_runs_identical_times(self):
        """The simulation is fully deterministic: same inputs give the
        same simulated clock to the last bit."""
        mesh = generate_mesh(300, seed=5)

        def run():
            m = Machine(8)
            prog = setup_euler_program(m, mesh, seed=5)
            prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
            prog.set_distribution("fmt", "G", "RCB")
            prog.redistribute("reg", "fmt")
            prog.forall(euler_edge_loop(mesh), n_times=5)
            return m.elapsed(), prog.arrays["y"].to_global()

        (t1, y1), (t2, y2) = run(), run()
        assert t1 == t2
        assert np.array_equal(y1, y2)

    def test_rsb_deterministic_across_runs(self):
        mesh = generate_mesh(300, seed=6)

        def owners():
            m = Machine(4)
            prog = setup_euler_program(m, mesh, seed=6)
            prog.construct("G", mesh.n_nodes, link=("end_pt1", "end_pt2"))
            prog.set_distribution("fmt", "G", "RSB")
            return prog.distfmts["fmt"].owner_map()

        assert np.array_equal(owners(), owners())

    def test_water_box_deterministic(self):
        a, qa = water_box(324, seed=4)
        b, qb = water_box(324, seed=4)
        assert np.array_equal(a, b) and np.array_equal(qa, qb)
