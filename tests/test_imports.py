"""``import repro`` loads NumPy and no SciPy.

SciPy (~220 modules, BLAS/LAPACK included) is imported inside the
functions that call it: RSB, Delaunay on a mesh-cache miss and the MD
pair list.  Each check runs in a fresh interpreter, where no other test
can have loaded SciPy first.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: the packages a cold process (a CLI, a serve worker, the benchmark) imports
PACKAGES = ["repro", "repro.workloads", "repro.lang", "repro.serve", "repro.obs",
            "repro.bench", "repro.adapt", "repro.guard", "repro.partitioners"]


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and return the dict it leaves in
    ``out``, with the names of the loaded SciPy modules under ``"scipy"``."""
    code = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        out["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps(out))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_every_package_loads_no_scipy():
    out = run_fresh(f"""
        import importlib, pkgutil
        import repro
        walked = [i.name for i in pkgutil.walk_packages(repro.__path__, "repro.") if i.ispkg]
        for name in {PACKAGES!r} + walked:
            importlib.import_module(name)
        out = {{"walked": walked}}
    """)
    assert set(PACKAGES) - {"repro"} <= set(out["walked"])
    assert out["scipy"] == []


def test_every_scipy_call_site_imports_what_it_uses(tmp_path):
    """A fresh mesh cache directory, so the mesh is a miss (Delaunay);
    the RSB bisection is large enough for its LOBPCG branch."""
    out = run_fresh(f"""
        from repro.partitioners import PartitionProblem, edge_cut, get_partitioner
        from repro.workloads import generate_mesh, pair_list, water_box
        mesh = generate_mesh(300, seed=0, cache_dir={str(tmp_path)!r})
        prob = PartitionProblem(mesh.n_nodes, edges=mesh.edges)
        owners = get_partitioner("RSB").partition(prob, 2).owner_map
        out = {{
            "n_edges": mesh.n_edges,
            "rsb_cut": int(edge_cut(mesh.edges, owners)),
            "rsb_sizes": [int((owners == p).sum()) for p in range(2)],
            "pairs": int(pair_list(water_box(81)[0], cutoff=5.0).shape[1]),
        }}
    """)
    assert out["n_edges"] > 3 * 300
    assert 0 < out["rsb_cut"] < out["n_edges"] // 4
    assert out["rsb_sizes"] == [150, 150]
    assert out["pairs"] > 0
    assert {"scipy.spatial", "scipy.sparse.csgraph", "scipy.sparse.linalg"} <= set(out["scipy"])


def test_a_mesh_cache_hit_loads_no_scipy(tmp_path):
    def mesh_crc():
        return run_fresh(f"""
            import zlib
            from repro.workloads import generate_mesh
            mesh = generate_mesh(200, seed=3, cache_dir={str(tmp_path)!r})
            out = {{"crc": zlib.crc32(mesh.coords.tobytes() + mesh.edges.tobytes())}}
        """)

    miss, hit = mesh_crc(), mesh_crc()
    assert "scipy.spatial" in miss["scipy"]
    assert hit["scipy"] == []
    assert hit["crc"] == miss["crc"]
