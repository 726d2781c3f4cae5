"""The diff reads old indirection values off the saved product.

``repro.adapt.diff.old_targets`` derives what an indirection held at a
dirty position from the product: the iteration's localized reference,
through the data distribution (local) or the ghost-slot keys (ghost).
Every campaign here runs under :class:`SnapshotOracle`, the snapshot
bookkeeping it replaced, which checks each derived value and each
``changed`` set the driver hands to ``patch_product``.  The scenarios
cover what the derivation reads through: coalesced and per-pattern
groups (sibling groups over one layout included), BLOCK and RCB data
distributions, both iteration methods, a group with no ghosts at inspection, reused holes,
moved iterations, the first patch after a checkpoint restore, and a
patch after ``redistribute(moved=)`` forced a full inspection.
"""

import numpy as np
import pytest

from repro import AdaptiveExecutor
from repro.adapt.diff import old_targets
from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce
from repro.guard import save_checkpoint
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from tests.adapt.snapshot_oracle import SnapshotOracle

N_PROCS = 4


@pytest.fixture
def oracle(monkeypatch):
    return SnapshotOracle(monkeypatch)


def build(dist="RCB", **kwargs):
    mesh = generate_mesh(300, seed=4)
    machine = Machine(N_PROCS)
    prog = setup_euler_program(machine, mesh, seed=11, incremental=True, **kwargs)
    if dist == "RCB":
        prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
        prog.set_distribution("fmt", "G", "RCB")
        prog.redistribute("reg", "fmt")
    return mesh, prog, euler_edge_loop(mesh)


def churn(prog, mesh, step, fraction=0.05):
    """Re-target ``fraction`` of the edges (a tracked write): both
    endpoints at random on even steps; on odd steps the second endpoint
    collapses onto the first, retiring ghosts whose holes the next
    step's never-seen keys reuse."""
    rng = np.random.default_rng(500 + step)
    pick = np.sort(rng.choice(mesh.n_edges, int(fraction * mesh.n_edges), replace=False))
    if step % 2:
        prog.set_array_elements("end_pt2", pick, prog.arrays["end_pt1"].global_get(pick))
        return
    for name in ("end_pt1", "end_pt2"):
        prog.set_array_elements(name, pick, rng.integers(0, mesh.n_nodes, pick.size))


def campaign(prog, mesh, loop, steps, start=0):
    for step in range(start, start + steps):
        churn(prog, mesh, step)
        prog.forall(loop, n_times=1)


@pytest.mark.parametrize("method", ["almost_owner", "owner_computes"])
@pytest.mark.parametrize("dist", ["BLOCK", "RCB"])
@pytest.mark.parametrize("coalesce", [True, False])
def test_old_targets_match_the_snapshot(oracle, coalesce, dist, method):
    mesh, prog, loop = build(dist, coalesce_patterns=coalesce, iter_method=method)
    prog.forall(loop, n_times=1)
    campaign(prog, mesh, loop, 6)
    assert prog.inspector_runs == 1 and prog.patch_hits == 6
    assert oracle.patches == 6 and oracle.checked
    assert oracle.moved and oracle.reused


def test_old_targets_before_the_first_ghost(oracle):
    """A group with no ghosts at inspection: every old reference is local
    (its slot state holds no slot) until a patch brings the first ghosts."""
    n = 32
    prog = IrregularProgram(Machine(N_PROCS), incremental=True)
    prog.decomposition("d", n)
    prog.distribute("d", "block")
    prog.array("x", "d", values=np.random.default_rng(5).normal(size=n))
    prog.array("y", "d", values=np.zeros(n))
    prog.array("ia", "d", values=np.arange(n), dtype=np.int64)
    loop = ForallLoop(
        "sweep",
        n,
        [Reduce("add", ArrayRef("y", "ia"), lambda a: 2.0 * a, (ArrayRef("x", "ia"),))],
    )
    prog.forall(loop, n_times=1)
    product = prog.records[loop.name].product
    assert all(not pat.localized.slots.keys.size for pat in product.patterns.values())
    pos = np.arange(4, dtype=np.int64)
    assert np.array_equal(old_targets(product, prog.arrays, "ia", pos), pos)
    for step, vals in enumerate(([16, 17, 18, 19], [20, 17, 2, 3])):
        prog.set_array_elements("ia", pos, vals)
        prog.forall(loop, n_times=1)
        assert prog.patch_hits == step + 1
    # ia shares its DAD with y, which every sweep writes: the dirty
    # window is the whole array, and every position is checked
    assert oracle.patches == 2 and oracle.checked == 2 * n


def test_first_patch_after_restore_reads_the_restored_product(oracle, tmp_path):
    """Saved between a tracked write and the patch it triggers: the
    restored product, not the live arrays, says what the old values were."""
    path = tmp_path / "campaign.ckpt"
    mesh, p_a, loop = build()
    exe_a = AdaptiveExecutor(p_a, loop)
    exe_a.step()
    campaign(p_a, mesh, loop, 2)
    churn(p_a, mesh, 2)
    save_checkpoint(path, p_a, driver=exe_a)

    mesh, p_b, loop_b = build()
    AdaptiveExecutor.resume(path, p_b, loop_b)
    oracle.adopt(p_a.arrays, p_b.arrays, loop_b)
    checked = oracle.checked
    for prog, lp in ((p_a, loop), (p_b, loop_b)):
        prog.forall(lp, n_times=1)
        assert prog.last_resolution["rung"] == "patch"
    assert oracle.checked > checked
    assert np.array_equal(p_a.arrays["y"].to_global(), p_b.arrays["y"].to_global())


def test_patch_after_redistribute_moved(oracle):
    """A load-balance move voids the product (a full inspection under the
    moved distribution, whose local offsets are no longer sorted); the
    next patch derives old values through that distribution."""
    mesh, prog, loop = build()
    prog.forall(loop, n_times=1)
    rng = np.random.default_rng(9)
    gidx = np.sort(rng.choice(mesh.n_nodes, 40, replace=False))
    prog.redistribute("reg", moved=(gidx, rng.integers(0, N_PROCS, gidx.size)))
    prog.forall(loop, n_times=1)
    assert prog.inspector_runs == 2 and prog.last_resolution["rung"] == "full"
    campaign(prog, mesh, loop, 3)
    assert prog.patch_hits == 3 and oracle.patches == 3 and oracle.checked
