"""The patch rung's schedule, read off the patched slot state, equals the
merge patcher it replaced.

``repro.adapt.patch._slot_schedule`` builds a patched group's schedule
from its live slots with the constructor a cold inspection uses.  The
merge patcher (``CommSchedule.patched`` fed by ``_patch_schedule``) is
kept in ``tests/chaos/schedule_oracle.py``; here every group of every
patch is rebuilt by it from the same inputs and every schedule array
must be equal: pairs, flat arrays, wire permutation, pack/unpack arrays,
ghost positions, memory charges, ghost sizes and signature.  Scenarios:
1 / 5 / 25 % edge churn at P = 4 and 16 with pattern coalescing on and
off (every Euler loop has twin groups), a group with no ghosts at
inspection, and the first patch after a checkpoint restore (the sorted
slot index is not saved, so it is rebuilt).
"""

import numpy as np
import pytest

from repro import AdaptiveExecutor
from repro.adapt import patch as patch_mod
from repro.adapt.state import build_group_state, product_groups
from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop
from tests.adapt import test_lazy_state as lazy
from tests.adapt.test_patch_oracle import build_program, mutate
from tests.chaos import schedule_oracle as oracle


@pytest.fixture
def compared(monkeypatch):
    """Wrap ``_patch_group``: every patched group's schedule is checked
    against the oracle's; returns one record per checked group."""
    seen = []
    drive = patch_mod._patch_group

    def checking(ctx, gstate, member_keys, ttable, sib):
        unindexed = gstate.sorted_comp is None
        patch = drive(ctx, gstate, member_keys, ttable, sib)
        if patch is not None:
            old = ctx.product.patterns[member_keys[0]].localized.schedule
            want = oracle.patch_schedule(gstate, old, patch.slots, patch.alloc)
            oracle.assert_schedules_equal(patch.schedule, want, context=str(member_keys))
            seen.append(
                {
                    "twin": sib is not None,
                    "unindexed": unindexed,
                    "old_ghosts": old.ghost_total(),
                    "elements": patch.schedule._n_elements,
                }
            )
        return patch

    monkeypatch.setattr(patch_mod, "_patch_group", checking)
    return seen


@pytest.mark.parametrize("fraction", [0.01, 0.05, 0.25])
@pytest.mark.parametrize("n_procs", [4, 16])
@pytest.mark.parametrize("coalesce", [True, False])
def test_slot_schedule_equals_merge_oracle(fraction, n_procs, coalesce, compared):
    mesh = generate_mesh(400, seed=9)
    rng = np.random.default_rng(77 + n_procs + int(coalesce))
    _, prog = build_program(mesh, True, n_procs, coalesce)
    loop = euler_edge_loop(mesh)
    edges = mesh.edges.copy()
    prog.forall(loop, n_times=1)
    epochs = 3
    for _ in range(epochs):
        edges, pick = mutate(edges, mesh.n_nodes, rng, fraction=fraction)
        prog.set_array_elements("end_pt1", pick, edges[0, pick])
        prog.set_array_elements("end_pt2", pick, edges[1, pick])
        prog.forall(loop, n_times=1)
    assert prog.patch_hits == epochs and prog.inspector_runs == 1
    groups = len(product_groups(prog.records[loop.name].product))
    assert len(compared) == epochs * groups
    # x/y siblings: half the groups take their sibling's schedule
    assert sum(r["twin"] for r in compared) == len(compared) // 2 >= 1


def test_group_with_no_ghosts_at_inspection(compared):
    n = 32
    prog = IrregularProgram(Machine(4), incremental=True)
    prog.decomposition("d", n)
    prog.distribute("d", "block")
    rng = np.random.default_rng(5)
    prog.array("x", "d", values=rng.normal(size=n))
    prog.array("y", "d", values=np.zeros(n))
    # identity indirection: every reference is iteration-local
    prog.array("ia", "d", values=np.arange(n), dtype=np.int64)
    # y(i) and x(i) hold every iteration at home, so a retargeted x(ia)
    # reference becomes the group's first ghost
    loop = ForallLoop(
        "sweep",
        n,
        [
            Reduce(
                "add",
                ArrayRef("y"),
                lambda a, b: a + 2.0 * b,
                (ArrayRef("x"), ArrayRef("x", "ia")),
            )
        ],
    )
    prog.forall(loop, n_times=1)
    prog.set_array_elements("ia", np.array([0, 1, 2]), np.array([16, 17, 18]))
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1
    assert compared and all(r["old_ghosts"] == 0 for r in compared)
    assert all(r["elements"] > 0 for r in compared)


def test_first_patch_after_checkpoint_restore(tmp_path, compared):
    path = tmp_path / "early.ckpt"
    mesh, _, prog, loop = lazy.build()
    exe = AdaptiveExecutor(prog, loop)
    exe.step()
    exe.checkpoint(path)
    mesh, _, prog_b, loop_b = lazy.build()
    exe_b = AdaptiveExecutor.resume(path, prog_b, loop_b)
    state = prog_b.adapt.state_for(loop_b.name, "verify")
    assert all(g.sorted_comp is None for g in state.groups.values())
    lazy.mutate(prog_b, mesh, 0)
    exe_b.step()
    first = len(compared)
    # the first patch rebuilt the index it then merged and read
    assert any(not r["twin"] for r in compared[:first])
    assert all(r["unindexed"] for r in compared[:first])
    lazy.mutate(prog_b, mesh, 1)
    exe_b.step()
    assert exe_b.mode_counts()["patch"] == 2
    assert len(compared) > first
    assert not any(r["unindexed"] for r in compared[first:])


@pytest.mark.parametrize("coalesce", [True, False])
def test_fresh_slot_state_reads_back_the_inspected_schedule(coalesce):
    """On a slot state with no holes -- a fresh inspection's -- the
    builder reproduces ``localize``'s schedule array for array."""
    mesh = generate_mesh(400, seed=9)
    machine, prog = build_program(mesh, True, 16, coalesce)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    product = prog.records[loop.name].product
    for member_keys in product_groups(product):
        dist = prog.arrays[member_keys[0][0]].distribution
        state = build_group_state(product, dist, member_keys)
        want = product.patterns[member_keys[0]].localized.schedule
        got = patch_mod._slot_schedule(machine, want.dist_signature, state)
        oracle.assert_schedules_equal(got, want, context=str(member_keys))
