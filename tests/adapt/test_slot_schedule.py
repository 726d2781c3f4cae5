"""The patch rung's schedule, read off the patched slot state, equals the
merge patcher it replaced.

``GroupState.schedule`` builds a patched group's schedule from its live
slots with the builder a cold inspection uses
(``SlotState.schedule``).  The
merge patcher (``CommSchedule.patched`` fed by ``_patch_schedule``) is
kept in ``tests/chaos/schedule_oracle.py``; here every group of every
patch is rebuilt by it from the same inputs and every schedule array
must be equal: pairs, per-element entries, unpack positions, memory
charges, ghost sizes and signature.  Scenarios:
1 / 5 / 25 % edge churn at P = 4 and 16 with pattern coalescing on and
off (every Euler loop has sibling groups), a group with no ghosts at
inspection, and the first patches after a checkpoint restore (the
sorted slot index is not saved: the restore builds it to read the
schedule off, and the first patch merges into it).
"""

import numpy as np
import pytest

from repro import AdaptiveExecutor
from repro.adapt import patch as patch_mod
from repro.adapt.state import build_group_state
from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce
from repro.core.inspector import group_members
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
            loc = ctx.product.patterns[member_keys[0]].localized
            old = loc.schedule
            want = oracle.patch_schedule(loc.slots, old, patch.slots, patch.alloc)
            oracle.assert_schedules_equal(patch.schedule, want, context=str(member_keys))
            seen.append(
                {
                    "shared": sib is not None,
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
    groups = len(prog.records[loop.name].product.groups)
    assert len(compared) == epochs * groups
    # x/y siblings: half the groups take their sibling's schedule
    assert sum(r["shared"] for r in compared) == len(compared) // 2 >= 1


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
    state = prog_b.records[loop_b.name].product.adapt_state  # restored with it
    # the restore built each index to read the schedule off, under the
    # stride a patch probes with (the array's size)
    for g in state.groups.values():
        assert g.index_stride == prog_b.arrays[g.array].size
    lazy.mutate(prog_b, mesh, 0)
    exe_b.step()
    first = len(compared)
    assert any(not r["shared"] for r in compared[:first])
    assert not any(r["unindexed"] for r in compared[:first])
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
    for gkey in product.groups:
        member_keys = group_members(gkey)
        state = build_group_state(product, member_keys)
        loc = product.patterns[member_keys[0]].localized
        want = loc.schedule
        got = state.schedule(loc.slots, machine, want.dist_signature, prog.arrays[gkey[0]].size)
        oracle.assert_schedules_equal(got, want, context=str(member_keys))


@pytest.mark.parametrize("coalesce", [True, False])
def test_fresh_schedule_equals_the_wire_schedule_of_its_pairs(coalesce):
    """A fresh product's schedule equals the oracle's ``WireSchedule``
    built from the same pairs -- each processor's slots grouped by owner
    in a loop here, keys ascending -- array for array and move for move."""
    mesh = generate_mesh(400, seed=9)
    machine, prog = build_program(mesh, True, 16, coalesce)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    product = prog.records[loop.name].product
    for gkey in product.groups:
        loc = product.patterns[group_members(gkey)[0]].localized
        slots, arr = loc.slots, prog.arrays[gkey[0]]
        pairs, send, recv = [], [], []
        for p in range(machine.n_procs):
            mine = np.arange(slots.slot_bounds[p], slots.slot_bounds[p + 1])
            for q in np.unique(slots.owners[mine]):
                s = mine[slots.owners[mine] == q]
                pairs.append((q, p, s.size))
                send.append(slots.lidx[s])
                recv.append(s - slots.slot_bounds[p])
        q, p, n = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        want = oracle.wire_schedule(
            machine, loc.schedule.dist_signature, q, p, n,
            np.concatenate(send), np.concatenate(recv), loc.schedule.ghost_sizes,
        )
        oracle.assert_schedules_equal(loc.schedule, want, context=str(gkey))
        gathered = [np.zeros(want.ghost_total()) for _ in range(2)]
        for sched, ghosts in zip((loc.schedule, want), gathered):
            sched._move_gather(arr, ghosts)
        np.testing.assert_array_equal(*gathered)
