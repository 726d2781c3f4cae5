"""A restore rebuilds every layout from its stored slot state.

A checkpoint stores each pattern group once, as its slot state
(``slot_bounds``, ``keys``, ``owners``, ``lidx``, ``counts``) and its
members' references; the restore builds each layout object and reads
each schedule off its live slots with the patch rung's builder
(``GroupState.schedule``).  Differential over four campaigns, each checkpointed
and resumed into a fresh program:

* an adaptive campaign whose slot spaces hold holes,
* a rebalanced one whose record a ``redistribute(moved=)`` left stale
  (no live distribution can re-derive its layout), remapped back and
  patched after the resume,
* a non-incremental program, with pattern coalescing on and off, and
* the MD workload (five sibling groups over one layout per indirection).

In each, every restored layout is array-equal to the live one (the
slot state, the schedule's pairs, slot order, entries and
``ghost_sizes``, references), sibling groups share one restored
schedule object exactly where the live ones share one, and the resumed
campaign runs on bit-identically: clock, counter CRCs, result CRC.
"""

import zlib

import numpy as np
import pytest

from repro import AdaptiveExecutor
from repro.core.inspector import group_members
from repro.guard import CheckpointError, load_checkpoint, restore_checkpoint, save_checkpoint
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from repro.workloads.md import md_force_loop, setup_md_program
from repro.workloads.rebalance import drifting_weights, rebalance_moves
from tests.chaos.schedule_oracle import entries

N_PROCS = 4
SCHEDULE_INPUTS = ("_pair_q", "_pair_p", "_pair_len", "_unpack_pos")
SLOT_FIELDS = ("slot_bounds", "keys", "owners", "lidx")


def euler(incremental=True, **kwargs):
    mesh = generate_mesh(300, seed=4)
    machine = Machine(N_PROCS)
    prog = setup_euler_program(
        machine, mesh, seed=11, incremental=incremental, guard="cheap", **kwargs
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return prog, euler_edge_loop(mesh), mesh


def churn(prog, mesh, step, size=40):
    rng = np.random.default_rng(500 + step)
    pick = np.sort(rng.choice(mesh.n_edges, size=size, replace=False))
    prog.set_array_elements("end_pt2", pick, rng.integers(0, mesh.n_nodes, pick.size))


def with_holes(prog, loop, mesh, part):
    """Part 0: edges sent off to random nodes and back, so the ghosts the
    detour added retire into holes; part 1: churn, patched into them."""
    if part == 0:
        prog.forall(loop, n_times=1)
        rng = np.random.default_rng(3)
        pick = np.sort(rng.choice(mesh.n_edges, size=60, replace=False))
        home = prog.arrays["end_pt2"].to_global()[pick]
        prog.set_array_elements("end_pt2", pick, rng.integers(0, mesh.n_nodes, pick.size))
        prog.forall(loop, n_times=1)
        prog.set_array_elements("end_pt2", pick, home)
        prog.forall(loop, n_times=1)
    else:
        for step in range(2):
            churn(prog, mesh, step)
            prog.forall(loop, n_times=1)
    assert prog.last_resolution["rung"] == "patch"


def stale_then_back(prog, loop, mesh, part):
    """Part 0: a full step, two patches, then a load balancer's move
    list leaves the record stale; part 1: back to RCB, a write, a patch."""
    if part == 0:
        prog.forall(loop, n_times=1)
        for step in range(2):
            churn(prog, mesh, step)
            prog.forall(loop, n_times=1)
        w = drifting_weights(mesh, 0, seed=2)
        prog.redistribute("reg", moved=rebalance_moves(prog.decomps["reg"].distribution, w))
    else:
        prog.redistribute("reg", "fmt")
        churn(prog, mesh, 7)
        prog.forall(loop, n_times=1)
        assert prog.last_resolution["rung"] == "patch"


def non_incremental(prog, loop, mesh, part):
    """Re-inspections over changing content, a remap in between."""
    for step in range(2) if part == 0 else range(2, 4):
        churn(prog, mesh, step)
        prog.forall(loop, n_times=1)
    if part == 0:
        prog.redistribute("reg", "block")


def md_program():
    prog, pairs = setup_md_program(
        Machine(N_PROCS), n_atoms=324, cutoff=6.0, seed=1, incremental=True, guard="cheap"
    )
    return prog, md_force_loop(pairs.shape[1]), pairs


def md_churn(prog, loop, pairs, part):
    """5 % of the pair list re-targeted twice per part, each patched."""
    rng = np.random.default_rng(9 + part)
    if part == 0:
        prog.forall(loop, n_times=1)
    for _ in range(2):
        pick = np.sort(rng.choice(pairs.shape[1], size=pairs.shape[1] // 20, replace=False))
        prog.set_array_elements("p2", pick, rng.integers(0, 324, pick.size))
        prog.forall(loop, n_times=1)
        assert prog.last_resolution["rung"] == "patch"


#: case -> (fresh program, its loop and data; drive(prog, loop, data, part)):
#: part 0 runs before the checkpoint, part 1 after it
CASES = {
    "adaptive_holes": (euler, with_holes),
    "stale_remapped_back": (euler, stale_then_back),
    "non_incremental_coalesced": (lambda: euler(incremental=False), non_incremental),
    "non_incremental_per_pattern": (
        lambda: euler(incremental=False, coalesce_patterns=False), non_incremental
    ),
    "md": (md_program, md_churn),
}


def sharing(product) -> list:
    """Which groups hold one schedule object, as a partition of the groups."""
    by_schedule: dict[int, list] = {}
    for gkey in product.groups:
        sched = product.patterns[group_members(gkey)[0]].localized.schedule
        by_schedule.setdefault(id(sched), []).append(gkey)
    return sorted(by_schedule.values())


def assert_layouts_equal(live, restored):
    assert list(live.records) == list(restored.records)
    for name, rec in live.records.items():
        a, b = rec.product, restored.records[name].product
        assert a.groups == b.groups and a.dist_signatures == b.dist_signatures
        assert sharing(a) == sharing(b)
        for gkey in a.groups:
            for key in group_members(gkey):
                la, lb = a.patterns[key].localized, b.patterns[key].localized
                sa, sb = la.schedule, lb.schedule
                for f in SCHEDULE_INPUTS:
                    np.testing.assert_array_equal(getattr(sa, f), getattr(sb, f), err_msg=f)
                for ea, eb in zip(entries(sa), entries(sb)):
                    np.testing.assert_array_equal(ea, eb)
                assert sa.ghost_sizes == sb.ghost_sizes
                assert sa.dist_signature == sb.dist_signature == a.dist_signatures[gkey[0]]
                for f in SLOT_FIELDS:
                    np.testing.assert_array_equal(getattr(la.slots, f), getattr(lb.slots, f))
                for f in ("refs_flat", "ref_bounds"):
                    np.testing.assert_array_equal(getattr(la, f), getattr(lb, f), err_msg=f)
                assert list(la.local_sizes) == list(lb.local_sizes)
        if live.adapt is not None:
            ga = live.adapt.state_of(a, "test").groups
            gb = restored.adapt.state_of(b, "test").groups
            assert list(ga) == list(gb)
            for gkey in ga:
                np.testing.assert_array_equal(ga[gkey].counts, gb[gkey].counts)
                # the restored schedule fetches exactly the live slots
                g, loc = gb[gkey], b.patterns[group_members(gkey)[0]].localized
                assert np.shares_memory(loc.schedule._ghost_off, loc.slots.slot_bounds)
                assert loc.schedule._lidx is loc.slots.lidx
                np.testing.assert_array_equal(
                    np.sort(loc.schedule._unpack_pos), np.flatnonzero(g.counts > 0)
                )


def fingerprint(prog, result):
    m = prog.machine
    return (
        m.elapsed(),
        m.counters.clock.tobytes(),
        {f: zlib.crc32(getattr(m.counters, f).tobytes()) for f in COUNTER_FIELDS},
        zlib.crc32(prog.arrays[result].to_global().tobytes()),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_restored_layouts_equal_the_live_ones_and_resume_bit_identically(tmp_path, case):
    build, drive = CASES[case]
    result = "fx" if case == "md" else "y"
    path = tmp_path / f"{case}.ckpt"

    live, loop, data = build()
    drive(live, loop, data, 0)
    save_checkpoint(path, live)
    if case == "adaptive_holes":
        # the save attached the state it wrote
        groups = live.records[loop.name].product.adapt_state.groups.values()
        assert all((g.counts == 0).any() for g in groups)
    if case == "stale_remapped_back":
        sig = live.records[loop.name].product.dist_signatures["x"]
        assert live.arrays["x"].distribution.signature() != sig

    restored, loop_b, _ = build()
    restore_checkpoint(load_checkpoint(path), restored, {loop_b.name: loop_b})
    assert_layouts_equal(live, restored)

    drive(live, loop, data, 1)
    drive(restored, loop_b, data, 1)
    assert fingerprint(restored, result) == fingerprint(live, result)
    assert (restored.inspector_runs, restored.patch_hits) == (live.inspector_runs, live.patch_hits)


def test_restore_span_counts_layouts_and_schedules(tmp_path):
    """One ``guard.checkpoint.restore`` span per resume: the groups
    restored and the schedules built (one per sibling set)."""
    path = tmp_path / "span.ckpt"
    prog, loop, mesh = euler()
    exe = AdaptiveExecutor(prog, loop)
    exe.step()
    churn(prog, mesh, 0)
    exe.step()
    exe.checkpoint(path)
    fresh, loop_b, _ = euler(obs="on")
    AdaptiveExecutor.resume(path, fresh, loop_b)
    (span,) = [s for s in fresh.machine.obs.spans if s.name == "guard.checkpoint.restore"]
    product = fresh.records[loop_b.name].product
    assert span.attrs == {"layouts": len(product.groups), "schedules": len(sharing(product))}
    assert span.attrs["layouts"] == 2 * span.attrs["schedules"]  # x/y siblings


def test_a_version_6_file_is_refused_before_anything_changes(tmp_path):
    path = tmp_path / "v6.ckpt"
    prog, loop, mesh = euler()
    prog.forall(loop, n_times=1)
    save_checkpoint(path, prog)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (6).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    fresh, loop_b, _ = euler()
    before = fingerprint(fresh, "y")
    with pytest.raises(CheckpointError, match="version 6 unsupported \\(expected 7\\)"):
        AdaptiveExecutor.resume(path, fresh, loop_b)
    assert fingerprint(fresh, "y") == before and fresh.records == {}
