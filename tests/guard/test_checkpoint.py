"""Checkpoint/restore: kill-halfway resume is bit-identical.

The reference run executes an adaptive campaign uninterrupted.  The
checkpointed run executes the first half, checkpoints, is discarded, and
a **fresh** program resumes from the file and executes the second half.
Machine counters, phase records, array contents, driver history and all
saved inspector state must match the reference bit for bit -- both at
the resume point and after continuing.
"""

import ast
import json
import os
import pathlib
import pickle
import tracemalloc
import zlib

import numpy as np
import pytest

from repro import AdaptiveExecutor, IrregularDistribution, IrregularProgram
from repro.adapt import driver as driver_mod
from repro.guard import (
    CheckpointError,
    FaultPlan,
    load_checkpoint,
    previous_checkpoint_path,
    restore_checkpoint,
    save_checkpoint,
)
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from repro.workloads.rebalance import drifting_weights, rebalance_moves
from tests.chaos.schedule_oracle import entries

N_PROCS = 4
#: a layout's arrays (``SlotState``)
SLOT_FIELDS = ("slot_bounds", "keys", "owners", "lidx")


def build(n_procs=N_PROCS, incremental=True, n_nodes=300):
    mesh = generate_mesh(n_nodes, seed=4)
    machine = Machine(n_procs)
    prog = setup_euler_program(
        machine, mesh, seed=11, incremental=incremental, guard="cheap"
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return mesh, machine, prog


def mutate(prog, mesh, step):
    """Deterministic per-step mutation, derivable on either side of a
    resume (the current edge state lives in the program's arrays)."""
    rng = np.random.default_rng(1000 + step)
    pick = np.sort(rng.choice(mesh.n_edges, size=25, replace=False))
    e1 = np.asarray(prog.arrays["end_pt1"].global_view(), dtype=np.int64)
    new = (e1[pick] + 1 + rng.integers(0, mesh.n_nodes - 1, pick.size)) % mesh.n_nodes
    prog.set_array_elements("end_pt2", pick, new)


def drive(exe, mesh, steps, start=0):
    for step in range(start, start + steps):
        mutate(exe.program, mesh, step)
        exe.step()


def assert_machines_equal(m_a, m_b):
    for name in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_a.counters, name), getattr(m_b.counters, name)
        ), name
    assert len(m_a.stats.phases) == len(m_b.stats.phases)
    for ra, rb in zip(m_a.stats.phases, m_b.stats.phases):
        assert ra.name == rb.name
        assert ra.elapsed == rb.elapsed
        for name in COUNTER_FIELDS:
            assert np.array_equal(
                getattr(ra.arrays, name), getattr(rb.arrays, name)
            ), (ra.name, name)


def assert_programs_equal(p_a, p_b):
    assert set(p_a.arrays) == set(p_b.arrays)
    for name in p_a.arrays:
        assert np.array_equal(
            p_a.arrays[name].to_global(), p_b.arrays[name].to_global()
        ), name
    assert p_a.registry.nmod == p_b.registry.nmod
    assert p_a.registry._last_mod == p_b.registry._last_mod
    assert p_a.inspector_runs == p_b.inspector_runs
    assert p_a.reuse_hits == p_b.reuse_hits
    assert p_a.patch_hits == p_b.patch_hits
    assert set(p_a.records) == set(p_b.records)
    for lname in p_a.records:
        ra, rb = p_a.records[lname], p_b.records[lname]
        assert ra.ind_last_mod == rb.ind_last_mod
        assert ra.data_dads == rb.data_dads
        assert ra.ind_dads == rb.ind_dads
        pa, pb = ra.product, rb.product
        fa, ba = pa.iteration_partition.iters_flat()
        fb, bb = pb.iteration_partition.iters_flat()
        assert np.array_equal(fa, fb) and np.array_equal(ba, bb)
        assert set(pa.patterns) == set(pb.patterns)
        for key in pa.patterns:
            la, lb = pa.patterns[key].localized, pb.patterns[key].localized
            assert np.array_equal(la.refs_flat, lb.refs_flat), key
            for f in SLOT_FIELDS:
                assert np.array_equal(getattr(la.slots, f), getattr(lb.slots, f)), (key, f)
            sa, sb = la.schedule, lb.schedule
            assert np.array_equal(sa._pair_q, sb._pair_q), key
            for ea, eb in zip(entries(sa), entries(sb)):
                assert np.array_equal(ea, eb), key
    if p_a.adapt is not None:
        for lname in p_a.records:
            sa = p_a.adapt.state_of(p_a.records[lname].product, "test")
            sb = p_b.adapt.state_of(p_b.records[lname].product, "test")
            assert np.array_equal(sa.home, sb.home)
            assert set(sa.groups) == set(sb.groups)
            for gkey, ga in sa.groups.items():
                assert np.array_equal(ga.counts, sb.groups[gkey].counts), gkey


def simulated_history(exe):
    """Driver history minus host-clock fields: wall timings are real
    elapsed time on the machine running the simulation, never
    bit-reproducible across runs.  Everything simulated must match."""
    return [
        {
            k: v
            for k, v in rec.items()
            if k not in ("inspect_wall_seconds", "state_build_wall_seconds")
        }
        for rec in exe.history
    ]


def test_resume_after_kill_is_bit_identical(tmp_path):
    path = tmp_path / "campaign.ckpt"
    half, rest = 3, 3

    # reference: uninterrupted run
    mesh, m_ref, p_ref = build()
    loop_ref = euler_edge_loop(mesh)
    exe_ref = AdaptiveExecutor(p_ref, loop_ref)
    drive(exe_ref, mesh, half + rest)

    # interrupted run: first half, checkpoint, "crash"
    mesh, m_a, p_a = build()
    loop_a = euler_edge_loop(mesh)
    exe_a = AdaptiveExecutor(p_a, loop_a)
    drive(exe_a, mesh, half)
    exe_a.checkpoint(path)
    del exe_a, p_a, m_a  # the crash

    # fresh program resumes from the file
    mesh, m_b, p_b = build()
    loop_b = euler_edge_loop(mesh)
    exe_b = AdaptiveExecutor.resume(path, p_b, loop_b)

    # the restored program continues exactly where the reference was
    # after `half` steps ... checked implicitly by the stronger claim:
    drive(exe_b, mesh, rest, start=half)
    assert_machines_equal(m_ref, m_b)
    assert_programs_equal(p_ref, p_b)
    assert simulated_history(exe_ref) == simulated_history(exe_b)
    assert exe_ref.mode_counts() == exe_b.mode_counts()
    # the campaign actually exercised the patch path on both sides
    assert exe_ref.mode_counts()["patch"] >= 1


#: steps preceded by a load balancer's move list (before the checkpoint
#: after step 4: three; after it: one more)
REBALANCE_BEFORE = (1, 2, 3, 5)


def drive_rebalancing(exe, mesh, steps, start=0):
    """Edge churn every step and, before each step in
    ``REBALANCE_BEFORE``, an incremental ``redistribute(moved=)`` of the
    node decomposition (a derivable move list, as ``drive``'s churn)."""
    prog = exe.program
    for step in range(start, start + steps):
        if step in REBALANCE_BEFORE:
            w = drifting_weights(mesh, step, seed=2)
            moved = rebalance_moves(prog.decomps["reg"].distribution, w, slack=0.02)
            assert moved[0].size
            prog.redistribute("reg", moved=moved)
        mutate(prog, mesh, step)
        exe.step()


def test_rebalanced_campaign_resumes_without_replay(tmp_path):
    """The checkpoint carries the distributions: a fresh program that
    never saw the campaign's three move lists resumes it bit-identically."""
    path = tmp_path / "rebalance.ckpt"
    mesh, m_ref, p_ref = build()
    exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
    drive_rebalancing(exe_ref, mesh, 6)

    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive_rebalancing(exe_a, mesh, 4)
    exe_a.checkpoint(path)

    # still on the RCB distribution `build` gave it: nothing replayed
    mesh, m_b, p_b = build()
    assert p_b.decomps["reg"].distribution.kind == "irregular"
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    restored = p_b.decomps["reg"].distribution
    assert restored.kind == "explicit" and restored == p_a.decomps["reg"].distribution
    assert all(arr.distribution is restored for arr in p_b.decomps["reg"].arrays)

    drive_rebalancing(exe_b, mesh, 2, start=4)
    assert_machines_equal(m_ref, m_b)
    assert m_b.elapsed() == m_ref.elapsed()
    assert np.array_equal(p_b.arrays["y"].to_global(), p_ref.arrays["y"].to_global())
    assert exe_b.mode_counts() == exe_ref.mode_counts()
    assert exe_ref.mode_counts()["full"] >= 4  # every rebalance voided the product
    assert_programs_equal(p_ref, p_b)
    assert simulated_history(exe_ref) == simulated_history(exe_b)


def remap_back(exe, mesh, part):
    """Part 0: a step on RCB, a load balancer's move list, a step; part
    1: back to the RCB layout, a step."""
    prog = exe.program
    if part == 0:
        exe.step()
        w = drifting_weights(mesh, 0, seed=2)
        prog.redistribute("reg", moved=rebalance_moves(prog.decomps["reg"].distribution, w))
    else:
        prog.redistribute("reg", "fmt")
    exe.step()


def test_remap_back_after_resume_pays_no_table_build(tmp_path):
    """RCB -> ``moved=`` -> RCB, checkpointed on the moved layout.  The
    file lists the RCB layout's tables too; the resumed program keeps
    every table as a key-only entry, so the remap back rebuilds them
    uncharged, as the uninterrupted run does with its superseded ones."""
    path = tmp_path / "remap_back.ckpt"
    mesh, m_ref, p_ref = build(n_nodes=600)
    exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
    remap_back(exe_ref, mesh, 0)
    remap_back(exe_ref, mesh, 1)

    mesh, _, p_a = build(n_nodes=600)
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    remap_back(exe_a, mesh, 0)
    exe_a.checkpoint(path)

    mesh, m_b, p_b = build(n_nodes=600)
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    # x's and y's tables of both layouts came back as keys only
    assert (len(p_b.ttables), p_b.ttables.built()) == (4, 0)
    remap_back(exe_b, mesh, 1)
    assert exe_b.mode_counts() == exe_ref.mode_counts() == {"full": 3, "reuse": 0, "patch": 0}
    assert m_b.elapsed() == m_ref.elapsed()
    assert_machines_equal(m_ref, m_b)
    assert_programs_equal(p_ref, p_b)
    assert p_b.ttables.entries() == p_ref.ttables.entries()


def leave_and_return(exe, mesh, part):
    """Part 0: a step on RCB, then a load balancer's move list; part 1:
    back to the RCB layout, an indirection write, a step."""
    prog = exe.program
    if part == 0:
        exe.step()
        w = drifting_weights(mesh, 0, seed=2)
        prog.redistribute("reg", moved=rebalance_moves(prog.decomps["reg"].distribution, w))
    else:
        prog.redistribute("reg", "fmt")
        mutate(prog, mesh, 1)
        exe.step()


def test_a_record_of_a_left_layout_patches_after_resume(tmp_path):
    """Checkpointed on the moved layout before the loop ran on it: the
    saved product's tables are keys in the file.  Back on its layout,
    the write patches it through rebuilt tables, as in the
    uninterrupted run."""
    path = tmp_path / "left_layout.ckpt"
    mesh, m_ref, p_ref = build()
    exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
    leave_and_return(exe_ref, mesh, 0)
    leave_and_return(exe_ref, mesh, 1)

    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    leave_and_return(exe_a, mesh, 0)
    exe_a.checkpoint(path)

    mesh, m_b, p_b = build()
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    leave_and_return(exe_b, mesh, 1)
    assert exe_b.mode_counts() == exe_ref.mode_counts() == {"full": 1, "reuse": 0, "patch": 1}
    assert_machines_equal(m_ref, m_b)
    assert_programs_equal(p_ref, p_b)


@pytest.mark.parametrize(
    "kind", ["block", "cyclic", "block_cyclic", "irregular", "explicit"]
)
def test_every_distribution_kind_round_trips(tmp_path, kind):
    """Each kind restores from its constructor data to an equal
    distribution that the aligned array is rebound to, with a private,
    writable backing."""
    n = 40
    rng = np.random.default_rng(3)

    def program():
        prog = IrregularProgram(Machine(N_PROCS))
        prog.decomposition("d", n)
        prog.distribute("d", "block")
        prog.array("v", "d", values=np.arange(n, dtype=np.float64))
        return prog

    prog = program()
    if kind == "irregular":
        prog.redistribute("d", IrregularDistribution(rng.integers(0, N_PROCS, n), N_PROCS))
    elif kind == "explicit":
        moved = np.arange(0, n, 3)
        prog.redistribute("d", moved=(moved, rng.integers(0, N_PROCS, moved.size)))
    else:
        prog.redistribute("d", ("block_cyclic", 3) if kind == "block_cyclic" else kind)
    saved = prog.decomps["d"].distribution
    assert saved.kind == kind
    save_checkpoint(tmp_path / "k.ckpt", prog)

    fresh = program()
    restore_checkpoint(load_checkpoint(tmp_path / "k.ckpt"), fresh, loops={})
    dist = fresh.decomps["d"].distribution
    assert type(dist) is type(saved) and dist.signature() == saved.signature()
    v = fresh.arrays["v"]
    assert v.distribution is dist
    assert np.array_equal(v.backing_ro, prog.arrays["v"].backing_ro)
    assert np.array_equal(v.to_global(), np.arange(n))
    v.backing_mut()[0] = -1.0
    assert prog.arrays["v"].to_global()[0] == 0.0


def test_restore_alone_matches_checkpoint_moment(tmp_path):
    path = tmp_path / "campaign.ckpt"
    mesh, m_a, p_a = build()
    # give both decision logs a history: a repaired gather fault (guard
    # event, step 0) and a poisoned first patch (verify fallback, step 1)
    FaultPlan(seed=7).corrupt_gather(nth=0).flip_slots(nth=0).install(m_a)
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive(exe_a, mesh, 2)
    (fallback,) = p_a.adapt.fallback_log
    assert fallback["reason"] == "verify_failed"
    assert [e["event"] for e in p_a.guard_events] == ["gather_divergence"]
    # each history entry holds exactly its own step's fallback records
    assert [h["fallbacks"] for h in exe_a.history] == [[], [fallback]]
    save_checkpoint(path, p_a, driver=exe_a)

    mesh, m_b, p_b = build()
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    assert_machines_equal(m_a, m_b)
    assert_programs_equal(p_a, p_b)
    assert simulated_history(exe_a) == simulated_history(exe_b)
    # the decision logs come back as the same plain lists of dicts
    assert p_b.guard_events == p_a.guard_events
    assert p_b.adapt.fallback_log == [fallback]
    counts = p_a.events.counts()
    # host-wall build records and per-process product-ladder
    # diagnostics: not checkpointed
    del counts["adapt.state"], counts["product.resolved"]
    assert p_b.events.counts() == counts == {"guard": 1, "adapt.fallback": 1}
    # a fallback taken after the restore lands after the restored ones
    restored_seq = max(r.seq for r in p_b.events.all())
    p_b.redistribute("reg", "block")
    exe_b.step()
    log = p_b.adapt.fallback_log
    assert log[0] == fallback and len(log) == 2
    assert log[1]["reason"] == "unpatchable_condition"
    assert exe_b.history[-1]["fallbacks"] == [log[1]]
    assert p_b.events.category("adapt.fallback")[1].seq > restored_seq


def restored_arrays(prog, loop_name) -> dict:
    """Every array the restored product, adapt state and program hold,
    by a readable path (one array object may sit under several)."""
    out = {}
    product = prog.records[loop_name].product
    part = product.iteration_partition
    out["partition/flat"], out["partition/bounds"] = part.iters_flat()
    for key, pat in product.patterns.items():
        loc = pat.localized
        for f in ("refs_flat", "ref_bounds"):
            out[f"{key}/{f}"] = getattr(loc, f)
        for f in SLOT_FIELDS:
            out[f"{key}/{f}"] = getattr(loc.slots, f)
        # one schedule object serves a whole pattern group
        for f in ("_pair_q", "_pair_p", "_pair_len", "_unpack_pos"):
            out[f"schedule {id(loc.schedule)}/{f}"] = getattr(loc.schedule, f)
    state = product.adapt_state  # a restored product is born with it
    out["home"] = state.home
    for gkey, g in state.groups.items():
        out[f"{gkey}/counts"] = g.counts
    for name, arr in prog.arrays.items():
        out[f"array/{name}"] = arr._data  # the backing itself, not a view
    return out


def test_restored_arrays_shared_means_frozen_private_means_unaliased(tmp_path):
    """The payload references the live arrays, so the file holds an
    array several structures hold as one section and restore gets it
    back as *one* object.  That is only safe if nothing writes it in
    place: whatever came back shared must be frozen, whatever the
    runtime does write in place (array backings) must alias
    nothing -- and the resumed campaign must still equal the
    uninterrupted one."""
    path = tmp_path / "campaign.ckpt"
    mesh, m_ref, p_ref = build()
    exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
    drive(exe_ref, mesh, 4)

    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive(exe_a, mesh, 2)  # full, patch: the y group holds the x group's layout
    save_checkpoint(path, p_a, driver=exe_a)

    # the file holds what was one object once: it loads as one object
    payload = load_checkpoint(path)
    loop_name = euler_edge_loop(mesh).name
    groups = {
        (g["array"], g["indexes"]): g for g in payload["records"][loop_name]["product"]["groups"]
    }
    gx, gy = groups["x", ("end_pt1", "end_pt2")], groups["y", ("end_pt1", "end_pt2")]
    assert gx["counts"] is gy["counts"] and gx["keys"] is gy["keys"]
    assert gx["refs_flat"][0] is gy["refs_flat"][0]
    # every loaded array is a read-only view of the one buffer read
    assert not gx["counts"].flags.writeable and not gx["counts"].flags.owndata

    mesh, m_b, p_b = build()
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    arrays = restored_arrays(p_b, loop_name)
    by_object: dict[int, list[str]] = {}
    for where, arr in arrays.items():
        by_object.setdefault(id(arr), []).append(where)
    shared = {where for names in by_object.values() if len(names) > 1 for where in names}
    assert any(w.endswith("counts") for w in shared)
    assert any(w.endswith("refs_flat") for w in shared)
    for where in sorted(shared):
        assert not arrays[where].flags.writeable, where
        with pytest.raises(ValueError, match="read-only"):
            arrays[where][...] = 0
    # a stray write to the slot bookkeeping raises instead of reaching the sibling
    for g in p_b.records[loop_name].product.adapt_state.groups.values():
        with pytest.raises(ValueError, match="read-only"):
            g.counts[0] += 1

    # what the runtime writes in place: private, writeable, aliasing nothing
    private = [w for w in arrays if w.startswith("array/")]
    assert private and not shared & set(private)
    for where in private:
        target = arrays[where]
        if not target.size:
            continue
        before = {w: a.copy() for w, a in arrays.items()}
        keep = target[0]
        target[0] = keep + 1  # in place
        changed = [w for w, a in arrays.items() if not np.array_equal(a, before[w])]
        assert {id(arrays[w]) for w in changed} == {id(target)}, (where, changed)
        target[0] = keep

    # two more patch steps off the shared, frozen arrays: bit-identical
    drive(exe_b, mesh, 2, start=2)
    assert exe_b.mode_counts() == exe_ref.mode_counts() == {"full": 1, "reuse": 0, "patch": 3}
    assert_machines_equal(m_ref, m_b)
    assert_programs_equal(p_ref, p_b)
    assert simulated_history(exe_ref) == simulated_history(exe_b)


def test_restored_siblings_share_one_pattern_holder(tmp_path):
    """Restore gives the patterns over one reference list one holder, as
    the live run does, so a resumed run keeps the executor's space and
    positions once per list, not once per pattern."""
    path = tmp_path / "campaign.ckpt"
    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive(exe_a, mesh, 2)
    save_checkpoint(path, p_a, driver=exe_a)
    mesh, _, p_b = build()
    AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    loop_name = euler_edge_loop(mesh).name
    for prog in (p_a, p_b):
        patterns = prog.records[loop_name].product.patterns
        for ind in ("end_pt1", "end_pt2"):
            assert patterns["x", ind].derived is patterns["y", ind].derived
        assert patterns["x", "end_pt1"].derived is not patterns["x", "end_pt2"].derived


def test_run_with_checkpoint_every_writes_files(tmp_path):
    path = tmp_path / "periodic.ckpt"
    mesh, m, prog = build()
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    modes = exe.run(3, checkpoint_every=2, checkpoint_path=path)
    assert len(modes) == 3
    assert path.exists()
    payload = load_checkpoint(path)
    # written after step 2, not after step 3
    assert len(payload["driver"]["history"]) == 2

    with pytest.raises(ValueError, match="checkpoint_every"):
        exe.run(1, checkpoint_every=0, checkpoint_path=path)
    with pytest.raises(ValueError, match="checkpoint_path"):
        exe.run(1, checkpoint_every=1)


def read_layout(path) -> tuple[dict, bytes, bytes]:
    """``(manifest, header, data)`` of a v5 file: the parsed JSON manifest,
    the 24 header bytes, and everything from the first section on."""
    from repro.guard import checkpoint

    raw = pathlib.Path(path).read_bytes()
    mlen = checkpoint._HEADER.unpack_from(raw)[2]
    mend = checkpoint._HEADER.size + mlen
    manifest = json.loads(raw[checkpoint._HEADER.size : mend])
    return manifest, raw[: checkpoint._HEADER.size], raw[checkpoint._aligned(mend) :]


def rewrite_manifest(path, edit) -> None:
    """Apply ``edit`` to a file's manifest and write it back the way a
    (buggy or foreign) saver would: header and manifest CRC valid, the
    data bytes unchanged after the realigned manifest."""
    from repro.guard import checkpoint

    manifest, _, data = read_layout(path)
    edit(manifest)
    m = json.dumps(manifest, separators=(",", ":")).encode()
    head = checkpoint._HEADER.pack(checkpoint._MAGIC, checkpoint._VERSION, len(m), 0)
    crc = zlib.crc32(m, zlib.crc32(head[: checkpoint._CRC_START]))
    pad = checkpoint._aligned(len(head) + len(m)) - len(head) - len(m)
    pathlib.Path(path).write_bytes(
        checkpoint._HEADER.pack(checkpoint._MAGIC, checkpoint._VERSION, len(m), crc)
        + m + bytes(pad) + data
    )


def test_on_disk_format_is_pinned(tmp_path):
    """Format version 7: header, manifest, sections -- and the payload keys.

    Version 7 stores each layout once, as its slot state: no schedule
    table, no per-pattern ``ghost_flat``/``ghost_bounds`` and no adapt
    state section -- restore derives them.  Version 6 no longer writes ghost buffers: the executor gathers into
    per-sweep scratch, so the file holds no ghost table, no per-pattern
    ghost index and no ghost backing section.  Version 5 no longer writes the adapt snapshots: the diff reads old
    indirection values off the saved product.  Version 4 records the program options a resume must match
    (``RECORDED_OPTIONS``) and no longer writes the indirection-DAD set
    of the deleted narrowed tracking scope.  Version 3 replaced version 2's pickle envelope with a 24-byte header
    (magic, version, manifest length, CRC over the header and the
    manifest), a JSON manifest and 64-byte aligned raw array sections,
    and stopped writing what restore derives (an adapt state's ``home``,
    each pattern's ``ref_bounds``); the schedule and ghost tables became
    lists, and arrays and ghost buffers carry their dtype in their
    section.  Version 2 added each decomposition's distribution as
    constructor data.  A change to any key below needs a new
    ``_VERSION``.
    """
    from repro.guard import checkpoint

    assert (checkpoint._MAGIC, checkpoint._VERSION) == (b"REPROCKP", 7)
    path = tmp_path / "campaign.ckpt"
    mesh, _, prog = build()
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    drive(exe, mesh, 2)
    save_checkpoint(path, prog, driver=exe)
    raw = path.read_bytes()
    magic, version, mlen, crc = checkpoint._HEADER.unpack_from(raw)
    assert (magic, version, checkpoint._HEADER.size) == (b"REPROCKP", 7, 24)
    assert crc == zlib.crc32(raw[24 : 24 + mlen], zlib.crc32(raw[:20]))
    manifest, _, _ = read_layout(path)
    assert set(manifest) == {"sections", "payload"}
    base = checkpoint._aligned(24 + mlen)
    end = 24 + mlen
    for sec in manifest["sections"]:
        assert set(sec) == {"name", "dtype", "shape", "offset", "crc"}
        start = base + sec["offset"]
        assert start % 64 == 0 and start == checkpoint._aligned(end)
        assert raw[end:start] == bytes(start - end)  # zero padding
        end = start + int(np.prod(sec["shape"])) * np.dtype(sec["dtype"]).itemsize
        assert zlib.crc32(raw[start:end]) == int(sec["crc"], 16)
    assert end == len(raw)
    names = [sec["name"] for sec in manifest["sections"]]
    assert "/decomps/reg/owner_map" in names and "/arrays/x" in names
    assert not [n for n in names if "snapshot" in n]
    assert not [n for n in names if n.startswith("/ghosts")]
    assert not [n for n in names if "schedule" in n or "ghost" in n or "/states/" in n]
    payload = load_checkpoint(path)
    assert set(payload) == {
        "n_procs", "machine", "decomps", "arrays", "registry", "program",
        "records", "ttables", "adapt", "driver",
    }
    # nodes: RCB's owner map in the smallest dtype holding N_PROCS - 1
    reg, reg2 = payload["decomps"]["reg"], payload["decomps"]["reg2"]
    assert set(reg) == {"kind", "owner_map"} and reg["kind"] == "irregular"
    assert reg["owner_map"].dtype == np.uint8
    assert np.array_equal(reg["owner_map"], prog.decomps["reg"].distribution.owner_map())
    assert reg2 == {"kind": "block", "size": mesh.n_edges}
    for name, backing in payload["arrays"].items():
        assert backing.dtype == prog.arrays[name].dtype
    assert set(payload["program"]) == {
        "inspector_runs", "reuse_hits", "patch_hits", "geocol_reuse_hits", "options",
        "guard_events",
    }
    assert payload["program"]["options"] == {
        "iter_method": "almost_owner", "ttable_variant": "auto", "executor_overhead": 1.0,
        "track": True, "merge_communication": False, "coalesce_patterns": True,
        "incremental": True,
    }
    assert tuple(payload["program"]["options"]) == checkpoint.RECORDED_OPTIONS
    assert set(payload["machine"]) == {"counters", "phases"}
    assert set(payload["machine"]["counters"]) == set(COUNTER_FIELDS)
    for phase in payload["machine"]["phases"]:
        assert set(phase) == {"name", "elapsed", "counters"}
        assert set(phase["counters"]) == set(COUNTER_FIELDS)
    for rec in payload["records"].values():
        assert set(rec) == {"data_dads", "ind_dads", "ind_last_mod", "product"}
        product = rec["product"]
        assert set(product) == {"loop", "partition", "dist_signatures", "groups"}
        assert set(product["partition"]) == {"n_iterations", "method", "flat", "bounds"}
        for group in product["groups"]:
            assert set(group) == {
                "array", "indexes", "local_sizes", "slot_bounds", "keys", "owners",
                "lidx", "counts", "refs_flat",
            }
            assert len(group["refs_flat"]) == len(group["indexes"])
            assert all(type(n) is int for n in group["local_sizes"])
    assert set(payload["adapt"]) == {"failures", "disabled", "fallback_log"}


def test_derived_fields_restore_equal(tmp_path):
    """What the file leaves out comes back equal to what was live."""
    path = tmp_path / "campaign.ckpt"
    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive(exe_a, mesh, 3)
    exe_a.checkpoint(path)
    mesh, _, p_b = build()
    AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    name = euler_edge_loop(mesh).name
    home_a = p_a.records[name].product.adapt_state.home  # patched
    home_b = p_b.records[name].product.adapt_state.home  # restored
    assert home_b.dtype == home_a.dtype and np.array_equal(home_a, home_b)
    for key, pat in p_b.records[name].product.patterns.items():
        live = p_a.records[name].product.patterns[key].localized.ref_bounds
        assert np.array_equal(pat.localized.ref_bounds, live)


def _tripwire(*args):
    """Called only if something unpickles a crafted envelope."""
    TRIPPED.append(args)


TRIPPED: list = []


class _Boom:
    def __reduce__(self):
        return (_tripwire, ("unpickled",))


def write_pickle_envelope(path, version=2):
    """Overwrite ``path`` with an intact pickle envelope the way format
    versions 1 and 2 were written (valid CRC) -- carrying an object that
    would run code the moment anything unpickled it."""
    blob = pickle.dumps({"n_procs": N_PROCS, "trap": _Boom()})
    envelope = {"format": "repro-checkpoint", "version": version, "crc": zlib.crc32(blob)}
    with open(path, "wb") as f:
        pickle.dump({**envelope, "payload": blob}, f, protocol=pickle.HIGHEST_PROTOCOL)


# payload edits a CRC-valid file cannot carry unless written by a buggy
# or foreign saver: restore must still refuse each before mutating
def _missing_decomposition(payload):
    payload["decomps"]["nodes"] = payload["decomps"].pop("reg")


def _wrong_size(payload):
    payload["decomps"]["reg2"]["size"] += 1


def _non_bijective_local_map(payload):
    owners = payload["decomps"]["reg"]["owner_map"]
    local = np.zeros(owners.size, dtype=np.int64)  # every element at offset 0
    payload["decomps"]["reg"] = {"kind": "explicit", "owner_map": owners, "local_map": local}


def _unknown_kind(payload):
    payload["decomps"]["reg2"]["kind"] = "hilbert"


def _missing_array(payload):
    del payload["arrays"]["y"]


def _wrong_dtype(payload):
    payload["arrays"]["x"] = payload["arrays"]["x"].astype("<f4")


def _slot_damage(field, edit):
    """Damage: one slot-state array of the last group, edited in a copy
    (its sibling keeps the stored section, so the two differ)."""
    def damage(payload):
        (rec,) = payload["records"].values()
        group = rec["product"]["groups"][-1]
        a = group[field].copy()
        group[field] = edit(a)
    return damage


def _set(i, value):
    def edit(a):
        a[i] = value
        return a
    return edit


class TestRejectsDamage:
    def make(self, tmp_path):
        path = tmp_path / "c.ckpt"
        mesh, m, prog = build()
        exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
        drive(exe, mesh, 1)
        save_checkpoint(path, prog, driver=exe)
        return path, mesh

    def test_corrupted_payload(self, tmp_path):
        path, _ = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path, _ = self.make(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world, this is not a checkpoint")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path, _ = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (999).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 999 unsupported"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_pickle_envelope_is_refused_by_resume(self, tmp_path, version):
        """A checkpoint is crash-recovery state, not an archive: an
        intact file of an older, pickle-based format has no reader --
        and is never unpickled, so what it carries never runs."""
        path, mesh = self.make(tmp_path)
        write_pickle_envelope(path, version)
        _, _, prog = build()
        TRIPPED.clear()
        with pytest.raises(CheckpointError, match="pickle envelope .* unsupported"):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))
        assert TRIPPED == []
        # the crafted file really would have run code
        with open(path, "rb") as f:
            pickle.loads(pickle.load(f)["payload"])
        assert TRIPPED == [("unpickled",)]
        TRIPPED.clear()

    def test_wrong_machine_size(self, tmp_path):
        path, mesh = self.make(tmp_path)
        _, _, prog = build(n_procs=8)
        with pytest.raises(CheckpointError, match="processors"):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))

    @pytest.mark.parametrize(
        "damage, match",
        [
            (_missing_decomposition, "decomposition 'nodes' is not declared"),
            (_wrong_size, "decomposition 'reg2' has size"),
            (_non_bijective_local_map, "malformed explicit distribution.*bijection"),
            (_unknown_kind, "unknown distribution kind 'hilbert'"),
            (_missing_array, "array 'y' of 'reg' is not in the checkpoint"),
            (_wrong_dtype, "array 'x' has dtype float64"),
            (_slot_damage("keys", lambda a: a[:-1]), "keys covers"),
            (_slot_damage("owners", _set(0, N_PROCS)), "owner or key is out of range"),
            (_slot_damage("counts", _set(0, -1)), "negative reference count"),
            (_slot_damage("slot_bounds", _set(1, -1)), "slot_bounds are not monotone"),
        ],
        ids=[
            "missing_decomposition", "wrong_size", "non_bijective_local_map",
            "unknown_kind", "missing_array", "wrong_dtype", "slot_state_length",
            "slot_owner_range", "slot_negative_count", "slot_bounds_not_monotone",
        ],
    )
    def test_distribution_mismatch(self, tmp_path, damage, match):
        """A checkpoint whose distributions or arrays do not fit the
        program's declarations is refused before anything changes: the
        program keeps its own (here: never redistributed) distributions,
        data and counters."""
        path, mesh = self.make(tmp_path)
        payload = load_checkpoint(path)
        damage(payload)
        machine = Machine(N_PROCS)
        prog = setup_euler_program(machine, mesh, seed=11, incremental=True, guard="cheap")
        x_before = prog.arrays["x"].to_global()
        clock_before = machine.counters.clock.copy()
        dists_before = {name: dec.distribution for name, dec in prog.decomps.items()}
        loop = euler_edge_loop(mesh)
        with pytest.raises(CheckpointError, match=match):
            restore_checkpoint(payload, prog, {loop.name: loop})
        assert np.array_equal(prog.arrays["x"].to_global(), x_before)
        assert np.array_equal(machine.counters.clock, clock_before)
        assert prog.records == {}
        for name, dec in prog.decomps.items():
            assert dec.distribution is dists_before[name]
            assert all(arr.distribution is dec.distribution for arr in dec.arrays)

    def test_missing_loop_binding(self, tmp_path):
        path, mesh = self.make(tmp_path)
        _, _, prog = build()
        with pytest.raises(CheckpointError, match="loops mapping"):
            restore_checkpoint(load_checkpoint(path), prog, loops={})

    def test_incremental_state_needs_incremental_program(self, tmp_path):
        path, mesh = self.make(tmp_path)
        _, _, prog = build(incremental=False)
        with pytest.raises(CheckpointError, match="incremental"):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))

    def test_version_3_file_is_refused(self, tmp_path):
        """Formats v3 to v6 have no reader: the typed "unsupported"
        error, as for v2."""
        path, _ = self.make(tmp_path)
        for version in (3, 4, 5, 6):
            raw = bytearray(path.read_bytes())
            raw[8:12] = version.to_bytes(4, "little")
            path.write_bytes(bytes(raw))
            with pytest.raises(
                CheckpointError, match=f"version {version} unsupported \\(expected 7\\)"
            ):
                load_checkpoint(path)

    def test_version_5_file_is_refused_before_anything_changes(self, tmp_path):
        """A v5 file (it carries ghost buffers) is refused by resume
        before the program is touched."""
        path, mesh = self.make(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (5).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        machine = Machine(N_PROCS)
        prog = setup_euler_program(machine, mesh, seed=11, incremental=True, guard="cheap")
        x_before = prog.arrays["x"].to_global()
        clock_before = machine.counters.clock.copy()
        with pytest.raises(CheckpointError, match="version 5 unsupported"):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))
        assert np.array_equal(prog.arrays["x"].to_global(), x_before)
        assert np.array_equal(machine.counters.clock, clock_before)
        assert prog.records == {}

    @pytest.mark.parametrize(
        "option, value",
        [
            ("iter_method", "owner_computes"),
            ("ttable_variant", "replicated"),
            ("executor_overhead", 1.07),
            ("track", False),
            ("merge_communication", True),
            ("coalesce_patterns", False),
            ("incremental", False),
        ],
    )
    def test_option_mismatch_refused_before_anything_changes(self, tmp_path, option, value):
        """A resume into a program configured otherwise would carry on and
        depart from the uninterrupted run: each recorded option is
        checked, named, and refused before the first mutation."""
        path, mesh = self.make(tmp_path)
        kwargs = {"incremental": True, "guard": "cheap", option: value}
        if option == "track":
            kwargs["incremental"] = False  # incremental needs the record
        machine = Machine(N_PROCS)
        prog = setup_euler_program(machine, mesh, seed=11, **kwargs)
        x_before = prog.arrays["x"].to_global()
        clock_before = machine.counters.clock.copy()
        dists_before = {name: dec.distribution for name, dec in prog.decomps.items()}
        with pytest.raises(CheckpointError, match=f"{option}="):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))
        assert np.array_equal(prog.arrays["x"].to_global(), x_before)
        assert np.array_equal(machine.counters.clock, clock_before)
        assert prog.records == {} and prog.inspector_runs == 0
        for name, dec in prog.decomps.items():
            assert dec.distribution is dists_before[name]


def test_resume_at_another_guard_level_is_bit_identical(tmp_path):
    """``guard`` is host-only, so it is not recorded: a campaign saved at
    ``"cheap"`` may be resumed (and debugged) at ``"full"``."""
    path = tmp_path / "campaign.ckpt"
    mesh, m_ref, p_ref = build()
    exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
    drive(exe_ref, mesh, 4)

    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive(exe_a, mesh, 2)
    exe_a.checkpoint(path)

    m_b = Machine(N_PROCS)
    p_b = setup_euler_program(m_b, mesh, seed=11, incremental=True, guard="full")
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    drive(exe_b, mesh, 2, start=2)
    assert p_b.guard == "full"
    assert_machines_equal(m_ref, m_b)
    assert_programs_equal(p_ref, p_b)
    assert simulated_history(exe_ref) == simulated_history(exe_b)


class TestCrashSafeSave:
    """save_checkpoint survives torn writes and rotates the previous
    good file to ``<path>.prev``; resume falls back to it when the
    primary is damaged."""

    def drive_and_save(self, tmp_path, steps=(2, 4)):
        """One campaign saving to the same path after each step count."""
        path = tmp_path / "rotating.ckpt"
        mesh, m, prog = build()
        exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
        done = 0
        for upto in steps:
            drive(exe, mesh, upto - done, start=done)
            done = upto
            exe.checkpoint(path)
        return path, mesh, exe

    def test_rotation_keeps_previous_checkpoint(self, tmp_path):
        path, mesh, exe = self.drive_and_save(tmp_path)
        prev = previous_checkpoint_path(path)
        assert os.path.exists(prev)
        # primary is the newest save, .prev the one before it
        assert len(load_checkpoint(path)["driver"]["history"]) == 4
        assert len(load_checkpoint(prev)["driver"]["history"]) == 2

    def test_no_tmp_litter(self, tmp_path):
        path, _, _ = self.drive_and_save(tmp_path)
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert leftovers == []

    def test_resume_falls_back_to_prev_on_corruption(self, tmp_path):
        path, mesh, exe_a = self.drive_and_save(tmp_path)
        # the crash damages the newest checkpoint mid-write
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        mesh, m_b, p_b = build()
        exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
        assert exe_b.resumed_from == "prev"
        # resumed at step 2 (the .prev save), not step 4
        assert len(exe_b.history) == 2

        # and the fallback resume is still bit-identical: continue to
        # step 4 and compare against a clean uninterrupted run
        drive(exe_b, mesh, 2, start=2)
        mesh, m_ref, p_ref = build()
        exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
        drive(exe_ref, mesh, 4)
        assert_machines_equal(m_ref, m_b)
        assert_programs_equal(p_ref, p_b)

    def test_resume_prefers_intact_primary(self, tmp_path):
        path, mesh, _ = self.drive_and_save(tmp_path)
        mesh, _, p_b = build()
        exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
        assert exe_b.resumed_from == "primary"
        assert len(exe_b.history) == 4

    @pytest.mark.parametrize("damaged", [False, True], ids=["intact", "damaged_primary"])
    def test_resume_reads_each_generation_once(self, tmp_path, monkeypatch, damaged):
        from repro.guard import checkpoint

        path, mesh, _ = self.drive_and_save(tmp_path)
        if damaged:
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
        reads = []
        load = checkpoint.load_checkpoint
        monkeypatch.setattr(
            checkpoint, "load_checkpoint", lambda p: reads.append(os.fspath(p)) or load(p)
        )
        _, _, p_b = build()
        AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
        prev = previous_checkpoint_path(path)
        assert reads == ([os.fspath(path), prev] if damaged else [os.fspath(path)])

    def test_both_damaged_raises(self, tmp_path):
        path, mesh, _ = self.drive_and_save(tmp_path)
        for p in (path, previous_checkpoint_path(path)):
            raw = bytearray(open(p, "rb").read())
            raw[len(raw) // 2] ^= 0xFF
            open(p, "wb").write(bytes(raw))
        _, _, p_b = build()
        with pytest.raises(CheckpointError):
            AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))

    def test_corrupt_primary_without_prev_raises(self, tmp_path):
        path = tmp_path / "single.ckpt"
        mesh, _, prog = build()
        exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
        drive(exe, mesh, 1)
        exe.checkpoint(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        _, _, p_b = build()
        with pytest.raises(CheckpointError):
            AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))

    def test_semantic_mismatch_does_not_fall_back(self, tmp_path):
        """Only *damage* (unreadable envelope) triggers the .prev
        fallback; a valid checkpoint that doesn't fit the program is a
        real error even when an older file exists."""
        path, mesh, _ = self.drive_and_save(tmp_path)
        _, _, prog = build(n_procs=8)
        with pytest.raises(CheckpointError, match="processors"):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))


def test_checkpoint_bytes_are_reproducible(tmp_path):
    """Two separately built, equal campaigns write byte-identical files.

    The array sections are listed in first-seen order and the driver
    history leaves its host-clock seconds out.  Keyed by ``id()`` (as the
    shared-object tables once were) the bytes differed from build to
    build.
    """
    def campaign(tag, junk):
        mesh, _, prog = build()
        exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
        drive(exe, mesh, 3)
        save_checkpoint(tmp_path / f"{tag}.ckpt", prog, driver=exe)
        return junk

    # allocations between the two builds move every later object's id()
    keep = campaign("a", [np.empty(1000 + 37 * i) for i in range(50)])
    campaign("b", keep)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    # a resumed driver reports none of its predecessor's host seconds
    mesh, _, prog = build()
    exe = AdaptiveExecutor.resume(tmp_path / "a.ckpt", prog, euler_edge_loop(mesh))
    assert [r["inspect_wall_seconds"] for r in exe.history] == [0.0] * 3
    # ... and saving it at once writes the very same file: group states
    # restored from one shared section keep sharing it
    save_checkpoint(tmp_path / "c.ckpt", prog, driver=exe)
    assert (tmp_path / "c.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()


# ----------------------------------------------------------------------
# format v3: what the loader refuses, and what it never does
# ----------------------------------------------------------------------
def tiny_checkpoint(path):
    """A checkpoint of a few kB: a 40-element explicit distribution, one
    array, the machine's counters and phase records."""
    prog = IrregularProgram(Machine(N_PROCS))
    prog.decomposition("d", 40)
    prog.distribute("d", "block")
    prog.array("v", "d", values=np.arange(40, dtype=np.float64))
    moved = np.arange(0, 40, 3)
    prog.redistribute("d", moved=(moved, np.arange(moved.size) % N_PROCS))
    save_checkpoint(path, prog)
    return prog


@pytest.fixture
def no_views(monkeypatch):
    """Fail the test if the loader builds any array view of the file."""
    from repro.guard import checkpoint

    def refuse(*args):
        raise AssertionError("the loader built arrays out of a file it then refused")

    monkeypatch.setattr(checkpoint, "_views", refuse)


def _flip(offset_of, bit=0x01):
    """Damage: XOR one byte, at ``offset_of(raw, manifest)``."""
    def damage(path):
        raw = bytearray(path.read_bytes())
        raw[offset_of(raw, read_layout(path)[0])] ^= bit
        path.write_bytes(bytes(raw))
    return damage


def _section_start(raw, manifest, i=0):
    from repro.guard import checkpoint

    mlen = checkpoint._HEADER.unpack_from(raw)[2]
    return checkpoint._aligned(24 + mlen) + manifest["sections"][i]["offset"]


def _edit(fn):
    return lambda path: rewrite_manifest(path, fn)


def _set_section(i, **fields):
    def edit(manifest):
        manifest["sections"][i].update(fields)
    return edit


def _unknown_tag(manifest):
    manifest["payload"]["n_procs"] = {"$pickle": "gASVAAAAAAAAAAB9lC4="}


def _truncate(keep):
    def damage(path):
        raw = path.read_bytes()
        path.write_bytes(raw[: keep(raw)])
    return damage


def _trailing(path):
    path.write_bytes(path.read_bytes() + bytes(64))


def _as_pickle_envelope(path):
    write_pickle_envelope(path, version=2)


TAMPER = {
    "manifest_bit": (_flip(lambda raw, m: 24 + len(raw[24:]) // 50), "manifest CRC"),
    "section_bit": (_flip(lambda raw, m: _section_start(raw, m) + 3), "failed its CRC"),
    "truncated_section": (_truncate(lambda raw: len(raw) - 5), "past the end of the file"),
    "truncated_header": (_truncate(lambda raw: 10), "not a repro checkpoint"),
    "offset_past_eof": (
        _edit(_set_section(-1, offset=1 << 30)), "past the end of the file"
    ),
    "overlapping_sections": (
        _edit(lambda m: m["sections"][1].update(offset=m["sections"][0]["offset"])),
        "overlaps its predecessor",
    ),
    "gap_between_sections": (
        _edit(lambda m: [s.update(offset=s["offset"] + 64) for s in m["sections"][1:]]),
        "not at its aligned offset",
    ),
    "object_dtype": (_edit(_set_section(0, dtype="|O")), "only numeric dtypes"),
    "void_dtype": (_edit(_set_section(0, dtype="|V8")), "only numeric dtypes"),
    "subarray_dtype": (_edit(_set_section(0, dtype="('<f8', (2,))")), "only numeric dtypes"),
    "negative_shape": (_edit(_set_section(0, shape=[-1])), "invalid shape"),
    "oversized_shape": (_edit(_set_section(0, shape=[1 << 40])), "past the end of the file"),
    "unknown_tag": (_edit(_unknown_tag), "unknown or malformed tag '\\$pickle'"),
    "dangling_section_reference": (
        _edit(lambda m: m["payload"].update(n_procs={"$array": len(m["sections"])})),
        "which it lacks",
    ),
    "manifest_not_current": (_edit(lambda m: m.pop("payload")), "not a v7 manifest"),
    "trailing_bytes": (_trailing, "trailing bytes"),
    "v2_pickle_envelope": (_as_pickle_envelope, "pickle envelope"),
}


class TestTamperMatrix:
    """Every damaged, truncated, foreign or older-format file raises
    :class:`CheckpointError` -- before a single array is built, and
    without ever running code from the file."""

    @pytest.mark.parametrize("case", sorted(TAMPER))
    def test_refused_before_anything_is_built(self, tmp_path, no_views, case):
        path = tmp_path / "t.ckpt"
        tiny_checkpoint(path)
        damage, match = TAMPER[case]
        damage(path)
        TRIPPED.clear()
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        assert TRIPPED == []

    def test_manifest_rewrite_alone_still_loads(self, tmp_path):
        """The crafting helper writes valid files: each case above fails
        for its damage, not for the rewrite."""
        path = tmp_path / "t.ckpt"
        prog = tiny_checkpoint(path)
        before = path.read_bytes()
        rewrite_manifest(path, lambda m: None)
        assert path.read_bytes() == before
        payload = load_checkpoint(path)
        assert np.array_equal(payload["arrays"]["v"], prog.arrays["v"].backing_ro)

    @pytest.mark.parametrize("bit", [0x01, 0x80, 0xFF])
    def test_every_single_byte_flip_is_refused(self, tmp_path, no_views, bit):
        """Every byte of the file is covered by some check -- header,
        manifest, section data and the zero padding between them alike --
        wherever a torn write or an in-place flip lands."""
        from repro.guard import checkpoint

        path = tmp_path / "t.ckpt"
        tiny_checkpoint(path)
        raw = path.read_bytes()
        manifest, _, _ = read_layout(path)
        mend = 24 + checkpoint._HEADER.unpack_from(raw)[2]
        starts = [_section_start(raw, manifest, i) for i in range(len(manifest["sections"]))]
        assert starts[0] > mend and any(  # padding after the manifest and between sections
            s > e for s, e in zip(starts[1:], np.add(starts[:-1], 1))
        )
        damaged = tmp_path / "d.ckpt"
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= bit
            damaged.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                load_checkpoint(damaged)


def test_no_pickle_under_guard():
    """The loader cannot unpickle what no module of the package imports."""
    guard = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "guard"
    sources = sorted(guard.glob("*.py"))
    assert any(p.name == "checkpoint.py" for p in sources)
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in ("pickle", "_pickle") for n in names), source


def test_load_peak_memory_is_the_file(tmp_path):
    """The load reads the file once into one buffer and views it: its
    traced peak stays within 1.1x the file size (pickle held the file's
    contents twice)."""
    path = tmp_path / "big.ckpt"
    mesh = generate_mesh(6000, seed=4)
    machine = Machine(N_PROCS)
    prog = setup_euler_program(machine, mesh, seed=11, incremental=True, guard="cheap")
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    drive(exe, mesh, 2)
    save_checkpoint(path, prog, driver=exe)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        payload = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["n_procs"] == N_PROCS
    assert peak <= 1.1 * size, (peak, size)


def test_tagged_structure_round_trips(tmp_path):
    """Tuples, non-string and ``$``-prefixed keys, NumPy scalars and
    non-finite floats come back as they were saved, by type and bits."""
    from repro.guard import checkpoint

    _, _, prog = build()
    odd = {
        "tuple": (1, ("a", None), []),
        "int_keys": {3: "x", (1, 2): [True]},
        "$dollar": {"$array": 1},
        "floats": [0.1, -0.0, float("inf"), float("-inf"), 1e-310, float("nan")],
        "numpy": [np.float32(0.1), np.int64(-7), np.uint8(255), np.bool_(True), np.float64(2.5)],
        "big": 2**70,
    }
    prog.events.replace_category("guard", [odd])
    path = tmp_path / "odd.ckpt"
    save_checkpoint(path, prog)
    (back,) = load_checkpoint(path)["program"]["guard_events"]
    assert back["tuple"] == (1, ("a", None), []) and type(back["tuple"][1]) is tuple
    assert back["int_keys"] == {3: "x", (1, 2): [True]}
    assert back["$dollar"] == {"$array": 1}
    floats = back["floats"]
    assert [repr(x) for x in floats] == [repr(x) for x in odd["floats"]]
    assert [type(x) for x in back["numpy"]] == [type(x) for x in odd["numpy"]]
    assert [x.tobytes() for x in back["numpy"]] == [x.tobytes() for x in odd["numpy"]]
    assert back["big"] == 2**70

    for bad, where in (({"s": {1, 2}}, "/s"), ({"o": np.array([None])}, "/o")):
        prog.events.replace_category("guard", [bad])
        with pytest.raises(TypeError, match=f"program/guard_events/0{where}"):
            save_checkpoint(tmp_path / "bad.ckpt", prog)
    assert not (tmp_path / "bad.ckpt").exists()
    assert not [n for n in os.listdir(tmp_path) if ".tmp" in n]
    # a non-contiguous array streams through the chunk buffer unchanged
    strided = np.arange(3 * 50_000, dtype=np.int64).reshape(3, -1)[:, ::7]
    assert not strided.flags.c_contiguous
    prog.events.replace_category("guard", [{"strided": strided}])
    save_checkpoint(path, prog)
    back = load_checkpoint(path)["program"]["guard_events"][0]["strided"]
    assert back.shape == strided.shape and np.array_equal(back, strided)
    assert checkpoint._section_crc(strided) == zlib.crc32(strided.tobytes())


def _remap_fault(kind):
    return lambda p: getattr(p, kind)(nth=0)


@pytest.mark.parametrize(
    "scenario, fault",
    [
        ("churn", lambda p: p.corrupt_gather(nth=0)),
        ("churn", lambda p: p.drop_gather(nth=0, count=3)),
        ("churn", lambda p: p.duplicate_gather(nth=0)),
        ("churn", lambda p: p.flip_slots(nth=0)),
        ("churn", lambda p: p.flip_slots(nth=0).flip_slots(nth=1).flip_slots(nth=2)),
        ("churn", lambda p: p.stall("executor", proc=1, seconds=2.5, nth=0)),
        ("rebalance", _remap_fault("corrupt_remap")),
        ("rebalance", _remap_fault("drop_remap")),
        ("rebalance", _remap_fault("duplicate_remap")),
        ("rebalance", _remap_fault("flip_remap")),
    ],
    ids=[
        "corrupt_gather", "drop_gather", "duplicate_gather", "flip_slots",
        "flip_slots_until_disabled", "stall", "corrupt_remap", "drop_remap",
        "duplicate_remap", "flip_remap",
    ],
)
def test_every_fault_matrix_payload_saves(tmp_path, monkeypatch, scenario, fault):
    """Whatever guard events, fallback records and history a faulted
    campaign leaves behind, the tagged encoder stores it: no save can
    fail at run time, and every decision log loads back equal."""
    monkeypatch.setattr(driver_mod, "MAX_FAILURES", 2)
    mesh, machine, prog = build()
    plan = fault(FaultPlan(seed=7)).install(machine)
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    (drive if scenario == "churn" else drive_rebalancing)(exe, mesh, 5)
    assert plan.fired
    path = tmp_path / "faulted.ckpt"
    save_checkpoint(path, prog, driver=exe)
    payload = load_checkpoint(path)
    assert payload["program"]["guard_events"] == prog.guard_events
    assert payload["adapt"]["fallback_log"] == prog.adapt.fallback_log
    assert payload["adapt"]["failures"] == prog.adapt.failures
    assert payload["adapt"]["disabled"] == sorted(prog.adapt.disabled)
    assert payload["driver"]["history"] == simulated_history(exe)
    mesh, m_b, p_b = build()
    exe_b = AdaptiveExecutor.resume(path, p_b, euler_edge_loop(mesh))
    assert_machines_equal(machine, m_b)
    assert simulated_history(exe_b) == simulated_history(exe)


def test_concurrent_saves_write_identical_files(tmp_path):
    """Each save takes its CRCs on a thread of its own: saves running
    side by side, with the interpreter switching threads as often as it
    can, still write the one byte-identical, loadable file."""
    import sys
    import threading

    _, _, prog = build()
    save_checkpoint(tmp_path / "ref.ckpt", prog)
    want = (tmp_path / "ref.ckpt").read_bytes()
    errors = []

    def save(i):
        try:
            save_checkpoint(tmp_path / f"c{i}.ckpt", prog)
        except Exception as exc:  # reported below, by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=save, args=(i,)) for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for i in range(6):
        assert (tmp_path / f"c{i}.ckpt").read_bytes() == want
        load_checkpoint(tmp_path / f"c{i}.ckpt")
