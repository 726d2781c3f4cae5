"""Checkpoint/restore: kill-halfway resume is bit-identical.

The reference run executes an adaptive campaign uninterrupted.  The
checkpointed run executes the first half, checkpoints, is discarded, and
a **fresh** program resumes from the file and executes the second half.
Machine counters, phase records, array contents, driver history and all
saved inspector state must match the reference bit for bit -- both at
the resume point and after continuing.
"""

import os
import pickle
import zlib

import numpy as np
import pytest

from repro import AdaptiveExecutor, IrregularDistribution, IrregularProgram
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

N_PROCS = 4


def build(n_procs=N_PROCS, incremental=True):
    mesh = generate_mesh(300, seed=4)
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
            assert np.array_equal(la.ghost_flat, lb.ghost_flat), key
            sa, sb = la.schedule, lb.schedule
            assert np.array_equal(sa._pair_q, sb._pair_q), key
            assert np.array_equal(sa._flat_send, sb._flat_send), key
            assert np.array_equal(sa._flat_recv, sb._flat_recv), key
            assert np.array_equal(
                pa.patterns[key].ghosts.backing, pb.patterns[key].ghosts.backing
            ), key
    if p_a.adapt is not None:
        assert p_a.adapt.loops_with_state() == p_b.adapt.loops_with_state()
        for lname in p_a.adapt.loops_with_state():
            sa = p_a.adapt.state_for(lname, "verify")
            sb = p_b.adapt.state_for(lname, "verify")
            assert np.array_equal(sa.home, sb.home)
            assert set(sa.snapshots) == set(sb.snapshots)
            for n in sa.snapshots:
                assert np.array_equal(sa.snapshots[n], sb.snapshots[n])
            assert set(sa.groups) == set(sb.groups)
            for gkey, ga in sa.groups.items():
                gb = sb.groups[gkey]
                for f in ("slot_bounds", "keys", "owners", "lidx", "counts"):
                    assert np.array_equal(getattr(ga, f), getattr(gb, f)), (gkey, f)


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
        for f in ("refs_flat", "ref_bounds", "ghost_flat", "ghost_bounds"):
            out[f"{key}/{f}"] = getattr(loc, f)
        # one schedule / ghost buffer object serves a whole pattern group
        for f in ("_pair_q", "_pair_p", "_pair_len", "_flat_send", "_flat_recv"):
            out[f"schedule {id(loc.schedule)}/{f}"] = getattr(loc.schedule, f)
        out[f"ghosts {id(pat.ghosts)}"] = pat.ghosts.backing
    state = prog.adapt.state_for(loop_name, "verify")
    out["home"] = state.home
    for name, snap in state.snapshots.items():
        out[f"snapshot/{name}"] = snap
    for gkey, g in state.groups.items():
        for f in ("slot_bounds", "keys", "owners", "lidx", "counts"):
            out[f"{gkey}/{f}"] = getattr(g, f)
    for name, arr in prog.arrays.items():
        out[f"array/{name}"] = arr.backing_ro
    return out


def test_restored_arrays_shared_means_frozen_private_means_unaliased(tmp_path):
    """The payload references the live arrays, so pickle writes an array
    several structures hold once and restore gets it back as *one*
    object.  That is only safe if nothing writes it in place: whatever
    came back shared must be frozen, whatever the runtime does write in
    place (snapshots, ghost backings) must alias nothing -- and the
    resumed campaign must still equal the uninterrupted one."""
    path = tmp_path / "campaign.ckpt"
    mesh, m_ref, p_ref = build()
    exe_ref = AdaptiveExecutor(p_ref, euler_edge_loop(mesh))
    drive(exe_ref, mesh, 4)

    mesh, _, p_a = build()
    exe_a = AdaptiveExecutor(p_a, euler_edge_loop(mesh))
    drive(exe_a, mesh, 2)  # full, patch: the y group is now the x group's twin
    save_checkpoint(path, p_a, driver=exe_a)

    # the file holds what was one object once: it loads as one object
    payload = load_checkpoint(path)
    loop_name = euler_edge_loop(mesh).name
    pats = dict(payload["records"][loop_name]["product"]["patterns"])
    groups = dict(payload["adapt"]["states"][loop_name]["groups"])
    gx, gy = groups["x", ("end_pt1", "end_pt2")], groups["y", ("end_pt1", "end_pt2")]
    assert gx["counts"] is gy["counts"] and gx["keys"] is gy["keys"]
    assert pats["x", "end_pt1"]["refs_flat"] is pats["y", "end_pt1"]["refs_flat"]
    assert pats["x", "end_pt1"]["ghost_bounds"] is gx["slot_bounds"]

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
    # a stray write to the slot bookkeeping raises instead of reaching the twin
    for g in p_b.adapt.state_for(loop_name, "verify").groups.values():
        with pytest.raises(ValueError, match="read-only"):
            g.counts[0] += 1

    # what the runtime writes in place: private, writeable, aliasing nothing
    private = [w for w in arrays if w.startswith(("snapshot/", "ghosts "))]
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


def test_on_disk_format_is_pinned(tmp_path):
    """Format version 2 and its payload keys.

    Version 2 added each decomposition's distribution as constructor
    data and dropped the per-array signature (an aligned array's
    distribution *is* its decomposition's); everything else is as
    version 1 wrote it.  A change to any key below needs a new
    ``_VERSION``.
    """
    from repro.guard import checkpoint

    assert (checkpoint._FORMAT, checkpoint._VERSION) == ("repro-checkpoint", 2)
    path = tmp_path / "campaign.ckpt"
    mesh, _, prog = build()
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    drive(exe, mesh, 2)
    save_checkpoint(path, prog, driver=exe)
    with open(path, "rb") as f:
        assert set(pickle.load(f)) == {"format", "version", "crc", "payload"}
    payload = load_checkpoint(path)
    assert set(payload) == {
        "n_procs", "machine", "decomps", "arrays", "registry", "program",
        "schedules", "ghosts", "records", "ttables", "adapt", "driver",
    }
    # nodes: RCB's owner map in the smallest dtype holding N_PROCS - 1
    reg, reg2 = payload["decomps"]["reg"], payload["decomps"]["reg2"]
    assert set(reg) == {"kind", "owner_map"} and reg["kind"] == "irregular"
    assert reg["owner_map"].dtype == np.uint8
    assert np.array_equal(reg["owner_map"], prog.decomps["reg"].distribution.owner_map())
    assert reg2 == {"kind": "block", "size": mesh.n_edges}
    for saved in payload["arrays"].values():
        assert set(saved) == {"dtype", "backing"}
    assert set(payload["machine"]) == {"counters", "phases"}
    assert set(payload["machine"]["counters"]) == set(COUNTER_FIELDS)
    for phase in payload["machine"]["phases"]:
        assert set(phase) == {"name", "elapsed", "counters"}
        assert set(phase["counters"]) == set(COUNTER_FIELDS)
    for sched in payload["schedules"].values():
        assert set(sched) == {
            "dist_signature", "pair_q", "pair_p", "pair_len", "flat_send",
            "flat_recv", "ghost_sizes",
        }
    for ghosts in payload["ghosts"].values():
        assert set(ghosts) == {"schedule", "dtype", "backing"}
    for rec in payload["records"].values():
        assert set(rec) == {"data_dads", "ind_dads", "ind_last_mod", "product"}
        product = rec["product"]
        assert set(product) == {"loop", "partition", "patterns", "dist_signatures"}
        assert set(product["partition"]) == {"n_iterations", "method", "flat", "bounds"}
        for _, pat in product["patterns"]:
            assert set(pat) == {
                "array", "index", "schedule", "ghosts", "local_sizes", "refs_flat",
                "ref_bounds", "ghost_flat", "ghost_bounds",
            }


def write_version_1(path):
    """Rewrite a checkpoint file the way format version 1 laid it out:
    no ``decomps``, a distribution signature per array, a valid CRC."""
    payload = load_checkpoint(path)
    del payload["decomps"]
    for saved in payload["arrays"].values():
        saved["signature"] = ("irregular", saved["backing"].size, N_PROCS, "0" * 16)
    blob = pickle.dumps(payload)
    envelope = {"format": "repro-checkpoint", "version": 1, "crc": zlib.crc32(blob)}
    with open(path, "wb") as f:
        pickle.dump({**envelope, "payload": blob}, f)


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
    payload["arrays"]["x"]["dtype"] = "<f4"


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
        path.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path, _ = self.make(tmp_path)
        env = pickle.loads(path.read_bytes())
        env["version"] = 999
        path.write_bytes(pickle.dumps(env))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_file_is_refused_by_resume(self, tmp_path):
        """A checkpoint is crash-recovery state, not an archive: an
        intact file of the previous format (no distributions) has no
        reader, and the refusal names its version."""
        path, mesh = self.make(tmp_path)
        write_version_1(path)
        _, _, prog = build()
        with pytest.raises(CheckpointError, match="version 1 unsupported"):
            AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))

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
        ],
        ids=[
            "missing_decomposition", "wrong_size", "non_bijective_local_map",
            "unknown_kind", "missing_array", "wrong_dtype",
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

    The shared-schedule / shared-ghost tables are keyed by first-seen
    ordinal and the driver history leaves its host-clock seconds out.
    Keyed by ``id()`` (as the tables were) the payload bytes differed
    from build to build, and with them the envelope's CRC -- an integer
    pickle writes in 5 bytes below 2**31 and 7 above, the +-2 wobble of
    every recorded checkpoint size.
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
    pay = load_checkpoint(tmp_path / "a.ckpt")
    # the keys are small ordinals, opaque to the loader
    assert sorted([*pay["schedules"], *pay["ghosts"]]) == list(
        range(len(pay["schedules"]) + len(pay["ghosts"]))
    )
    assert {g["schedule"] for g in pay["ghosts"].values()} <= set(pay["schedules"])
    # a resumed driver reports none of its predecessor's host seconds
    mesh, _, prog = build()
    exe = AdaptiveExecutor.resume(tmp_path / "a.ckpt", prog, euler_edge_loop(mesh))
    assert [r["inspect_wall_seconds"] for r in exe.history] == [0.0] * 3
