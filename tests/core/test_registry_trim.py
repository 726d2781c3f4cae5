"""Saving a record trims the dirty events every record has seen.

A record asks the modification registry only for events past its own
stamp (``dirty_ranges(dad, since=record.ind_last_mod[...])``), so when
the program saves one it drops each indirection DAD's events at or
below the smallest stamp any record over that DAD holds.  The
differential test here drives two loops over one DAD (``end_pt1`` and
``end_pt2`` share the edge decomposition) through write -> patch ->
more than 64 writes (past the fold) -> patch -> checkpoint / restore ->
patch, and after every step holds every answer a live record can ask
for against an untrimmed registry replaying the same writes, and
against the exact union of the writes themselves:

* an answer always covers every position written after the record's
  stamp -- trimming never hides a write;
* until the untrimmed log first folds, it equals the untrimmed answer;
* past the fold the two can differ.  The untrimmed fold merges events
  every record has seen into a newer stamp: here it folds the setup's
  whole-array writes in, so it reports the whole array dirty for the
  older record, which the trimmed log reports exactly.
"""

import copy

import numpy as np

from repro.core.forall import ForallLoop
from repro.core.timestamps import _MAX_EVENTS, ModificationRegistry
from repro.guard import load_checkpoint, restore_checkpoint, save_checkpoint
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import (
    euler_edge_loop,
    euler_flux_loop_statements,
    setup_euler_program,
)


def build(mesh):
    prog = setup_euler_program(Machine(4), mesh, seed=3, incremental=True)
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return prog


class Mirror:
    """Replays every write and remap a program's registry records into
    an untrimmed registry and an exact, unfolded event log.  The first
    registry attached is copied as it stands (before any record is
    saved, so untrimmed); a later one must have reached the same stamp."""

    def __init__(self) -> None:
        self.untrimmed: ModificationRegistry | None = None
        self.log: list[tuple[int, tuple, np.ndarray | None]] = []
        #: per DAD, events the untrimmed registry was ever handed (more
        #: than ``_MAX_EVENTS``: its log has folded)
        self.n_events: dict[tuple, int] = {}

    def attach(self, registry) -> None:
        if self.untrimmed is None:
            self.untrimmed = copy.deepcopy(registry)
            self.n_events = {sig: len(ev) for sig, ev in registry._events.items()}
        assert registry.nmod == self.untrimmed.nmod
        real_write, real_remap = registry.record_block_write, registry.record_remap

        def write(dads, regions=None):
            dads = list(dads)
            stamp = self.untrimmed.record_block_write(dads, regions)
            for i, dad in enumerate(dads):
                ranges = None if regions is None or regions[i] is None else np.asarray(regions[i])
                self.log.append((stamp, dad.signature, ranges))
                self.n_events[dad.signature] = self.n_events.get(dad.signature, 0) + 1
            return real_write(dads, regions)

        def remap(new_dad):
            self.log.append((self.untrimmed.record_remap(new_dad), new_dad.signature, None))
            self.n_events[new_dad.signature] = self.n_events.get(new_dad.signature, 0) + 1
            return real_remap(new_dad)

        registry.record_block_write, registry.record_remap = write, remap

    def exact(self, dad, since: int) -> np.ndarray | None:
        """Every position written to ``dad`` after ``since`` (``None``:
        some write there carried no region); every stamp a record can
        hold is past the writes before the first attach."""
        pos = []
        for stamp, sig, ranges in self.log:
            if sig != dad.signature or stamp <= since:
                continue
            if ranges is None:
                return None
            pos += [np.arange(lo, hi) for lo, hi in ranges]
        return np.unique(np.concatenate(pos)) if pos else np.empty(0, dtype=np.int64)


def positions(ranges) -> np.ndarray:
    return np.concatenate([np.arange(lo, hi) for lo, hi in ranges] or [np.empty(0, dtype=np.int64)])


def check(prog, mirror: Mirror) -> int:
    """Hold every answer a live record can ask for; returns how many."""
    asked = 0
    for rec in prog.records.values():
        for name, dad in rec.ind_dads.items():
            since = rec.ind_last_mod[name]
            got = prog.registry.dirty_ranges(dad, since)
            exact = mirror.exact(dad, since)
            # no region-less write in this drive: every answer is ranges,
            # and none loses a write the record can ask about
            assert exact is not None and got is not None, (rec.loop_name, name)
            assert np.isin(exact, positions(got)).all(), (rec.loop_name, name)
            if mirror.n_events.get(dad.signature, 0) <= _MAX_EVENTS:
                want = mirror.untrimmed.dirty_ranges(dad, since)
                assert np.array_equal(got, want), (rec.loop_name, name)
            asked += 1
    return asked


def writes(prog, mesh, rng, n: int) -> None:
    """``n`` tracked writes, each to a few edges of one edge array."""
    for k in range(n):
        name = ("end_pt1", "end_pt2")[k % 2]
        pick = np.sort(rng.choice(mesh.n_edges, size=3, replace=False))
        prog.set_array_elements(name, pick, rng.integers(0, mesh.n_nodes, pick.size))


def test_trimmed_answers_equal_the_untrimmed_registry_across_a_resume(tmp_path):
    mesh = generate_mesh(300, seed=4)
    rng = np.random.default_rng(5)
    loops = [
        euler_edge_loop(mesh),
        ForallLoop("half_sweep", mesh.n_edges, euler_flux_loop_statements()[:1]),
    ]
    prog, mirror = build(mesh), Mirror()
    assert not prog.records
    mirror.attach(prog.registry)
    asked = 0

    def sweep(p, loop, rung):
        nonlocal asked
        p.forall(loop, n_times=1)
        assert p.last_resolution["rung"] == rung
        asked += check(p, mirror)

    for loop in loops:
        sweep(prog, loop, "full")
    writes(prog, mesh, rng, 5)
    sweep(prog, loops[0], "patch")
    # past the fold, with the second loop's record older than every write
    writes(prog, mesh, rng, _MAX_EVENTS + 6)
    asked += check(prog, mirror)
    rec = prog.records[loops[1].name]
    dad, since = rec.ind_dads["end_pt1"], rec.ind_last_mod["end_pt1"]
    assert np.array_equal(positions(prog.registry.dirty_ranges(dad, since)), mirror.exact(dad, since))
    assert mirror.untrimmed.dirty_ranges(dad, since).tolist() == [[0, mesh.n_edges]]
    sweep(prog, loops[0], "patch")
    writes(prog, mesh, rng, 4)
    sweep(prog, loops[1], "patch")
    writes(prog, mesh, rng, 7)
    asked += check(prog, mirror)

    path = tmp_path / "trim.ckpt"
    save_checkpoint(path, prog)
    resumed = build(mesh)
    restore_checkpoint(load_checkpoint(path), resumed, {loop.name: loop for loop in loops})
    mirror.attach(resumed.registry)
    asked += check(resumed, mirror)
    sweep(resumed, loops[0], "patch")
    writes(resumed, mesh, rng, 3)
    sweep(resumed, loops[1], "patch")
    sweep(resumed, loops[0], "patch")
    assert asked > 20

    # every record is as new as every write: nothing is left to trim to
    sig = resumed.records[loops[0].name].ind_dads["end_pt1"].signature
    assert resumed.registry._events[sig] == []
    assert len(mirror.untrimmed._events[sig]) > 0
