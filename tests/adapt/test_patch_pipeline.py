"""The patch rung's group pipeline: one body, shared by twins.

``repro.adapt.patch._patch_group`` is a driver over stage functions; a
group byte-identical to one already patched takes its sibling's stage
values instead of recomputing them.  These tests pin what that sharing
and the staging must never change:

* sharing is invisible: the oracle-test history run with the twin check
  forced off charges, times and computes bit-identically;
* an aborted patch charges what it charged before aborting (digests
  recorded at the parent commit by this file's own functions);
* the first stage's :class:`~repro.adapt.patch.Delta` equals a
  dict-and-loop reference that shares no kernel with it;
* a twin group's patterns share the sibling's arrays and keep their own
  schedule object.

Everything but the stage-span and ``Delta`` tests also runs, and
passes, against the pre-pipeline ``_patch_group`` / ``_patch_group_twin``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.adapt import patch as patch_mod
from repro.adapt.state import product_groups
from repro.guard import FaultPlan
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop
from tests.adapt import test_lazy_state as lazy
from tests.adapt.test_patch_oracle import build_program, mutate
from tests.core.test_miss_path_kernels import digest

STAGES = ("delta", "slots", "translate", "allocate", "index", "schedule", "refs")
N_EPOCHS = 5


def run_oracle_history(n_procs, coalesce, **kwargs):
    """The oracle test's scenario: 5 epochs x 5 % edge churn, all patched.
    Returns the machine, the program and the obs span count after each
    epoch (all zeros with obs off)."""
    mesh = generate_mesh(400, seed=9)
    rng = np.random.default_rng(1234 + n_procs + int(coalesce))
    machine, prog = build_program(mesh, True, n_procs, coalesce, **kwargs)
    loop = euler_edge_loop(mesh)
    edges = mesh.edges.copy()
    prog.forall(loop, n_times=1)
    marks = [len(machine.obs.spans)]
    for _ in range(N_EPOCHS):
        edges, pick = mutate(edges, mesh.n_nodes, rng, fraction=0.05)
        prog.set_array_elements("end_pt1", pick, edges[0, pick])
        prog.set_array_elements("end_pt2", pick, edges[1, pick])
        prog.forall(loop, n_times=1)
        marks.append(len(machine.obs.spans))
    assert prog.patch_hits == N_EPOCHS and prog.inspector_runs == 1
    return machine, prog, marks


@pytest.mark.parametrize("n_procs", [4, 16])
@pytest.mark.parametrize("coalesce", [True, False])
def test_twin_group_equals_independent_patch(n_procs, coalesce, monkeypatch):
    shared, prog_shared, _ = run_oracle_history(n_procs, coalesce)
    monkeypatch.setattr(patch_mod, "_twin_matches", lambda *args: False)
    alone, prog_alone, _ = run_oracle_history(n_procs, coalesce)
    for field in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(shared.counters, field), getattr(alone.counters, field)
        ), field
    assert shared.elapsed() == alone.elapsed()
    phases = {r.name for r in shared.stats.phases}
    assert phases == {r.name for r in alone.stats.phases}
    for name in phases:
        assert shared.phase_time(name) == alone.phase_time(name), name
    assert np.array_equal(
        prog_shared.arrays["y"].to_global(), prog_alone.arrays["y"].to_global()
    )


@pytest.mark.parametrize("n_procs", [4, 16])
@pytest.mark.parametrize("coalesce", [True, False])
def test_shared_branch_taken_every_epoch(n_procs, coalesce):
    machine, _, marks = run_oracle_history(n_procs, coalesce, obs="on")
    spans = machine.obs.spans
    for lo, hi in zip(marks, marks[1:]):
        stage_spans = [s for s in spans[lo:hi] if s.name.startswith("adapt.patch.")]
        by_group = {}
        for s in stage_spans:
            if s.name != "adapt.patch.revote":
                by_group.setdefault((s.attrs["group"], s.attrs["twin"]), []).append(
                    s.name.removeprefix("adapt.patch.")
                )
        # every group ran every stage once, in order, primary or twin
        assert all(tuple(names) == STAGES for names in by_group.values()), by_group
        twins = [group for group, twin in by_group if twin]
        # x/y siblings: half the groups take their sibling's stage values
        assert len(twins) == len(by_group) // 2 >= 1


# digests of the machine's counters right after the fallback inspection,
# recorded at the parent commit (the 373-line ``_patch_group``) by
# ``abort_fingerprint`` below: what a patch charges before it aborts is
# a simulated number
PARENT_ABORT_FINGERPRINTS = {
    "negative_count": ("0.2069969333333334", "97b09be86379adc8"),
    "verify_failed": ("0.20993419047619058", "a25e62812b30acc7"),
}


def abort_fingerprint(kind):
    mesh, machine, prog, loop = lazy.build()
    if kind == "verify_failed":
        FaultPlan(seed=7).flip_slots(nth=0).install(machine)
    prog.forall(loop, n_times=1)
    if kind == "negative_count":
        for gstate in prog.adapt.state_for(loop.name, "verify").groups.values():
            gstate.counts[:] = 0  # out of sync: the first retire goes negative
    lazy.mutate(prog, mesh, 0)
    prog.forall(loop, n_times=1)
    reasons = [r["reason"] for r in prog.adapt.fallback_log]
    assert prog.inspector_runs == 2 and prog.patch_hits == 0
    return reasons, (
        repr(machine.elapsed()),
        digest(getattr(machine.counters, f) for f in COUNTER_FIELDS),
    )


@pytest.mark.parametrize(
    "kind, reason",
    [("negative_count", "patch_aborted"), ("verify_failed", "verify_failed")],
)
def test_aborted_patch_charges_what_it_always_charged(kind, reason):
    reasons, fingerprint = abort_fingerprint(kind)
    assert reasons == [reason]
    assert fingerprint == PARENT_ABORT_FINGERPRINTS[kind]


def naive_group_delta(product, home_new, ind_old, ind_new, member_keys):
    """Retired ``(proc, per-processor ghost slot)`` and added ``(proc,
    target)`` multisets of one group, by dict and loop: an iteration is
    in a member's delta when its indirection value or its home changed."""
    flat, bounds = product.iteration_partition.iters_flat()
    where = {}  # iteration -> (old home, old flat position)
    for p in range(len(bounds) - 1):
        for pos in range(int(bounds[p]), int(bounds[p + 1])):
            where[int(flat[pos])] = (p, pos)
    retired, added = Counter(), Counter()
    for array, ind in member_keys:
        loc = product.patterns[array, ind].localized
        for i, (p_old, pos) in where.items():
            target = i if ind is None else int(ind_new[ind][i])
            was = i if ind is None else int(ind_old[ind][i])
            if target == was and int(home_new[i]) == p_old:
                continue
            value = int(loc.refs_flat[pos])
            if value >= loc.local_sizes[p_old]:
                retired[p_old, value - int(loc.local_sizes[p_old])] += 1
            added[int(home_new[i]), target] += 1
    return retired, added


@pytest.mark.parametrize("coalesce", [True, False])
def test_delta_stage_matches_naive_reference(coalesce, monkeypatch):
    mesh = generate_mesh(400, seed=9)
    rng = np.random.default_rng(31)
    _, prog = build_program(mesh, True, 4, coalesce)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    before = prog.records[loop.name].product
    inds = ("end_pt1", "end_pt2")
    ind_old = {name: prog.arrays[name].to_global().copy() for name in inds}
    for name in inds:
        pick = np.sort(rng.choice(mesh.n_edges, size=mesh.n_edges // 20, replace=False))
        prog.set_array_elements(name, pick, rng.integers(0, mesh.n_nodes, pick.size))

    seen = []
    stage = patch_mod._group_delta

    def recording(ctx, gstate, member_keys, local_sizes):
        delta = stage(ctx, gstate, member_keys, local_sizes)
        seen.append((gstate, list(member_keys), delta))
        return delta

    monkeypatch.setattr(patch_mod, "_group_delta", recording)
    # every group computes its own delta (none takes a sibling's)
    monkeypatch.setattr(patch_mod, "_twin_matches", lambda *args: False)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1
    after = prog.records[loop.name].product
    assert after is not before and len(seen) == len(product_groups(before))

    ind_new = {name: prog.arrays[name].to_global() for name in inds}
    flat, bounds = after.iteration_partition.iters_flat()
    home_new = np.empty(flat.size, dtype=np.int64)
    home_new[flat] = np.repeat(np.arange(4), np.diff(bounds))
    old_flat, old_bounds = before.iteration_partition.iters_flat()
    home_old = np.empty(flat.size, dtype=np.int64)
    home_old[old_flat] = np.repeat(np.arange(4), np.diff(old_bounds))
    assert (home_new != home_old).any()  # the mutation moves iterations too

    for gstate, member_keys, delta in seen:
        retired, added = naive_group_delta(
            before, home_new, ind_old, ind_new, member_keys
        )
        got_retired = Counter(
            zip(
                delta.rem_procs.tolist(),
                (delta.rem_slots - gstate.slot_bounds[delta.rem_procs]).tolist(),
            )
        )
        got_added = Counter(zip(delta.add_procs.tolist(), delta.add_targets.tolist()))
        assert got_retired == retired and retired, member_keys
        assert got_added == added and added, member_keys
        # per-member delta iterations are where the multisets came from
        assert sum(D.size for D, _ in delta.members) == sum(added.values())


@pytest.mark.parametrize("coalesce", [True, False])
def test_twin_patterns_share_arrays_but_not_the_schedule(coalesce):
    _, prog, _ = run_oracle_history(4, coalesce)
    (record,) = prog.records.values()
    product = record.product
    groups = product_groups(product)
    assert len(groups) == (2 if coalesce else 4)
    for ind in ("end_pt1", "end_pt2"):
        px, py = product.patterns["x", ind], product.patterns["y", ind]
        assert px.localized.refs_flat is py.localized.refs_flat
        assert px.localized.ghost_flat is py.localized.ghost_flat
        assert px.derived is py.derived
        # identity delimits the groups (product_groups keys on it) ...
        assert px.localized.schedule is not py.localized.schedule
        # ... while the siblings move different data
        assert px.ghosts is not py.ghosts
