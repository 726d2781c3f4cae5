"""`MAX_CHANGE_FRACTION` boundary: exactly-at-threshold still patches.

The routing comparison in :meth:`IncrementalInspector.attempt` is
``n_changed > MAX_CHANGE_FRACTION * n_tracked`` -- strictly greater.
These tests pin the fraction so the threshold falls on an integer count
of changed edges and probe one-below, exactly-at, and one-above.
"""

import numpy as np
import pytest

from repro.adapt import driver as driver_mod
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program

N_PROCS = 4
THRESHOLD_COUNT = 16  # MAX_CHANGE_FRACTION is set to THRESHOLD_COUNT/n_edges


def build(monkeypatch):
    mesh = generate_mesh(300, seed=4)
    machine = Machine(N_PROCS)
    prog = setup_euler_program(machine, mesh, seed=11, incremental=True)
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    # end_pt1 and end_pt2 share a DAD (same kind/size/distribution), so
    # mutating end_pt2 stales both and the diff tracks 2*n_edges values;
    # pin the fraction so the threshold falls exactly on THRESHOLD_COUNT
    monkeypatch.setattr(driver_mod, "MAX_CHANGE_FRACTION", THRESHOLD_COUNT / (2 * mesh.n_edges))
    return mesh, prog, loop


def mutate_exactly(prog, mesh, n_changed):
    """Re-target exactly ``n_changed`` edges, each to a genuinely
    different (and valid) node index."""
    pick = np.arange(n_changed, dtype=np.int64)
    old = np.asarray(prog.arrays["end_pt2"].global_view(), dtype=np.int64)[pick]
    new = (old + 1) % mesh.n_nodes
    assert (new != old).all()
    prog.set_array_elements("end_pt2", pick, new)


@pytest.mark.parametrize(
    "n_changed, expect_patch",
    [
        (THRESHOLD_COUNT - 1, True),  # under: patch
        (THRESHOLD_COUNT, True),  # exactly at threshold: strict >, patch
        (THRESHOLD_COUNT + 1, False),  # over: full re-inspection
    ],
    ids=["one-under", "exactly-at", "one-over"],
)
def test_threshold_boundary(monkeypatch, n_changed, expect_patch):
    mesh, prog, loop = build(monkeypatch)
    runs_before, hits_before = prog.inspector_runs, prog.patch_hits
    mutate_exactly(prog, mesh, n_changed)
    prog.forall(loop, n_times=1)
    if expect_patch:
        assert prog.patch_hits == hits_before + 1
        assert prog.inspector_runs == runs_before
        assert not prog.adapt.fallback_log
    else:
        assert prog.patch_hits == hits_before
        assert prog.inspector_runs == runs_before + 1
        (rec,) = prog.adapt.fallback_log
        assert rec["reason"] == "over_threshold"
        assert rec["n_changed"] == n_changed
        assert rec["n_tracked"] == 2 * mesh.n_edges
        # the event says what it lost against: the routing comparison
        # can be redone from the payload alone
        (event,) = prog.events.payloads("adapt.fallback")
        assert event["threshold"] == THRESHOLD_COUNT / (2 * mesh.n_edges)
        assert event["n_changed"] > event["threshold"] * event["n_tracked"]


def test_rewrite_without_change_does_not_count(monkeypatch):
    """Only *value* changes count toward the threshold: rewriting the
    whole dirty window with identical values patches trivially."""
    mesh, prog, loop = build(monkeypatch)
    vals = np.asarray(prog.arrays["end_pt2"].global_view(), dtype=np.int64)
    prog.set_array_elements(
        "end_pt2", np.arange(mesh.n_edges, dtype=np.int64), vals.copy()
    )
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1
    assert not prog.adapt.fallback_log

