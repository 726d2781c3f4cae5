"""Fault-injection matrix: every seeded fault is detected and recovered.

Each scenario runs the adaptive Euler campaign twice -- once clean, once
with a seeded :class:`FaultPlan` installed -- and requires that the
faulted run (a) actually injected the fault, (b) detected it through the
guard layer, and (c) recovered to **bit-identical simulated state**:
same array contents and same per-processor clocks/counters as the clean
run (faults perturb data, never charges; recovery is host-level).
"""

import numpy as np
import pytest

from repro.adapt import driver as driver_mod
from repro.guard import FaultPlan
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program


def build(n_procs=4, guard="cheap", **kwargs):
    mesh = generate_mesh(300, seed=4)
    machine = Machine(n_procs)
    prog = setup_euler_program(
        machine, mesh, seed=11, incremental=True, guard=guard, **kwargs
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    loop = euler_edge_loop(mesh)
    return mesh, machine, prog, loop


def mutate(prog, mesh, edges, step):
    rng = np.random.default_rng(1000 + step)
    pick = np.sort(rng.choice(mesh.n_edges, size=25, replace=False))
    edges[1, pick] = (
        edges[0, pick] + 1 + rng.integers(0, mesh.n_nodes - 1, pick.size)
    ) % mesh.n_nodes
    prog.set_array_elements("end_pt2", pick, edges[1, pick])


def run_campaign(plan=None, steps=3, **kwargs):
    mesh, machine, prog, loop = build(**kwargs)
    if plan is not None:
        plan.install(machine)
    edges = mesh.edges.copy()
    prog.forall(loop, n_times=1)
    for step in range(steps):
        mutate(prog, mesh, edges, step)
        prog.forall(loop, n_times=1)
    return machine, prog


def assert_same_simulated_state(m_clean, p_clean, m_fault, p_fault):
    from repro.machine.stats import COUNTER_FIELDS

    for name in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_clean.counters, name), getattr(m_fault.counters, name)
        ), name
    for aname in p_clean.arrays:
        assert np.array_equal(
            p_clean.arrays[aname].to_global(),
            p_fault.arrays[aname].to_global(),
        ), aname


@pytest.mark.parametrize(
    "fault",
    [
        lambda p: p.corrupt_gather(nth=0),
        lambda p: p.corrupt_gather(nth=2),
        # a dropped slot reads 0, so a drop is visible on any sweep, not
        # only on the first one
        lambda p: p.drop_gather(nth=0, count=3),
        lambda p: p.drop_gather(nth=1, count=3),
        lambda p: p.drop_gather(nth=2, count=3),
        lambda p: p.drop_gather(nth=3, count=3),
        lambda p: p.duplicate_gather(nth=0),
    ],
    ids=["corrupt-first", "corrupt-later", "drop", "drop-1", "drop-2", "drop-3", "duplicate"],
)
def test_wire_fault_detected_and_recovered(fault):
    m_clean, p_clean = run_campaign()
    plan = fault(FaultPlan(seed=7))
    m_fault, p_fault = run_campaign(plan=plan)
    # the fault fired ...
    assert len(plan.fired) == 1
    assert not plan.pending()
    # ... was detected and repaired by the executor's content check ...
    recoveries = [
        e for e in p_fault.guard_events if e["event"] == "gather_divergence"
    ]
    assert len(recoveries) == 1
    assert recoveries[0]["recovered"]
    assert recoveries[0]["n_bad"] >= 1
    # ... and the simulated run is bit-identical to the clean one
    assert_same_simulated_state(m_clean, p_clean, m_fault, p_fault)
    assert not p_clean.guard_events


def test_dropped_gather_slots_read_zero():
    """A drop leaves its slots at 0 whatever the ghost array held before
    -- here the previous gather's correct values -- and every other slot
    gets its owner's value."""
    mesh, machine, prog, loop = build()
    prog.forall(loop, n_times=1)
    sched = prog.records[loop.name].product.patterns["x", "end_pt1"].localized.schedule
    arr = prog.arrays["x"]
    clean = np.zeros(sched.ghost_total())
    sched._move_gather(arr, clean)
    plan = FaultPlan(seed=7).drop_gather(nth=0, count=3).install(machine)
    ghosts = clean.copy()
    sched._move_gather(arr, ghosts)
    (fired,) = plan.fired
    # the fault names wire positions: elements grouped by owner, stable
    wire = np.argsort(np.repeat(sched._pair_q, sched._pair_len), kind="stable")
    dropped = sched._unpack_pos[wire[fired["elements"]]]
    assert dropped.size == 3 and (clean[dropped] != 0).all()
    assert (ghosts[dropped] == 0).all()
    kept = np.setdiff1d(np.arange(ghosts.size), dropped)
    assert np.array_equal(ghosts[kept], clean[kept])


def test_wire_fault_detected_even_with_guard_off():
    """An installed plan forces the gather content check at any level."""
    plan = FaultPlan(seed=7).corrupt_gather(nth=0)
    m_fault, p_fault = run_campaign(plan=plan, guard="off")
    assert len(plan.fired) == 1
    assert [e["recovered"] for e in p_fault.guard_events] == [True]
    m_clean, p_clean = run_campaign(guard="off")
    assert_same_simulated_state(m_clean, p_clean, m_fault, p_fault)


def test_flip_slots_fails_verification_and_falls_back():
    m_clean, p_clean = run_campaign()
    plan = FaultPlan(seed=7).flip_slots(nth=0)
    m_fault, p_fault = run_campaign(plan=plan)
    assert [f["kind"] for f in plan.fired] == ["flip_slots"]
    # the poisoned patch was rejected: one verify fallback, one extra
    # full inspection, and the failure is counted toward the ladder
    log = p_fault.adapt.fallback_log
    assert [r["reason"] for r in log] == ["verify_failed"]
    assert log[0]["stage"] == "verify"
    assert "InvariantViolation" in (log[0]["error"] or "") or "PatchVerifyFailed" in (
        log[0]["error"] or ""
    )
    assert list(p_fault.adapt.failures.values()) == [1]
    assert not p_fault.adapt.disabled
    assert p_fault.inspector_runs == p_clean.inspector_runs + 1
    assert p_fault.patch_hits == p_clean.patch_hits - 1
    # array contents still correct: the rejected product was never used
    for aname in ("y", "x"):
        assert np.array_equal(
            p_clean.arrays[aname].to_global(), p_fault.arrays[aname].to_global()
        )


def test_repeated_flips_disable_incremental_for_loop(monkeypatch):
    monkeypatch.setattr(driver_mod, "MAX_FAILURES", 2)
    plan = FaultPlan(seed=7)
    for nth in range(4):
        plan.flip_slots(nth=nth)
    mesh, machine, prog, loop = build()
    plan.install(machine)
    edges = mesh.edges.copy()
    prog.forall(loop, n_times=1)
    for step in range(4):
        mutate(prog, mesh, edges, step)
        prog.forall(loop, n_times=1)
    assert loop.name in prog.adapt.disabled
    assert prog.adapt.failures[loop.name] == 2
    reasons = [r["reason"] for r in prog.adapt.fallback_log]
    assert reasons[:2] == ["verify_failed", "verify_failed"]
    assert "incremental_disabled" in reasons[2:]
    # every step after disabling runs the full inspector
    assert prog.patch_hits == 0
    assert prog.inspector_runs == 5


def test_stall_moves_clock_but_not_results():
    m_clean, p_clean = run_campaign()
    plan = FaultPlan(seed=7).stall(
        "executor", proc=1, seconds=2.5, when="enter", nth=0
    )
    m_fault, p_fault = run_campaign(plan=plan)
    assert [f["kind"] for f in plan.fired] == ["stall"]
    # results identical; the straggler's delay shows up in elapsed time
    for aname in p_clean.arrays:
        assert np.array_equal(
            p_clean.arrays[aname].to_global(), p_fault.arrays[aname].to_global()
        )
    assert m_fault.elapsed() > m_clean.elapsed()
    # the stall lands inside the stalled phase's accounting (the phase
    # gains *up to* the stall time: the straggler may have started the
    # phase slightly behind the leading clock)
    exec_clean = m_clean.phase_time("executor")
    exec_fault = m_fault.phase_time("executor")
    assert exec_clean + 2.0 < exec_fault <= exec_clean + 2.5 + 1e-9


def test_stall_when_validation():
    with pytest.raises(ValueError, match="enter"):
        FaultPlan().stall("executor", when="sometime")


def test_plan_is_deterministic():
    plans = [FaultPlan(seed=3).corrupt_gather(nth=1) for _ in range(2)]
    runs = [run_campaign(plan=p) for p in plans]
    assert plans[0].fired == plans[1].fired
    assert_same_simulated_state(*runs[0], *runs[1])


def fault_timeline(make, steps=4):
    """The steps on which anything happened, each as ``(step, faults
    fired, fallback reasons, guard events)``; step 0 is the full
    inspection, each later step one churn write and its sweep."""
    plan = make(FaultPlan(seed=7))
    mesh, machine, prog, loop = build()
    plan.install(machine)
    edges = mesh.edges.copy()
    timeline = []
    fired = falls = events = 0
    for step in range(steps + 1):
        if step:
            mutate(prog, mesh, edges, step - 1)
        prog.forall(loop, n_times=1)
        new = (
            [dict(f) for f in plan.fired[fired:]],
            [r["reason"] for r in prog.adapt.fallback_log[falls:]],
            [(e["event"], e["array"], e["n_bad"], e["recovered"]) for e in prog.guard_events[events:]],
        )
        if any(new):
            timeline.append((step, *new))
        fired, falls, events = len(plan.fired), len(prog.adapt.fallback_log), len(prog.guard_events)
    return timeline


#: faults whose whole timeline is pinned below
TIMELINE_FAULTS = {
    "corrupt_gather_0": lambda p: p.corrupt_gather(nth=0),
    "corrupt_gather_2": lambda p: p.corrupt_gather(nth=2),
    "drop_gather_1": lambda p: p.drop_gather(nth=1, count=3),
    "duplicate_gather_0": lambda p: p.duplicate_gather(nth=0),
    "flip_slots_0": lambda p: p.flip_slots(nth=0),
    "flip_slots_2": lambda p: p.flip_slots(nth=2),
    "flip_slots_0_to_3": lambda p: p.flip_slots(nth=0).flip_slots(nth=1).flip_slots(nth=2).flip_slots(nth=3),
    "stall_executor": lambda p: p.stall("executor", proc=1, seconds=2.5, when="enter", nth=0),
}

#: every fault's timeline, recorded at the commit before a pattern group
#: became a value (when ``y(edge(i))`` held a clone of ``x(edge(i))``'s
#: schedule): with the schedule shared, each fault still fires at the same
#: event, on the same element, and is caught on the same step
PINNED_TIMELINES = {
    "corrupt_gather_0": [
        (0, [{"kind": "corrupt_gather", "gather": 0, "element": 155}], [], [("gather_divergence", "x", 1, True)]),
    ],
    "corrupt_gather_2": [
        (2, [{"kind": "corrupt_gather", "gather": 2, "element": 171}], [], [("gather_divergence", "x", 1, True)]),
    ],
    "drop_gather_1": [
        (1, [{"kind": "drop_gather", "gather": 1, "elements": [108, 119, 163]}], [], [("gather_divergence", "x", 3, True)]),
    ],
    "duplicate_gather_0": [
        (0, [{"kind": "duplicate_gather", "gather": 0, "element": 156}], [], [("gather_divergence", "x", 1, True)]),
    ],
    "flip_slots_0": [
        (1, [{"kind": "flip_slots", "patch": 0, "array": "x"}], ["verify_failed"], []),
    ],
    "flip_slots_0_to_3": [
        (1, [{"kind": "flip_slots", "patch": 0, "array": "x"}], ["verify_failed"], []),
        (2, [{"kind": "flip_slots", "patch": 1, "array": "x"}], ["verify_failed"], []),
        (3, [{"kind": "flip_slots", "patch": 2, "array": "x"}], ["verify_failed"], []),
        (4, [], ["incremental_disabled"], []),
    ],
    "flip_slots_2": [
        (3, [{"kind": "flip_slots", "patch": 2, "array": "x"}], ["verify_failed"], []),
    ],
    "stall_executor": [
        (0, [{"kind": "stall", "phase": "executor", "when": "enter", "proc": 1, "seconds": 2.5}], [], []),
    ],
}


@pytest.mark.parametrize("name", sorted(TIMELINE_FAULTS))
def test_every_fault_fires_and_is_caught_where_it_always_was(name):
    assert fault_timeline(TIMELINE_FAULTS[name]) == PINNED_TIMELINES[name]
