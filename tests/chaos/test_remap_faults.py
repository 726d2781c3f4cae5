"""Remap-path fault matrix: redistribution faults detected + recovered.

PR 6's fault matrix covered the gather wire; these scenarios extend it
to the repartition path (the Table 2 mapper/coupler epoch loop): wire
faults on remap-move data -- against both the full ``build_remap_schedule``
path and the PR 7 delta-patched ``patch_remap_schedule`` path -- and a
slot flip of a patched remap schedule.  Each scenario runs the rebalance
campaign twice, clean and faulted, and requires that the fault (a)
actually fired, (b) was detected and repaired through the program's
remap content check (``guard_events`` ``remap_divergence`` records), and
(c) left the simulated run **bit-identical** to the clean one: same
per-processor counters, same array contents (faults perturb moved data,
never charges; recovery is host-level).
"""

import numpy as np
import pytest

from repro.guard import FaultPlan
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from tests.workloads.helpers import run_rebalance_campaign

N_PROCS = 4
EPOCHS = 2

#: the node decomposition carries x, y and the three coordinate arrays,
#: so one redistribution fires five remap-apply events; the first
#: *patched* remap apply of epoch 1 is therefore event 5
N_ALIGNED_ARRAYS = 5


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(300, seed=4)


def run_campaign(mesh, plan=None, incremental=True):
    machine, prog, moves = run_rebalance_campaign(
        mesh,
        N_PROCS,
        epochs=EPOCHS,
        sweeps=1,
        incremental=incremental,
        seed=5,
        guard="cheap",
        fault_plan=plan,
    )
    assert all(m > 0 for m in moves), "campaign must actually migrate elements"
    return machine, prog


def assert_same_simulated_state(m_clean, p_clean, m_fault, p_fault):
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
        # nth=0: first remap apply of the setup redistribution -- the
        # full build_remap_schedule path
        lambda p: p.corrupt_remap(nth=0),
        lambda p: p.drop_remap(nth=0, count=2),
        lambda p: p.duplicate_remap(nth=0),
        # nth=N_ALIGNED_ARRAYS: first apply of epoch 1's *patched*
        # remap schedule (patch_remap_schedule / repartition_stable)
        lambda p: p.corrupt_remap(nth=N_ALIGNED_ARRAYS),
        lambda p: p.drop_remap(nth=N_ALIGNED_ARRAYS, count=2),
        lambda p: p.duplicate_remap(nth=N_ALIGNED_ARRAYS),
    ],
    ids=[
        "corrupt-full",
        "drop-full",
        "duplicate-full",
        "corrupt-patched",
        "drop-patched",
        "duplicate-patched",
    ],
)
def test_remap_wire_fault_detected_and_recovered(mesh, fault):
    m_clean, p_clean = run_campaign(mesh)
    plan = fault(FaultPlan(seed=9))
    m_fault, p_fault = run_campaign(mesh, plan=plan)
    # the fault fired ...
    assert len(plan.fired) == 1
    assert not plan.pending()
    # ... was detected and repaired by the remap content check ...
    recoveries = [
        e for e in p_fault.guard_events if e["event"] == "remap_divergence"
    ]
    assert len(recoveries) == 1
    assert recoveries[0]["recovered"]
    assert recoveries[0]["n_bad"] >= 1
    # ... and the simulated run is bit-identical to the clean one
    assert_same_simulated_state(m_clean, p_clean, m_fault, p_fault)
    assert not [
        e for e in p_clean.guard_events if e["event"] == "remap_divergence"
    ]


def test_flip_remap_detected_and_recovered(mesh):
    """A desynchronized patched remap schedule is repaired everywhere.

    The flipped destination map is shared by every aligned array of the
    decomposition, so each array's apply scatters wrong -- the content
    check must catch and repair each one (arrays whose swapped values
    happen to be equal legitimately show no divergence).
    """
    m_clean, p_clean = run_campaign(mesh)
    plan = FaultPlan(seed=9).flip_remap(nth=0)
    m_fault, p_fault = run_campaign(mesh, plan=plan)
    assert [f["kind"] for f in plan.fired] == ["flip_remap"]
    recoveries = [
        e for e in p_fault.guard_events if e["event"] == "remap_divergence"
    ]
    assert 1 <= len(recoveries) <= N_ALIGNED_ARRAYS
    assert all(e["recovered"] for e in recoveries)
    assert_same_simulated_state(m_clean, p_clean, m_fault, p_fault)


def test_remap_fault_detected_even_with_guard_off(mesh):
    """An installed plan forces the remap content check at any level."""
    plan = FaultPlan(seed=9).corrupt_remap(nth=0)
    machine, prog, _ = run_rebalance_campaign(
        mesh, N_PROCS, epochs=1, sweeps=1, incremental=True, seed=5,
        guard="off", fault_plan=plan,
    )
    assert len(plan.fired) == 1
    events = [e for e in prog.guard_events if e["event"] == "remap_divergence"]
    assert [e["recovered"] for e in events] == [True]


def test_full_vs_incremental_still_bit_identical_under_faults(mesh):
    """The PR 7 contract survives fault recovery: both remap modes land
    on the same arrays even when each was faulted along the way."""
    plan_a = FaultPlan(seed=9).corrupt_remap(nth=N_ALIGNED_ARRAYS)
    _, p_full = run_campaign(mesh, plan=plan_a, incremental=False)
    plan_b = FaultPlan(seed=11).duplicate_remap(nth=N_ALIGNED_ARRAYS)
    _, p_inc = run_campaign(mesh, plan=plan_b, incremental=True)
    assert len(plan_a.fired) == 1 and len(plan_b.fired) == 1
    for aname in p_full.arrays:
        assert np.array_equal(
            p_full.arrays[aname].to_global(), p_inc.arrays[aname].to_global()
        ), aname
