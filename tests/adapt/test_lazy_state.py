"""A product carries its own adapt state, built on first use.

An inspection charges the bookkeeping; the O(refs)
:func:`~repro.adapt.state.build_adapt_state` runs only when a patch
attempt or a checkpoint first reads the state of the saved product
(``IncrementalInspector.state_of``), which then carries it as
``adapt_state``; a patched product is born with its own.  These tests
pin the deferral to the eager behaviour it replaced:

* warm re-inspections never build, and the first patch builds exactly
  once;
* the built state is element-equal to one built at inspection time,
  whatever was written or remapped in between;
* a checkpoint taken before the first patch resumes bit-identically;
* a patch never mutates its input's state -- not when it succeeds, not
  when it aborts, not when its result fails verification -- and after a
  failure the next full inspection's product builds afresh;
* the build is visible (span, ``adapt.state`` event, history field).
"""

import numpy as np
import pytest

from repro import AdaptiveExecutor
from repro.adapt import build_adapt_state
from repro.guard import FaultPlan, load_checkpoint, save_checkpoint
from repro.guard.invariants import verify_adapt_state
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program

N_PROCS = 4
#: a group state's arrays (its layout is the product's slot state)
GROUP_FIELDS = ("counts", "sorted_comp", "sorted_slot")


def build(guard="cheap", **kwargs):
    mesh = generate_mesh(300, seed=4)
    machine = Machine(N_PROCS)
    prog = setup_euler_program(
        machine, mesh, seed=11, incremental=True, guard=guard, **kwargs
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return mesh, machine, prog, euler_edge_loop(mesh)


def mutate(prog, mesh, step, arrays=("end_pt2",)):
    """Deterministic tracked write to the named indirection arrays."""
    rng = np.random.default_rng(1000 + step)
    pick = np.sort(rng.choice(mesh.n_edges, size=25, replace=False))
    for name in arrays:
        new = rng.integers(0, mesh.n_nodes, pick.size)
        prog.set_array_elements(name, pick, new)


def eager_state(prog, loop):
    """What the pre-deferral runtime built: the state of the loop's
    saved product, built *now* from the live arrays (and not attached)."""
    product = prog.records[loop.name].product
    return build_adapt_state(product)


def saved_state(prog, loop):
    """The saved product's adapt state, built and attached through the
    program's getter if it has none."""
    return prog.adapt.state_of(prog.records[loop.name].product, "test")


def state_arrays(state) -> list:
    """Copies of every array (or ``None``) and the stride of ``state``."""
    out = [state.home.copy()]
    for g in state.groups.values():
        out += [None if a is None else a.copy() for a in (g.counts, g.sorted_comp, g.sorted_slot)]
        out.append(g.index_stride)
    return out


def assert_same_arrays(got: list, want: list):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert a == b


def assert_states_equal(a, b):
    assert np.array_equal(a.home, b.home)
    assert list(a.groups) == list(b.groups)
    for gkey, ga in a.groups.items():
        gb = b.groups[gkey]
        assert (ga.array, ga.indexes) == (gb.array, gb.indexes)
        assert ga.index_stride == gb.index_stride
        for f in GROUP_FIELDS:
            assert np.array_equal(getattr(ga, f), getattr(gb, f)), (gkey, f)


def assert_machines_equal(m_a, m_b):
    assert m_a.elapsed() == m_b.elapsed()
    for name in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_a.counters, name), getattr(m_b.counters, name)
        ), name
    assert [(r.name, r.elapsed) for r in m_a.stats.phases] == [
        (r.name, r.elapsed) for r in m_b.stats.phases
    ]


@pytest.fixture
def build_calls(monkeypatch):
    """Every ``build_adapt_state`` call the driver makes, by loop name."""
    import repro.adapt.driver as driver

    calls = []

    def counting(product):
        calls.append(product.loop.name)
        return build_adapt_state(product)

    monkeypatch.setattr(driver, "build_adapt_state", counting)
    return calls


def test_built_state_equals_eager_build_despite_later_writes():
    mesh, _, prog, loop = build()
    prog.forall(loop, n_times=1)
    before = prog.arrays["end_pt1"].to_global()
    eager = eager_state(prog, loop)
    # tracked writes to both indirection arrays *after* the inspection:
    # the product holds the inspected views, not the arrays
    mutate(prog, mesh, 0, arrays=("end_pt1", "end_pt2"))
    assert not np.array_equal(prog.arrays["end_pt1"].to_global(), before)
    built = saved_state(prog, loop)
    assert_states_equal(eager, built)


@pytest.mark.parametrize("coalesce", [True, False])
def test_sibling_groups_share_one_state_build(coalesce, monkeypatch):
    """``y(edge(i))`` holds ``x(edge(i))``'s references under one
    distribution: its group state is built once and shared, and equals a
    build of its own."""
    import repro.adapt.state as state_mod

    real = state_mod.build_group_state
    built = []
    monkeypatch.setattr(
        state_mod, "build_group_state", lambda *args: built.append(args[1]) or real(*args)
    )
    _, _, prog, loop = build(coalesce_patterns=coalesce)
    prog.forall(loop, n_times=1)
    state = saved_state(prog, loop)
    assert len(state.groups) == 2 * len(built) and all(k[0][0] == "x" for k in built)
    product = prog.records[loop.name].product
    for (array, indexes), gstate in state.groups.items():
        sibling = state.groups["x", indexes]
        assert (gstate.array, gstate.indexes) == (array, indexes)
        for f in GROUP_FIELDS:
            assert getattr(gstate, f) is getattr(sibling, f), (array, f)
        alone = real(product, [(array, i) for i in indexes])
        for f in GROUP_FIELDS:
            assert np.array_equal(getattr(gstate, f), getattr(alone, f)), (array, f)


def test_state_is_built_once_and_then_carried(build_calls):
    _, _, prog, loop = build()
    prog.forall(loop, n_times=1)
    product = prog.records[loop.name].product
    assert product.adapt_state is None
    first = prog.adapt.state_of(product, "checkpoint")
    assert prog.adapt.state_of(product, "patch") is first
    assert product.adapt_state is first
    assert build_calls == [loop.name]


def test_checkpoint_before_first_patch_resumes_bit_identically(tmp_path):
    path = tmp_path / "early.ckpt"
    steps = 3

    def campaign(exe, mesh, start, n):
        for step in range(start, start + n):
            mutate(exe.program, mesh, step)
            exe.step()

    # undisturbed reference
    mesh, m_ref, p_ref, loop_ref = build()
    exe_ref = AdaptiveExecutor(p_ref, loop_ref)
    exe_ref.step()
    campaign(exe_ref, mesh, 0, steps)

    # checkpoint right after the first (full) inspection: the product has
    # no state yet, so the save is what builds it
    mesh, m_a, p_a, loop_a = build()
    exe_a = AdaptiveExecutor(p_a, loop_a)
    exe_a.step()
    exe_a.checkpoint(path)
    (event,) = p_a.events.category("adapt.state")
    assert event.name == "checkpoint"

    mesh, m_b, p_b, loop_b = build()
    exe_b = AdaptiveExecutor.resume(path, p_b, loop_b)
    # host-clock build time is not part of the file (format unchanged);
    # the resumed process was handed built state and reports no build
    assert "state_build_wall_seconds" not in load_checkpoint(path)["driver"]["history"][0]
    assert [r["state_build_wall_seconds"] for r in exe_b.history] == [0.0]
    campaign(exe_b, mesh, 0, steps)
    assert all(r["state_build_wall_seconds"] == 0.0 for r in exe_b.history)
    assert exe_b.mode_counts() == exe_ref.mode_counts() == {
        "full": 1,
        "reuse": 0,
        "patch": steps,
    }
    assert_machines_equal(m_ref, m_b)
    assert np.array_equal(p_ref.arrays["y"].to_global(), p_b.arrays["y"].to_global())
    # patched products, each born with its state
    assert_states_equal(
        p_ref.records[loop_ref.name].product.adapt_state,
        p_b.records[loop_b.name].product.adapt_state,
    )
    # the checkpointing run itself is undisturbed by having built early
    campaign(exe_a, mesh, 0, steps)
    assert_machines_equal(m_ref, m_a)


def test_redistribute_before_checkpoint_builds_against_inspected_layout(tmp_path):
    """A remap between the inspection and the first reader must not leak
    into the state: it reads the product alone, so it stays consistent
    with the (now void) product it describes, whose slot state holds the
    inspected owners."""
    mesh, _, prog, loop = build()
    prog.forall(loop, n_times=1)
    product = prog.records[loop.name].product
    eager = eager_state(prog, loop)
    inspected_owner = prog.arrays["x"].distribution.owner_map().copy()

    prog.redistribute("reg", "block")
    assert not np.array_equal(
        prog.arrays["x"].distribution.owner_map(), inspected_owner
    )
    save_checkpoint(tmp_path / "remapped.ckpt", prog)  # builds; must not raise

    built = product.adapt_state
    assert_states_equal(eager, built)
    # owners/offsets agree with the product's own schedules
    verify_adapt_state(product, prog.arrays, "cheap")
    for (array, indexes), gstate in built.groups.items():
        slots = product.patterns[array, indexes[0]].localized.slots
        live = gstate.counts > 0
        assert np.array_equal(slots.owners[live], inspected_owner[slots.keys[live]])
    # and the void product is simply re-inspected on the next sweep
    runs = prog.inspector_runs
    prog.forall(loop, n_times=1)
    assert prog.inspector_runs == runs + 1
    assert prog.adapt.fallback_log[-1]["reason"] == "unpatchable_condition"


def test_verify_failure_keeps_no_state_and_the_next_product_builds_afresh(build_calls):
    mesh, machine, prog, loop = build()
    FaultPlan(seed=7).flip_slots(nth=0).install(machine)
    prog.forall(loop, n_times=1)
    mutate(prog, mesh, 0)
    prog.forall(loop, n_times=1)  # patch poisoned -> verify fails -> full
    assert [r["reason"] for r in prog.adapt.fallback_log] == ["verify_failed"]
    assert prog.inspector_runs == 2
    # the failed attempt built once; the fallback inspection's product
    # starts without a state
    assert build_calls == [loop.name]
    product = prog.records[loop.name].product
    assert product.adapt_state is None
    # the next reader builds again -- from the *new* inspection
    fresh = saved_state(prog, loop)
    assert_states_equal(fresh, eager_state(prog, loop))
    assert build_calls == [loop.name, loop.name]
    mutate(prog, mesh, 1)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1
    assert build_calls == [loop.name, loop.name]


def test_patch_abort_keeps_no_state_and_the_next_product_builds_afresh(build_calls):
    mesh, _, prog, loop = build()
    prog.forall(loop, n_times=1)
    stale = saved_state(prog, loop)
    for gstate in stale.groups.values():
        gstate.counts[:] = 0  # out of sync: the first retire goes negative
    mutate(prog, mesh, 0)
    prog.forall(loop, n_times=1)
    assert [r["reason"] for r in prog.adapt.fallback_log] == ["patch_aborted"]
    assert prog.inspector_runs == 2 and prog.patch_hits == 0
    assert build_calls == [loop.name]
    assert prog.records[loop.name].product.adapt_state is None
    fresh = saved_state(prog, loop)
    assert fresh is not stale
    assert_states_equal(fresh, eager_state(prog, loop))
    assert build_calls == [loop.name, loop.name]


@pytest.mark.parametrize("outcome", ["patched", "patch_aborted", "verify_failed"])
def test_a_patch_never_mutates_its_input_state(outcome):
    """Whatever the attempt's outcome, the input product keeps the very
    state object it had, with bit-identical arrays."""
    mesh, machine, prog, loop = build()
    if outcome == "verify_failed":
        FaultPlan(seed=7).flip_slots(nth=1).install(machine)  # the second patch
    prog.forall(loop, n_times=1)
    mutate(prog, mesh, 0)
    prog.forall(loop, n_times=1)  # a patch: its product carries a sorted index
    assert prog.patch_hits == 1
    product = prog.records[loop.name].product
    state = product.adapt_state
    if outcome == "patch_aborted":
        for gstate in state.groups.values():
            gstate.counts[:] = 0  # out of sync: the first retire goes negative
    before = state_arrays(state)
    assert any(g.sorted_comp is not None for g in state.groups.values())
    mutate(prog, mesh, 1)
    prog.forall(loop, n_times=1)
    reasons = [r["reason"] for r in prog.adapt.fallback_log]
    if outcome == "patched":
        assert prog.patch_hits == 2 and reasons == []
        assert prog.records[loop.name].product.adapt_state is not state
    else:
        assert prog.patch_hits == 1 and reasons == [outcome]
    assert product.adapt_state is state
    assert_same_arrays(state_arrays(state), before)


def test_routing_fallbacks_never_build(build_calls):
    mesh, _, prog, loop = build()
    prog.forall(loop, n_times=1)
    # condition 1/2 failure: unpatchable, decided before any state read
    prog.redistribute("reg", "block")
    prog.forall(loop, n_times=1)
    # a write with no region information: also decided before the build
    arr = prog.arrays["end_pt2"]
    seg = arr.local(0)
    seg[0] = int(seg[0])
    prog._record_write([arr])
    prog.forall(loop, n_times=1)
    assert [r["reason"] for r in prog.adapt.fallback_log] == [
        "unpatchable_condition",
        "no_region_info",
    ]
    assert prog.inspector_runs == 3
    assert build_calls == []


def test_warm_reinspections_never_build_first_patch_builds_once(build_calls):
    mesh, _, prog, loop = build()
    n_warm = 6
    for _ in range(1 + n_warm):
        prog.forall(loop, n_times=1, reuse=False)
    assert prog.inspector_runs == 1 + n_warm
    assert prog.translation_cache.hits > 0
    assert build_calls == []
    mutate(prog, mesh, 0)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1
    assert build_calls == [loop.name]
    mutate(prog, mesh, 1)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 2
    assert build_calls == [loop.name]  # later patches are born with theirs


def test_deferral_is_visible_in_spans_events_and_history():
    mesh, _, prog, loop = build(obs="on")
    exe = AdaptiveExecutor(prog, loop)
    exe.step()
    names = [s.name for s in prog.machine.obs.spans]
    assert names.count("adapt.state.charge") == 1
    assert "adapt.state.build_adapt_state" not in names
    assert prog.events.category("adapt.state") == []
    for step in range(2):
        mutate(prog, mesh, step)
        exe.step()
    spans = [
        s for s in prog.machine.obs.spans if s.name == "adapt.state.build_adapt_state"
    ]
    assert len(spans) == 1 and spans[0].attrs["reason"] == "patch"
    (event,) = prog.events.category("adapt.state")
    assert event.name == "patch"
    assert event.payload["loop"] == loop.name
    assert event.payload["host_seconds"] > 0
    modes = [rec["mode"] for rec in exe.history]
    builds = [rec["state_build_wall_seconds"] for rec in exe.history]
    assert modes == ["full", "patch", "patch"]
    assert builds[0] == 0.0 and builds[2] == 0.0
    # the one-off build sits inside the first patch step's inspect wall
    assert 0.0 < builds[1] <= exe.history[1]["inspect_wall_seconds"]
    assert builds[1] == pytest.approx(prog.adapt.state_build_wall)
