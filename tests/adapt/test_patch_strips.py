"""Strip invariance of the patch rung's iteration-space passes.

``patch_product`` starts the new iteration partition and its inverse as
one task on the strip pool (the *order task*, ``repro.chaos.strips.start``)
while the groups' slot-space stages run on the dispatching thread, and
fills the patched localized references as processor strips of the new
partition; the executor then fills a fresh product's combined-space
references strip by strip.  Whatever the strip count and whether a pool
exists, the patched product (partition, inverse, every reference list,
ghost layout, schedule and executor array), the adapt state (sorted slot
index included), every charge in order, the counters and the clocks
must be bit-identical to one strip with no pool -- at 1, 5 and 25 %
churn and on a step where no iteration moves.  An aborted patch raises
the same error after the same charges for every strip count.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.chaos.strips as strips
from repro.adapt import driver as driver_mod
from repro.adapt import patch as patch_mod
from repro.adapt.state import GroupState
from repro.core.executor import run_executor
from repro.core.forall import ForallLoop
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop
from tests.adapt.test_lazy_state import GROUP_FIELDS, saved_state
from tests.adapt.test_patch_oracle import build_program, mutate
from tests.chaos.schedule_oracle import entries, schedule_from_flat
from tests.chaos.test_localize_strips import MANY, ONE, RUNS, pool  # noqa: F401

N_PROCS = 8
CHURNS = [0.01, 0.05, 0.25, "still"]
_EMPTY = np.empty(0, dtype=np.int64)


def record_charges(machine) -> list:
    """Every charge ``machine`` takes from now on, in order, as bytes."""
    tape = []

    def wrap(name, row):
        method = getattr(machine, name)

        def recorded(*args, **kwargs):
            tape.append((name, row(*args, **kwargs)))
            return method(*args, **kwargs)

        setattr(machine, name, recorded)

    wrap("charge_planned_compute",
         lambda c: [getattr(c, f).tobytes() for f in ("dt", "flops", "iops", "mem")])
    wrap("charge_exchange",
         lambda c, **kw: [np.asarray(getattr(c, f)).tobytes() for f in ("src", "dst", "nbytes")])
    wrap("charge_compute", lambda *a, **kw: [a, sorted(kw.items())])
    wrap("barrier", lambda: [])
    return tape


def counters(machine) -> dict:
    return {f: getattr(machine.counters, f).tobytes() for f in COUNTER_FIELDS}


def clocks(machine) -> list:
    return [machine.clock(p) for p in range(N_PROCS)] + [machine.elapsed()]


def still_step(prog):
    """Re-target every 7th edge to another node its end point's owner
    holds: no vote, and so no home, changes."""
    e1, e2 = (prog.arrays[n].to_global() for n in ("end_pt1", "end_pt2"))
    owner = np.asarray(prog.arrays["x"].distribution.owner(np.arange(prog.arrays["x"].size)))
    pick = np.arange(0, e2.size, 7)
    new = np.empty_like(pick)
    for k, i in enumerate(pick):
        same = np.flatnonzero(owner == owner[e2[i]])
        new[k] = same[(same != e2[i]) & (same != e1[i])][0]
    prog.set_array_elements("end_pt2", pick, new)


def start(monkeypatch, pool, target, on, **kwargs):
    """Step 0 (a full inspection and a sweep) under one strip setting."""
    monkeypatch.setattr(strips, "STRIP_ITERS", target)
    pool(on)
    mesh = generate_mesh(400, seed=9)
    machine, prog = build_program(mesh, True, N_PROCS, True, **kwargs)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    return mesh, machine, prog, loop


def churn_step(prog, mesh, churn):
    if churn == "still":
        still_step(prog)
        return
    edges, pick = mutate(mesh.edges, mesh.n_nodes, np.random.default_rng(17), churn)
    prog.set_array_elements("end_pt1", pick, edges[0, pick])
    prog.set_array_elements("end_pt2", pick, edges[1, pick])


def outcome(prog, loop, tape) -> dict:
    """Every array of the patched product and the adapt state, the
    charge tape, the counters, the clocks and the sweep's result."""
    machine = prog.machine
    product = prog.records[loop.name].product
    part = product.iteration_partition
    got = {"partition": [a.tobytes() for a in (part.flat, part.bounds, part.inverse())]}
    for key, pat in product.patterns.items():
        loc = pat.localized
        slots = loc.slots
        arrays = (loc.refs_flat, loc.ref_bounds, slots.slot_bounds, slots.keys, slots.owners, slots.lidx)
        got[key] = [np.asarray(a).tobytes() for a in arrays + entries(loc.schedule)]
        got[key].append(loc.schedule.ghost_sizes)
    state = product.adapt_state  # a patched product is born with it
    got["home"] = state.home.tobytes()
    for gkey, g in state.groups.items():
        got[gkey] = [getattr(g, f).tobytes() for f in GROUP_FIELDS] + [g.index_stride]
    got["tape"] = tape
    got["counters"] = counters(machine)
    got["clocks"] = clocks(machine)
    got["y"] = prog.arrays["y"].to_global().tobytes()
    return got


def run(monkeypatch, pool, target, on, churn):
    mesh, machine, prog, loop = start(monkeypatch, pool, target, on)
    old = prog.records[loop.name].product.iteration_partition
    churn_step(prog, mesh, churn)
    tape = record_charges(machine)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1 and prog.inspector_runs == 1
    moved = prog.records[loop.name].product.iteration_partition is not old
    assert moved == (churn != "still")
    return outcome(prog, loop, tape)


@pytest.mark.parametrize("churn", CHURNS)
def test_every_strip_split_patches_bit_identically(pool, monkeypatch, churn):
    results = [run(monkeypatch, pool, target, on, churn) for target, on in RUNS]
    assert len(results[0]["tape"]) > 5
    for got in results[1:]:
        assert got == results[0]


def test_many_strips_under_rapid_thread_switching(pool, monkeypatch):
    """Three workers plus the dispatcher, switching threads every
    microsecond: a strip run twice or skipped, or an order task read
    before it finished, would change a bit of the result."""
    want = run(monkeypatch, pool, ONE, False, 0.05)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(strips, "_usable_cpus", lambda: 8)
            strips._StripPool.forget()
            mesh, machine, prog, loop = start(monkeypatch, lambda on: None, MANY, True)
            churn_step(prog, mesh, 0.05)
            tape = record_charges(machine)
            prog.forall(loop, n_times=1)
            assert outcome(prog, loop, tape) == want
            assert strips._StripPool._workers == strips.MAX_STRIP_WORKERS
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# aborts: the same error after the same charges
# ----------------------------------------------------------------------
def no_ghosts(state, layout, machine, dist_signature, stride):
    n = machine.n_procs
    return schedule_from_flat(machine, dist_signature, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY, [0] * n)


def abort_outcome(monkeypatch, pool, target, on, kind):
    real_schedule = GroupState.schedule
    mesh, machine, prog, loop = start(monkeypatch, pool, target, on)
    if kind == "negative_count":
        for gstate in saved_state(prog, loop).groups.values():
            gstate.counts[:] = 0  # out of sync: the first retire goes negative
    else:
        monkeypatch.setattr(GroupState, "schedule", no_ghosts)
    churn_step(prog, mesh, 0.05)
    raised = []

    def watched(machine, *args):
        try:
            return real(machine, *args)
        except Exception as exc:
            raised.append((type(exc).__name__, str(exc), counters(machine), clocks(machine)))
            raise

    real = patch_mod.patch_product
    monkeypatch.setattr(driver_mod, "patch_product", watched)
    prog.forall(loop, n_times=1)
    monkeypatch.setattr(driver_mod, "patch_product", real)
    monkeypatch.setattr(GroupState, "schedule", real_schedule)
    assert prog.inspector_runs == 2 and prog.patch_hits == 0
    (fallback,) = prog.adapt.fallback_log
    return raised, fallback["reason"], counters(machine), clocks(machine)


@pytest.mark.parametrize(
    "kind, message",
    [("negative_count", "negative reference count"), ("shrunk_ghosts", "append-only")],
)
def test_aborted_patch_raises_after_the_same_charges(pool, monkeypatch, kind, message):
    results = []
    for target, on in RUNS:
        results.append(abort_outcome(monkeypatch, pool, target, on, kind))
    (raised,), reason, _, _ = results[0]
    assert raised[0] == "PatchAborted" and message in raised[1]
    assert reason == "patch_aborted"
    for got in results[1:]:
        assert got == results[0]


# ----------------------------------------------------------------------
# the executor's strip-filled references
# ----------------------------------------------------------------------
def test_failed_sweeps_keep_no_executor_positions(pool, monkeypatch):
    """A patched product's holders keep their combined-space positions
    only from their second finished sweep on.  A strip raising in the
    first or the second sweep leaves no holder with an array (not even
    a partly filled one), and a failed first sweep does not count as
    run; the next two sweeps keep the positions whole and frozen."""
    mesh, machine, prog, loop = start(monkeypatch, pool, MANY, True)
    churn_step(prog, mesh, 0.05)
    product = prog.inspect(loop)
    assert prog.patch_hits == 1
    holders = {id(p.derived): p.derived for p in product.patterns.values()}.values()
    assert not any(h.ran or h.exec_refs is not None for h in holders)
    calls = []
    func = loop.statements[0].func

    def third_strip_raises(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("kernel failed")
        return func(*args)

    failing = dataclasses.replace(
        product,
        loop=ForallLoop(
            loop.name,
            loop.n_iterations,
            [dataclasses.replace(loop.statements[0], func=third_strip_raises)]
            + loop.statements[1:],
        ),
    )
    with pytest.raises(RuntimeError, match="kernel failed"):
        run_executor(machine, failing, prog.arrays)
    assert len(calls) > 3  # every strip ran
    assert not any(h.ran or h.exec_refs is not None for h in holders)
    # one finished sweep keeps nothing ...
    run_executor(machine, product, prog.arrays)
    assert all(h.ran and h.exec_refs is None for h in holders)
    # ... nor does a second one that fails ...
    calls.clear()
    with pytest.raises(RuntimeError, match="kernel failed"):
        run_executor(machine, failing, prog.arrays)
    assert all(h.exec_refs is None for h in holders)
    # ... and the next finished one keeps one frozen array per holder
    run_executor(machine, product, prog.arrays)
    _, bounds = product.iteration_partition.iters_flat()
    for key, pat in product.patterns.items():
        assert not pat.derived.exec_refs.flags.writeable
        want = pat.localized.refs_flat + np.repeat(pat.derived.exec_space.offsets[:-1], np.diff(bounds))
        assert pat.derived.exec_refs.tobytes() == want.tobytes(), key


# ----------------------------------------------------------------------
# spans and the runner
# ----------------------------------------------------------------------
def test_order_task_and_its_strips_leave_their_spans(pool, monkeypatch):
    mesh, machine, prog, loop = start(monkeypatch, pool, MANY, True, obs="on")
    churn_step(prog, mesh, 0.05)
    mark = len(machine.obs.spans)
    prog.forall(loop, n_times=1)
    spans = machine.obs.spans[mark:]
    (patch,) = [s for s in spans if s.name == "adapt.patch"]
    (order,) = [s for s in spans if s.name == "adapt.patch.order"]
    # the task is a root on a pool worker's lane, not the dispatcher's;
    # its strips run inline there, one child span each
    assert order.parent is None and order.tid != patch.tid
    assert order.attrs["iterations"] == loop.n_iterations
    strip_spans = sorted(
        (s for s in spans if s.name == "adapt.patch.strip"), key=lambda s: s.attrs["first_proc"]
    )
    assert {(s.parent, s.tid) for s in strip_spans} == {(order.id, order.tid)}
    part = prog.records[loop.name].product.iteration_partition
    cuts = strips.strip_cuts(part.bounds, MANY)
    assert len(strip_spans) == len(cuts) - 1 > 1
    assert [s.attrs["first_proc"] for s in strip_spans] == cuts[:-1]
    assert [s.attrs["n_procs"] for s in strip_spans] == np.diff(cuts).tolist()
    assert [s.attrs["n_iters"] for s in strip_spans] == np.diff(part.bounds[cuts]).tolist()


def test_start_without_a_pool_runs_the_task_at_once(pool):
    pool(False)
    ran = []
    join = strips.start(lambda: ran.append(threading.get_ident()) or "done")
    assert ran == [threading.get_ident()]  # inline, before the join
    assert join() == "done" and strips._StripPool._executor is None


def test_run_strips_on_a_pool_thread_runs_inline(pool):
    """A task that runs strips itself never waits on the queue it is
    blocking: with one worker, a nested pool run would deadlock."""
    pool(True)
    strips._StripPool._workers = 1

    def task():
        threads = set()
        strips.run_strips(lambda k: threads.add(threading.get_ident()), 4)
        return threads, threading.get_ident()

    threads, worker = strips.start(task)()
    assert threads == {worker} and worker != threading.get_ident()


def test_a_failed_task_raises_at_the_join(pool):
    pool(True)

    def task():
        raise KeyError("order")

    join = strips.start(task)
    with pytest.raises(KeyError, match="order"):
        join()


def test_order_span_nests_under_the_patch_without_a_pool(pool, monkeypatch):
    """With no pool the order task runs inline: its span is a child of
    ``adapt.patch`` on the dispatcher's lane."""
    mesh, machine, prog, loop = start(monkeypatch, pool, ONE, False, obs="on")
    churn_step(prog, mesh, 0.05)
    mark = len(machine.obs.spans)
    prog.forall(loop, n_times=1)
    spans = machine.obs.spans[mark:]
    (patch,) = [s for s in spans if s.name == "adapt.patch"]
    (order,) = [s for s in spans if s.name == "adapt.patch.order"]
    assert order.parent == patch.id and order.tid == patch.tid
