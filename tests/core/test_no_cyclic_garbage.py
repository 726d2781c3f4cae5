"""No step leaves cyclic garbage, and a dropped program dies at once.

A reference cycle outlives its last use until the collector's next full
pass, and one holding arrays keeps a step's memory alive into the next:
a runtime step must free what it made by reference counting alone.  With
the collector off, a reuse step, a patch step (its order task and
reference strips on the strip pool) and a remap step that misses the
translation cache each leave nothing for ``gc.collect()`` to find, in
every program configuration below.

The same holds for a whole program's lifetime: nothing in a program
points back at its owner (no adapt state at its program, no array at its
decomposition, no lowered closure at its own builder), so the moment the
last reference to a program goes, reference counting frees it with its
arrays, products and adapt state -- a weakref to it is dead right after
``del`` and the collector finds nothing.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.chaos.strips as strips
import repro.serve.jobs as jobs
from repro.adapt.driver import AdaptiveExecutor
from repro.guard import FaultPlan
from repro.lang import run_program
from repro.machine import Machine
from repro.serve import JobConfig
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop
from repro.workloads.rebalance import drifting_weights, rebalance_moves
from tests.adapt.test_patch_oracle import build_program, mutate
from tests.chaos.test_localize_strips import MANY, pool  # noqa: F401
from tests.guard import test_checkpoint as ckpt
from tests.lang.test_lower_interp import FIGURE4, make_inputs


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def assert_freed(ref, what):
    """``ref``'s program died by reference counting, leaving no cycle."""
    assert ref() is None, f"{what}: the program outlived its last reference"
    assert gc.collect() == 0, f"{what}: cyclic garbage"


PROGRAMS = {
    "plain": dict(incremental=False),
    "incremental": dict(incremental=True),
    "incremental-guarded-traced": dict(incremental=True, guard="full", obs="on"),
    "uncached-uncoalesced": dict(
        incremental=True, translation_cache="off", coalesce_patterns=False
    ),
}


@pytest.mark.parametrize("on", [False, True])
@pytest.mark.parametrize("config", sorted(PROGRAMS))
def test_steps_and_a_dropped_program_leave_no_cycles(pool, monkeypatch, collector_off, config, on):
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(on)
    kwargs = dict(PROGRAMS[config])
    incremental = kwargs.pop("incremental")
    coalesce = kwargs.pop("coalesce_patterns", True)
    mesh = generate_mesh(400, seed=9)
    _, prog = build_program(mesh, incremental, 8, coalesce, **kwargs)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    gc.collect()

    prog.forall(loop, n_times=1)
    assert prog.reuse_hits == 1
    assert gc.collect() == 0, "reuse step"

    edges, pick = mutate(mesh.edges, mesh.n_nodes, np.random.default_rng(3), 0.05)
    prog.set_array_elements("end_pt1", pick, edges[0, pick])
    prog.set_array_elements("end_pt2", pick, edges[1, pick])
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == int(incremental)
    assert gc.collect() == 0, "patch step" if incremental else "full step"

    cache = prog.translation_cache
    misses = 0 if cache is None else cache.misses
    moves = rebalance_moves(prog.decomps["reg"].distribution, drifting_weights(mesh, 0, seed=1))
    prog.redistribute("reg", moved=moves)
    prog.forall(loop, n_times=1)
    assert prog.inspector_runs == (2 if incremental else 3)
    assert cache is None or cache.misses > misses
    assert gc.collect() == 0, "remap-miss step"

    ref = weakref.ref(prog)
    del prog, cache
    assert_freed(ref, config)


def test_a_resumed_campaign_frees_both_programs(tmp_path, collector_off):
    """A faulted adaptive campaign, its checkpoint, and the fresh program
    that resumes it: dropping driver and program frees each at once."""
    path = tmp_path / "campaign.ckpt"
    ckpt.build()  # the mesh's first build imports SciPy: not the program's garbage
    gc.collect()
    mesh, machine, prog = ckpt.build()
    FaultPlan(seed=7).corrupt_gather(nth=0).flip_slots(nth=0).install(machine)
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    ckpt.drive(exe, mesh, 3)
    assert exe.mode_counts()["patch"] >= 1 and prog.adapt.fallback_log
    exe.checkpoint(path)
    ref = weakref.ref(prog)
    del exe, prog, machine
    assert_freed(ref, "checkpointed program")

    mesh, machine, prog = ckpt.build()
    exe = AdaptiveExecutor.resume(path, prog, euler_edge_loop(mesh))
    ckpt.drive(exe, mesh, 2, start=3)
    assert exe.mode_counts()["patch"] >= 1
    ref = weakref.ref(prog)
    del exe, prog, machine
    assert_freed(ref, "resumed program")


def test_a_compiled_program_is_freed_at_once(collector_off):
    x, e1, e2 = make_inputs()

    def run():
        return run_program(
            FIGURE4,
            Machine(4),
            sizes={"NNODE": 24, "NEDGE": 40},
            data={"X": x, "END_PT1": e1, "END_PT2": e2},
        )

    run()  # the first RSB partition imports SciPy: not the program's garbage
    gc.collect()
    cp = run()
    assert cp.program.reuse_hits == 4
    refs = weakref.ref(cp), weakref.ref(cp.program)
    del cp
    assert refs[0]() is None, "the compiled program outlived its last reference"
    assert_freed(refs[1], "compiled program")


@pytest.mark.parametrize("scenario", ["adapt", "rebalance"])
def test_a_served_job_frees_its_program_when_it_returns(
    tmp_path, monkeypatch, collector_off, scenario
):
    built = []
    setup_euler_program = jobs.setup_euler_program

    def setup(*args, **kwargs):
        prog = setup_euler_program(*args, **kwargs)
        built.append(weakref.ref(prog))
        return prog

    monkeypatch.setattr(jobs, "setup_euler_program", setup)
    config = JobConfig(scenario=scenario, n_nodes=300, n_procs=4, steps=6, seed=3)
    # a worker's first job imports SciPy (the mesh): not the program's garbage
    jobs.run_job(config, checkpoint_path=str(tmp_path / "first.ckpt"))
    gc.collect()
    result = jobs.run_job(config, checkpoint_path=str(tmp_path / "job.ckpt"))
    assert result["mode_counts"]["full"] >= 1
    _, ref = built
    assert_freed(ref, f"{scenario} job")
