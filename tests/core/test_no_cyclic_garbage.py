"""No step leaves cyclic garbage.

A reference cycle outlives its last use until the collector's next full
pass, and one holding arrays keeps a step's memory alive into the next:
a runtime step must free what it made by reference counting alone.  With
the collector off, a reuse step, a patch step (its order task and
reference strips on the strip pool) and a remap step that misses the
translation cache each leave nothing for ``gc.collect()`` to find.
"""

import gc

import numpy as np
import pytest

import repro.chaos.strips as strips
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop
from repro.workloads.rebalance import drifting_weights, rebalance_moves
from tests.adapt.test_patch_oracle import build_program, mutate
from tests.chaos.test_localize_strips import MANY, pool  # noqa: F401


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("on", [False, True])
def test_reuse_patch_and_remap_steps_leave_no_cycles(pool, monkeypatch, collector_off, on):
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(on)
    mesh = generate_mesh(400, seed=9)
    _, prog = build_program(mesh, True, 8, True)
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
    assert prog.patch_hits == 1
    assert gc.collect() == 0, "patch step"

    misses = prog.translation_cache.misses
    moves = rebalance_moves(prog.decomps["reg"].distribution, drifting_weights(mesh, 0, seed=1))
    prog.redistribute("reg", moved=moves)
    prog.forall(loop, n_times=1)
    assert prog.inspector_runs == 2 and prog.translation_cache.misses > misses
    assert gc.collect() == 0, "remap-miss step"
