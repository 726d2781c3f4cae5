"""A full inspection starts with one layout alive per loop.

When the product ladder reaches the full rung, the product it gives up
on -- its localized references, schedules, iteration partition,
executor spaces and positions and adapt state -- and a distribution only
that product still named are freed *before* the inspector builds the
replacement: the moment the new inspection's cold ``localize`` starts,
weakrefs to all of them are dead.  Five ways to get there (a move list,
a re-inspection after an indirection write, one after a patch,
``forall(loop, 2, reuse=False)``, and a full inspection that raised),
each with the strip pool on and off.

The collector is off throughout: everything must die by reference
counting, not at the collector's next pass.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.chaos.strips as strips
import repro.core.inspector as inspector
from repro.core.forall import ForallLoop
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import (
    euler_edge_loop,
    euler_flux_loop_statements,
    setup_euler_program,
)
from repro.workloads.rebalance import drifting_weights, rebalance_moves
from tests.chaos.test_localize_strips import MANY, pool  # noqa: F401


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def build(**kwargs):
    mesh = generate_mesh(400, seed=9)
    prog = setup_euler_program(Machine(4), mesh, seed=3, incremental=True, **kwargs)
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    return mesh, prog, euler_edge_loop(mesh)


def held_by(prog, loop, dist=None) -> dict:
    """Weakrefs to the saved product's layout and adapt state (and to ``dist``)."""
    product = prog.records[loop.name].product
    objs = {"partition flat": product.iteration_partition.flat}
    for key, pat in product.patterns.items():
        refs = pat.localized.refs_flat
        objs[f"{key} refs_flat"] = refs if refs.base is None else refs.base
        objs[f"{key} schedule"] = pat.localized.schedule
        if pat.derived.exec_space is not None:  # kept from a holder's second sweep on
            objs[f"{key} exec_space"] = pat.derived.exec_space
            objs[f"{key} exec_refs"] = pat.derived.exec_refs
    state = product.adapt_state
    if state is not None:  # a patched product is born with it
        objs["adapt home"] = state.home
        for gkey, g in state.groups.items():
            for f in ("counts", "sorted_comp", "sorted_slot"):
                if getattr(g, f) is not None:
                    objs[f"{gkey} {f}"] = getattr(g, f)
    if dist is not None:
        objs["distribution"] = dist
    return {name: weakref.ref(obj) for name, obj in objs.items()}


@pytest.fixture
def at_cold_localize(monkeypatch):
    """``watch(held)``: from now on, each cold ``localize`` of an
    inspection records which of ``held`` are still alive when it starts
    building (after any cache miss); returns that list of lists."""
    real = inspector.localize
    seen = []

    def watch(held: dict) -> list:
        def spy(machine, ttable, ref_lists, **kwargs):
            def refs():
                seen.append(sorted(name for name, ref in held.items() if ref() is not None))
                return ref_lists()

            return real(machine, ttable, refs, **kwargs)

        monkeypatch.setattr(inspector, "localize", spy)
        return seen

    return watch


@pytest.fixture(params=[False, True], ids=["pool-off", "pool-on"])
def strip_pool(request, pool, monkeypatch):  # noqa: F811
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(request.param)


def move(prog, mesh, k):
    moves = rebalance_moves(prog.decomps["reg"].distribution, drifting_weights(mesh, k, seed=1))
    assert moves[0].size
    prog.redistribute("reg", moved=moves)


def test_a_move_list_frees_the_product_and_its_distribution(
    strip_pool, collector_off, at_cold_localize
):
    mesh, prog, loop = build()
    prog.forall(loop)
    move(prog, mesh, 0)
    prog.forall(loop)  # a product under a layout only it names
    superseded = prog.decomps["reg"].distribution
    held = held_by(prog, loop, superseded)
    del superseded
    move(prog, mesh, 1)
    seen = at_cold_localize(held)
    prog.forall(loop)
    assert prog.last_resolution["rung"] == "full"
    assert seen and seen[0] == []


@pytest.mark.parametrize("cache", ["on", "off"])
def test_a_reinspection_after_a_write_frees_the_product(
    strip_pool, collector_off, at_cold_localize, cache
):
    mesh, prog, loop = build(translation_cache=cache)
    prog.forall(loop, 2)  # the second sweep keeps the executor's space and positions
    held = held_by(prog, loop)
    assert any(name.endswith("exec_space") for name in held)
    pick = np.arange(0, mesh.n_edges, 7)
    prog.set_array_elements("end_pt2", pick, (mesh.edges[1, pick] + 1) % mesh.n_nodes)
    seen = at_cold_localize(held)
    prog.forall(loop, reuse=False)
    assert seen and seen[0] == []


def test_a_reinspection_after_a_patch_frees_the_patched_state(
    strip_pool, collector_off, at_cold_localize
):
    mesh, prog, loop = build()
    prog.forall(loop)
    pick = np.arange(0, mesh.n_edges, 53)
    prog.set_array_elements("end_pt2", pick, (mesh.edges[1, pick] + 1) % mesh.n_nodes)
    prog.forall(loop)
    assert prog.last_resolution["rung"] == "patch"
    held = held_by(prog, loop)
    assert {"adapt home"} < set(held) and any(n.endswith("sorted_slot") for n in held)
    seen = at_cold_localize(held)
    prog.forall(loop, reuse=False)
    assert seen and seen[0] == []


def test_a_repeated_forall_does_not_keep_its_previous_product(
    strip_pool, collector_off, at_cold_localize
):
    """Uncached, so that each of the two inspections localizes cold."""
    mesh, prog, loop = build(translation_cache="off")
    prog.forall(loop)
    held: dict = {}
    seen = at_cold_localize(held)
    real, calls = prog.inspect, []

    def inspect(loop, reuse=True):
        calls.append(reuse)
        if len(calls) == 2:  # watch the product of the first sweep
            held.update(held_by(prog, loop))
        return real(loop, reuse)

    prog.inspect = inspect
    prog.forall(loop, 2, reuse=False)
    assert calls == [False, False] and held
    # two cold localizes (x, y) per inspection
    assert seen == [[]] * 4


def test_a_failed_full_inspection_leaves_no_product(strip_pool, collector_off, at_cold_localize):
    mesh, prog, loop = build()
    prog.forall(loop)
    held = held_by(prog, loop)
    good = int(mesh.edges[1, 5])
    prog.set_array_elements("end_pt2", [5], [mesh.n_nodes])  # out of range
    with pytest.raises(IndexError):
        prog.forall(loop, reuse=False)
    assert loop.name not in prog.records  # nor the adapt state it carried
    prog.set_array_elements("end_pt2", [5], [good])
    seen = at_cold_localize(held)
    prog.forall(loop)  # no saved product: the full rung, not a patch
    assert prog.last_resolution["rung"] == "full"
    assert prog.last_resolution["refused"] == {}
    assert seen and seen[0] == []


def test_a_product_that_runs_once_keeps_no_executor_space():
    """The executor's combined space and positions are kept only from a
    pattern holder's second finished sweep on: a product that runs once
    (every patched one, every one on the miss path) keeps neither."""
    mesh, prog, loop = build()
    prog.forall(loop)
    holders = [pat.derived for pat in prog.records[loop.name].product.patterns.values()]
    assert all(h.ran and h.exec_space is None and h.exec_refs is None for h in holders)
    prog.forall(loop)  # a reuse hit: the same product's second sweep
    assert prog.last_resolution["rung"] == "reuse"
    assert all(h.exec_space is not None and h.exec_refs is not None for h in holders)


@pytest.mark.parametrize("between", ["nothing", "other loop"])
def test_a_patch_after_a_remap_back_rebuilds_the_superseded_table(between):
    """The saved product outlives a remap away and back: its layout's
    translation tables were dropped to their keys on the way out, so the
    patch rung rebuilds them uncharged on the way back, as a full
    inspection would."""
    mesh, prog, loop = build()
    prog.forall(loop)
    rcb = prog.decomps["reg"].distribution.signature()
    move(prog, mesh, 0)
    if between == "other loop":
        other = ForallLoop("half_sweep", mesh.n_edges, euler_flux_loop_statements()[:1])
        prog.forall(other)  # never reads the RCB layout's tables
    prog.redistribute("reg", "fmt")
    assert prog.decomps["reg"].distribution.signature() == rcb
    built = prog.ttables.built()
    assert built < len(prog.ttables)  # RCB's tables are keys only
    pick = np.arange(0, mesh.n_edges, 53)
    prog.set_array_elements("end_pt2", pick, (mesh.edges[1, pick] + 1) % mesh.n_nodes)
    prog.forall(loop)
    assert prog.last_resolution["rung"] == "patch"
    assert prog.ttables.built() > built
