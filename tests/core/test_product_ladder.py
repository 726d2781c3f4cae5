"""``IrregularProgram.inspect`` is the one product ladder.

One history on a small Euler mesh walks every rung -- first inspection,
plain reuse, an indirection write (patch), a load-balancer move list
(full: unpatchable), a forced re-inspection of unchanged content (full,
served by the translation cache) -- and pins, per step:

* what the ladder recorded (``last_resolution``, the ``product.resolved``
  events in order, the ``inspect`` span's ``rung``) and that
  ``AdaptiveExecutor.history`` reads the same rung;
* that the product the rung resolved equals a from-scratch
  ``run_inspector`` on an identically built fresh program (any rung ==
  full: iteration partition, schedule pairs, ghost keys).

Two more pin the edges: a ``track=False`` program trusts the caller's
``reuse`` without checking or charging, and nothing below the rungs
keeps the owner rows of a voided distribution alive (the
pre-``TranslationCache`` weak memos did).
"""

import gc
import weakref

import numpy as np

from repro import AdaptiveExecutor
from repro.core.inspector import run_inspector
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop
from tests.adapt.test_patch_oracle import assert_products_equivalent, build_program

N_PROCS = 4


def write_indirection(prog, mesh):
    rng = np.random.default_rng(1)
    pick = np.sort(rng.choice(mesh.n_edges, size=25, replace=False))
    prog.set_array_elements("end_pt2", pick, rng.integers(0, mesh.n_nodes, pick.size))


def move_list(prog, mesh, seed=2):
    rng = np.random.default_rng(seed)
    g = np.sort(rng.choice(mesh.n_nodes, size=30, replace=False))
    prog.redistribute("reg", moved=(g, rng.integers(0, N_PROCS, g.size)))


#: (step, what happens before it, forall's reuse flag, rung taken, the
#: reason prefix each cheaper rung refused with, cache traffic of the step)
HISTORY = [
    ("first inspection", None, True, "full", {}, "miss"),
    ("repeat", None, True, "reuse", {}, "none"),
    ("indirection write", write_indirection, True, "patch", {"reuse": "condition 3"}, "none"),
    (
        "move list",
        move_list,
        True,
        "full",
        {"reuse": "condition 1", "patch": "unpatchable_condition"},
        "miss",
    ),
    ("forced re-inspection", None, False, "full", {}, "warm"),
]


def from_scratch_product(mesh, actions):
    """A full inspection on a fresh program brought to the same array
    state (the same writes and remaps, no sweeps, no cache)."""
    machine, prog = build_program(mesh, False, N_PROCS, True)
    for action in actions:
        action(prog, mesh)
    product = run_inspector(
        machine,
        euler_edge_loop(mesh),
        prog.arrays,
        iter_method=prog.iter_method,
        coalesce_patterns=prog.coalesce_patterns,
        cache=None,
    )
    return product, prog.arrays


def test_one_history_walks_every_rung():
    mesh = generate_mesh(300, seed=4)
    machine, prog = build_program(mesh, True, N_PROCS, True, obs="on")
    loop = euler_edge_loop(mesh)
    exe = AdaptiveExecutor(prog, loop)
    assert prog.last_resolution is None
    emitted, actions = [], []
    for step, action, reuse, rung, refused, traffic in HISTORY:
        if action is not None:
            action(prog, mesh)
            actions.append(action)
        if reuse:
            assert exe.step() == rung, step
            assert exe.history[-1]["mode"] == rung, step
            assert (
                exe.history[-1]["inspect_wall_seconds"]
                == prog.last_resolution["host_seconds"]
            )
        else:
            prog.forall(loop, reuse=False)
        res = prog.last_resolution
        assert (res["loop"], res["rung"]) == (loop.name, rung), step
        assert res["refused"].keys() == refused.keys(), step
        for refuser, reason in refused.items():
            assert res["refused"][refuser].startswith(reason), (step, refuser)
        assert res["host_seconds"] > 0
        hits, misses = res["cache_hits"], res["cache_misses"]
        assert {
            "none": hits == 0 and misses == 0,
            "miss": misses > 0,
            "warm": hits > 0 and misses == 0,
        }[traffic], (step, hits, misses)
        if rung == "reuse":
            continue
        emitted.append(res)
        # any rung == full, at the one seam
        fresh, fresh_arrays = from_scratch_product(mesh, actions)
        assert_products_equivalent(
            prog.records[loop.name].product, fresh, fresh_arrays, N_PROCS
        )
    # one event per non-reuse resolution, in order, and it *is* the record
    assert prog.events.payloads("product.resolved") == emitted
    assert [r.name for r in prog.events.category("product.resolved")] == [
        "full",
        "patch",
        "full",
        "full",
    ]
    # the refusal reason is the fallback's, not a second wording of it
    (fallback,) = prog.adapt.fallback_log
    assert emitted[2]["refused"]["patch"] == fallback["reason"]
    # the span says what the event says
    rungs = [s.attrs["rung"] for s in machine.obs.spans if s.name == "inspect"]
    assert rungs == [row[3] for row in HISTORY]
    assert (prog.inspector_runs, prog.reuse_hits, prog.patch_hits) == (3, 1, 1)


def test_untracked_program_trusts_the_caller():
    mesh = generate_mesh(300, seed=4)
    machine, prog = build_program(mesh, False, N_PROCS, True, track=False)
    loop = euler_edge_loop(mesh)
    first = prog.inspect(loop)
    assert prog.last_resolution["rung"] == "full"
    clock = machine.elapsed()
    assert prog.inspect(loop) is first
    # the hand-coded path: no runtime record, so no check and no charge
    assert prog.last_resolution["rung"] == "reuse"
    assert prog.last_resolution["refused"] == {}
    assert machine.elapsed() == clock
    assert prog.inspect(loop, reuse=False) is not first
    assert [r.name for r in prog.events.category("product.resolved")] == ["full"] * 2
    assert (prog.inspector_runs, prog.reuse_hits) == (2, 1)


def test_owner_rows_of_a_voided_distribution_are_not_retained(monkeypatch):
    """The rungs are the only memo layers: nothing below them keeps one
    ``n_iterations``-long owner row per (indirection, distribution
    signature) alive once a remap has voided that distribution."""
    import repro.core.iteration as iteration

    majority_owner = iteration.majority_owner
    votes = []

    def spy(rows):
        votes.append([weakref.ref(row) for row in rows])
        return majority_owner(rows)

    monkeypatch.setattr(iteration, "majority_owner", spy)
    mesh = generate_mesh(300, seed=4)
    _, prog = build_program(mesh, False, N_PROCS, True)
    loop = euler_edge_loop(mesh)
    prog.forall(loop)
    for epoch in range(3):
        move_list(prog, mesh, seed=10 + epoch)
        prog.forall(loop)
    assert len(votes) == 4 and prog.inspector_runs == 4
    gc.collect()
    # the indirection arrays (what the weak memos were keyed by) live on
    # in prog.arrays; the rows voted over before the first remap do not
    assert len(votes[0]) == len(loop.refs())
    assert all(ref() is None for ref in votes[0])
