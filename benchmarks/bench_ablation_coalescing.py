"""Ablation: pattern coalescing (PARTI incremental/merged schedules).

A loop referencing one array through several indirections (x through
end_pt1 and end_pt2; the MD loop's 4 atom arrays through p1 and p2)
fetches overlapping ghost sets when each pattern is localized
independently.  Coalescing localizes the union: each off-processor
element is fetched once per array, gathers drop to one per array, and
ghost memory shrinks by the overlap.

Coalescing is the runtime's *default* since PR 5; this ablation keeps
measuring both sides by passing the flag explicitly -- ``plain`` is the
opt-out (``coalesce_patterns=False``, the historical per-pattern
baseline the golden table fixtures pin), ``coalesce`` the default.
Composes with message merging (bench_ablation_schedule_merge): the
fully-optimized executor applies both.
"""

from conftest import run_once

from repro.bench import render_table
from repro.machine import Machine
from repro.workloads import generate_mesh, scale_config
from repro.workloads.euler import euler_edge_loop, setup_euler_program


def run_config(mesh, coalesce, merge, sweeps=20):
    m = Machine(16)
    prog = setup_euler_program(
        m,
        mesh,
        seed=0,
        coalesce_patterns=coalesce,
        merge_communication=merge,
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    m.reset()
    prog.forall(euler_edge_loop(mesh), n_times=sweeps)
    product = prog.records[euler_edge_loop(mesh).name].product
    # one ghost region per pattern group (the x and y groups each gather)
    ghosts = {
        (array, indexes): product.pattern(array, indexes[0]).localized.schedule.ghost_total()
        for array, indexes in product.groups
    }
    return {
        "config": ("coalesce (default)" if coalesce else "plain (opt-out)")
        + ("+merge" if merge else ""),
        "executor": prog.phase_time("executor"),
        "messages": int(m.counters.messages_sent.sum()),
        "ghost_elements": sum(ghosts.values()),
    }


def test_pattern_coalescing(benchmark, report):
    scale = scale_config()
    mesh = generate_mesh(scale.mesh_small, seed=1)

    def run():
        return [
            run_config(mesh, False, False),
            run_config(mesh, True, False),
            run_config(mesh, True, True),
        ]

    rows = run_once(benchmark, run)
    report(
        "ablation_coalescing",
        render_table(
            "Pattern-coalescing ablation (RCB mesh, 16 procs, 20 sweeps)",
            rows,
            [
                ("config", "Config"),
                ("executor", "Executor(s)"),
                ("messages", "Messages"),
                ("ghost_elements", "Ghosts"),
            ],
        ),
    )
    plain, co, both = rows
    assert co["ghost_elements"] < plain["ghost_elements"]
    assert co["messages"] < plain["messages"]
    assert co["executor"] < plain["executor"]
    # merging stacks on top of coalescing
    assert both["messages"] <= co["messages"]
    assert both["executor"] <= co["executor"]
