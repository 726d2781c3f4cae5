"""Ablation: PARTI's schedule-merging optimization.

A loop reading k access patterns pays k message startups per neighbour
per gather when schedules are applied one at a time; merging sends one
combined message per pair per phase.  On the iPSC/860's ~100 us alpha
this matters most for the MD loop (8 read patterns, 2 write patterns).

Reports executor time and message counts with and without merging for
the Euler (4 patterns) and MD (10 patterns) sweeps.

The Euler row runs with ``coalesce_patterns=False``: the baseline above
is "k schedules, applied one at a time", and under the default pattern
coalescing the Euler loop's four patterns already share one schedule
per array, so ``merge_communication`` has nothing left to merge there
(identical message counts either way) and the row would measure
coalescing, not merging.  MD gains under the default and keeps it.
"""

from conftest import run_once

from repro.bench import render_table
from repro.machine import Machine
from repro.workloads import generate_mesh, scale_config
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from repro.workloads.md import md_force_loop, setup_md_program


def run_euler(mesh, merge, sweeps=20):
    m = Machine(16)
    prog = setup_euler_program(
        m, mesh, seed=0, merge_communication=merge, coalesce_patterns=False
    )
    # partition first: under the initial BLOCK distribution the sorted
    # edge lists make every end_pt1 reference local (owner(e1) <=
    # owner(e2) and ties go low), hiding the merge effect entirely
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    m.reset()
    prog.forall(euler_edge_loop(mesh), n_times=sweeps)
    return m.elapsed(), int(m.counters.messages_sent.sum())


def run_md(merge, sweeps=20):
    m = Machine(16)
    prog, pairs = setup_md_program(
        m, n_atoms=648, cutoff=6.0, seed=0, merge_communication=merge
    )
    m.reset()
    prog.forall(md_force_loop(pairs.shape[1]), n_times=sweeps)
    return m.elapsed(), int(m.counters.messages_sent.sum())


def test_schedule_merging(benchmark, report):
    scale = scale_config()
    mesh = generate_mesh(scale.mesh_small, seed=1)

    def run():
        rows = []
        for label, fn in (("euler", lambda mg: run_euler(mesh, mg)), ("md", run_md)):
            t_sep, m_sep = fn(False)
            t_mrg, m_mrg = fn(True)
            rows.append(
                {
                    "workload": label,
                    "sep_seconds": t_sep,
                    "mrg_seconds": t_mrg,
                    "sep_messages": m_sep,
                    "mrg_messages": m_mrg,
                    "speedup": t_sep / t_mrg,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_schedule_merge",
        render_table(
            "Schedule-merging ablation (20 sweeps, 16 procs)",
            rows,
            [
                ("workload", "Workload"),
                ("sep_seconds", "Separate(s)"),
                ("mrg_seconds", "Merged(s)"),
                ("sep_messages", "Msgs"),
                ("mrg_messages", "MsgsMerged"),
                ("speedup", "Speedup"),
            ],
        ),
    )
    for row in rows:
        assert row["mrg_messages"] < row["sep_messages"], row
        assert row["mrg_seconds"] <= row["sep_seconds"], row
    # MD reads 8 patterns and reduces 2 -> merging helps it more
    md = next(r for r in rows if r["workload"] == "md")
    euler = next(r for r in rows if r["workload"] == "euler")
    assert md["sep_messages"] / md["mrg_messages"] > euler["sep_messages"] / euler["mrg_messages"]
