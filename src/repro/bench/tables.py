"""Paper-table assembly: Tables 1-4 and the Figure 2 phase breakdown.

Every function returns ``(rows, rendered_text)`` where ``rows`` is a
list of dicts (one per table row) and ``rendered_text`` is the
plain-text table the benches print next to the paper's numbers.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    run_euler_experiment,
    run_md_experiment,
)
from repro.workloads import generate_mesh, scale_config
from repro.workloads.mesh import UnstructuredMesh


def _configs(scale) -> list[tuple[str, object, int]]:
    """The paper's 9 configurations: (label, workload spec, procs)."""
    small = generate_mesh(scale.mesh_small, seed=1)
    large = generate_mesh(scale.mesh_large, seed=2)
    out = []
    for procs in (4, 8, 16):
        out.append((f"{_klabel(scale.mesh_small)} mesh/{procs}", small, procs))
    for procs in (16, 32, 64):
        out.append((f"{_klabel(scale.mesh_large)} mesh/{procs}", large, procs))
    for procs in (4, 8, 16):
        out.append((f"{scale.md_atoms} atoms/{procs}", "md", procs))
    return out


def _klabel(n: int) -> str:
    return f"{n // 1000}K" if n >= 1000 else str(n)


def _run(spec, procs, scale, **kwargs) -> ExperimentResult:
    if isinstance(spec, UnstructuredMesh):
        return run_euler_experiment(
            spec, procs, iterations=scale.sweep_iterations, **kwargs
        )
    return run_md_experiment(
        n_atoms=scale.md_atoms,
        n_procs=procs,
        iterations=scale.sweep_iterations,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Table 1: schedule reuse vs no reuse
# ---------------------------------------------------------------------------
def table1_schedule_reuse(scale_name: str | None = None):
    """Loop time for 100 iterations with/without schedule reuse (Table 1).

    Times are inspector+executor simulated seconds (the loop itself;
    partitioning/remap are one-time setup outside this table), with
    arrays decomposed by recursive coordinate bisection as in the paper.
    """
    scale = scale_config(scale_name)
    rows = []
    for label, spec, procs in _configs(scale):
        entry = {"config": label}
        for reuse in (False, True):
            res = _run(
                spec, procs, scale, partitioner="RCB", path="compiler", reuse=reuse
            )
            loop_time = res.phase("inspector") + res.phase("executor")
            entry["no_reuse" if not reuse else "reuse"] = loop_time
        entry["speedup"] = (
            entry["no_reuse"] / entry["reuse"] if entry["reuse"] else float("inf")
        )
        rows.append(entry)
    text = render_table(
        f"Table 1: schedule reuse, {scale.sweep_iterations} iterations "
        f"(simulated seconds, scale={scale.name})",
        rows,
        [("config", "Config"), ("no_reuse", "No Reuse"), ("reuse", "Reuse"), ("speedup", "Speedup")],
    )
    return rows, text


# ---------------------------------------------------------------------------
# Table 2: mapper coupler cost breakdown at the large config
# ---------------------------------------------------------------------------
_TABLE2_COLUMNS = [
    ("RCB", "compiler", True, "RCB compiler+reuse"),
    ("RCB", "compiler", False, "RCB compiler no-reuse"),
    ("RCB", "hand", True, "RCB hand"),
    ("BLOCK", "hand", True, "BLOCK hand"),
    ("RSB", "hand", True, "RSB hand"),
    ("RSB", "compiler", True, "RSB compiler+reuse"),
]


def table2_mapper_coupler(scale_name: str | None = None, n_procs: int = 32):
    """Phase breakdown, large mesh / 32 processors (Table 2)."""
    scale = scale_config(scale_name)
    mesh = generate_mesh(scale.mesh_large, seed=2)
    rows = []
    for partitioner, path, reuse, label in _TABLE2_COLUMNS:
        res = run_euler_experiment(
            mesh,
            n_procs,
            partitioner=partitioner,
            path=path,
            reuse=reuse,
            iterations=scale.sweep_iterations,
        )
        rows.append(
            {
                "column": label,
                "graph_generation": res.phase("graph_generation"),
                "partition": res.phase("partition"),
                "remap": res.phase("remap"),
                "inspector": res.phase("inspector"),
                "executor": res.phase("executor"),
                "total": res.total,
            }
        )
    text = render_table(
        f"Table 2: mapper coupler, {_klabel(scale.mesh_large)} mesh / "
        f"{n_procs} procs (simulated seconds, scale={scale.name})",
        rows,
        [
            ("column", "Variant"),
            ("graph_generation", "GraphGen"),
            ("partition", "Partition"),
            ("remap", "Remap"),
            ("inspector", "Inspector"),
            ("executor", "Executor"),
            ("total", "Total"),
        ],
    )
    return rows, text


# ---------------------------------------------------------------------------
# Tables 3 and 4: per-config phase details
# ---------------------------------------------------------------------------
def _detail_table(scale_name: str | None, partitioner: str, title: str, with_partition: bool):
    scale = scale_config(scale_name)
    rows = []
    for label, spec, procs in _configs(scale):
        res = _run(
            spec, procs, scale, partitioner=partitioner, path="compiler", reuse=True
        )
        row = {"config": label}
        if with_partition:
            row["partition"] = res.phase("graph_generation") + res.phase("partition")
        row.update(
            {
                "inspector": res.phase("inspector"),
                "remap": res.phase("remap"),
                "executor": res.phase("executor"),
                "total": res.total,
            }
        )
        rows.append(row)
    cols = [("config", "Config")]
    if with_partition:
        cols.append(("partition", "Partitioner"))
    cols += [
        ("inspector", "Inspector"),
        ("remap", "Remap"),
        ("executor", "Executor"),
        ("total", "Total"),
    ]
    text = render_table(f"{title} (simulated seconds, scale={scale_config(scale_name).name})", rows, cols)
    return rows, text


def table3_rcb_detail(scale_name: str | None = None):
    """Compiler-linked coordinate bisection with schedule reuse (Table 3)."""
    return _detail_table(
        scale_name, "RCB", "Table 3: compiler-linked RCB with schedule reuse", True
    )


def table4_block(scale_name: str | None = None):
    """Naive BLOCK partitioning with schedule reuse (Table 4)."""
    return _detail_table(
        scale_name, "BLOCK", "Table 4: BLOCK partitioning with schedule reuse", False
    )


# ---------------------------------------------------------------------------
# Figure 2: the five-phase solution structure
# ---------------------------------------------------------------------------
def fig2_phase_breakdown(scale_name: str | None = None, n_procs: int = 32):
    """Phases A-E of Figure 2 timed on the large mesh (RSB pipeline)."""
    scale = scale_config(scale_name)
    mesh = generate_mesh(scale.mesh_large, seed=2)
    res = run_euler_experiment(
        mesh,
        n_procs,
        partitioner="RSB",
        path="compiler",
        reuse=True,
        iterations=scale.sweep_iterations,
    )
    rows = [
        {"phase": "A: GeoCoL generation + partition",
         "seconds": res.phase("graph_generation") + res.phase("partition")},
        {"phase": "B+C: iteration partition & remap", "seconds": res.phase("remap")},
        {"phase": "D: inspector (schedules, buffers)", "seconds": res.phase("inspector")},
        {"phase": f"E: executor ({scale.sweep_iterations} iterations)",
         "seconds": res.phase("executor")},
    ]
    text = render_table(
        f"Figure 2 phases: {_klabel(scale.mesh_large)} mesh / {n_procs} procs, "
        f"RSB (simulated seconds, scale={scale.name})",
        rows,
        [("phase", "Phase"), ("seconds", "Seconds")],
    )
    return rows, text


# ---------------------------------------------------------------------------
# the tables (golden-table fixtures, ``tables`` and ``all`` CLI targets)
# ---------------------------------------------------------------------------
#: table name -> row-producing function, in paper order
TABLE_BUILDERS = {
    "table1": table1_schedule_reuse,
    "table2": table2_mapper_coupler,
    "table3": table3_rcb_detail,
    "table4": table4_block,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def render_table(title: str, rows: list[dict], columns: list[tuple[str, str]]) -> str:
    """Fixed-width text table; floats get 3 significant decimals."""

    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}" if v < 1000 else f"{v:.1f}"
        return str(v)

    table = [[fmt(r.get(key, "")) for key, _ in columns] for r in rows]
    headers = [h for _, h in columns]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
