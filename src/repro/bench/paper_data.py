"""The paper's published numbers, as structured data.

Transcribed from the tables of Ponnusamy, Saltz & Choudhary (SC '93);
where the scanned table is garbled, values are reconstructed from
row/column sums and the surrounding text and marked ``approx=True``.

The shape-comparison helpers quantify how well a measured run reproduces
the paper's *relationships* (who wins, by what factor) independent of
absolute calibration; ``tests/bench/test_paper_data.py`` pins the
paper-side facts, the fixtures in ``tests/bench/fixtures`` the measured.
"""

from __future__ import annotations

from dataclasses import dataclass

#: seconds on the iPSC/860, 100 executor iterations, RCB distributions
#: (workload, procs) -> (no_reuse, reuse)
PAPER_TABLE1: dict[tuple[str, int], tuple[float, float]] = {
    ("10K mesh", 4): (400.0, 17.6),
    ("10K mesh", 8): (214.0, 10.8),
    ("10K mesh", 16): (123.0, 7.7),
    ("53K mesh", 16): (668.0, 30.4),
    ("53K mesh", 32): (398.0, 23.0),
    ("53K mesh", 64): (239.0, 17.4),
    ("648 atoms", 4): (707.0, 15.2),
    ("648 atoms", 8): (384.0, 9.7),
    ("648 atoms", 16): (227.0, 8.0),
}


@dataclass(frozen=True)
class PaperTable2Column:
    """One variant column of Table 2 (53K mesh / 32 processors)."""

    variant: str
    graph_generation: float | None
    partition: float
    remap: float
    executor: float
    total: float
    approx: bool = False


PAPER_TABLE2: list[PaperTable2Column] = [
    PaperTable2Column("RCB compiler+reuse", None, 1.6, 4.3, 16.8, 22.4),
    PaperTable2Column("RCB compiler no-reuse", None, 1.6, 4.2, 17.2, 398.0, approx=True),
    PaperTable2Column("RCB hand", None, 1.6, 4.2, 17.4, 23.0),
    PaperTable2Column("BLOCK hand", None, 0.0, 4.7, 35.0, 59.4, approx=True),
    PaperTable2Column("RSB hand", 2.2, 258.0, 4.1, 11.4, 277.5),
    PaperTable2Column("RSB compiler+reuse", 2.2, 258.0, 4.2, 13.9, 277.9, approx=True),
]

#: Table 3 (compiler-linked RCB + reuse):
#: (workload, procs) -> (partitioner, inspector, remap, executor, total)
PAPER_TABLE3: dict[tuple[str, int], tuple[float, float, float, float, float]] = {
    ("10K mesh", 4): (0.6, 1.2, 3.1, 12.7, 17.6),
    ("10K mesh", 8): (0.6, 0.6, 1.6, 7.0, 10.8),
    ("10K mesh", 16): (0.4, 0.4, 0.9, 6.0, 7.7),
    ("53K mesh", 16): (1.8, 2.0, 5.1, 21.5, 30.4),
    ("53K mesh", 32): (1.6, 1.9, 3.0, 17.2, 23.0),  # executor reconstructed
    ("53K mesh", 64): (2.5, 0.7, 1.9, 12.3, 17.4),
    ("648 atoms", 4): (0.1, 2.2, 4.8, 8.1, 15.2),
    ("648 atoms", 8): (0.1, 1.2, 2.6, 5.8, 9.7),
    ("648 atoms", 16): (0.1, 0.7, 1.5, 5.7, 8.0),
}

#: Table 4 (BLOCK + reuse): (workload, procs) -> (inspector, remap, executor, total)
PAPER_TABLE4: dict[tuple[str, int], tuple[float, float, float, float]] = {
    ("10K mesh", 4): (1.5, 3.1, 26.0, 30.4),  # total printed as 30.4 in scan
    ("10K mesh", 8): (0.9, 1.6, 20.8, 23.3),
    ("10K mesh", 16): (0.5, 0.8, 14.7, 16.0),
    ("53K mesh", 16): (3.9, 4.9, 74.1, 82.9),
    ("53K mesh", 32): (1.9, 2.8, 54.7, 59.4),
    ("53K mesh", 64): (1.0, 1.7, 35.3, 38.0),
    ("648 atoms", 4): (2.7, 4.5, 10.3, 17.5),
    ("648 atoms", 8): (1.5, 2.6, 7.6, 11.7),
    ("648 atoms", 16): (0.8, 1.5, 7.3, 9.6),
}


# ---------------------------------------------------------------------------
# shape metrics
# ---------------------------------------------------------------------------
def paper_table1_speedups() -> dict[tuple[str, int], float]:
    """Reuse speedups the paper achieved, per configuration."""
    return {k: nr / r for k, (nr, r) in PAPER_TABLE1.items()}


def paper_block_vs_rcb_executor() -> dict[tuple[str, int], float]:
    """Paper's Table4/Table3 executor ratios (BLOCK cost factor)."""
    out = {}
    for key, (_, _, executor4, _) in PAPER_TABLE4.items():
        executor3 = PAPER_TABLE3[key][3]
        out[key] = executor4 / executor3
    return out


def paper_rsb_over_rcb_partition() -> float:
    """How much more the paper's RSB partitioner cost than RCB's."""
    rsb = next(c for c in PAPER_TABLE2 if c.variant == "RSB hand")
    rcb = next(c for c in PAPER_TABLE2 if c.variant == "RCB hand")
    return rsb.partition / rcb.partition


def paper_compiler_overhead() -> float:
    """Paper's compiler-vs-hand loop overhead (RCB columns of Table 2).

    Compares the loop portion (executor + inspector-ish remainder) via
    totals minus the shared one-time phases."""
    comp = next(c for c in PAPER_TABLE2 if c.variant == "RCB compiler+reuse")
    hand = next(c for c in PAPER_TABLE2 if c.variant == "RCB hand")
    return comp.total / hand.total


def shape_report(measured_speedups: dict, label: str = "table1") -> list[dict]:
    """Side-by-side reuse-speedup rows: measured vs paper direction.

    ``measured_speedups`` maps (workload label, procs) -> speedup.  Keys
    are matched positionally by sorted order when labels differ (our
    mesh sizes are scale-dependent).
    """
    paper = paper_table1_speedups()
    paper_items = sorted(paper.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    measured_items = sorted(
        measured_speedups.items(), key=lambda kv: (kv[0][0], kv[0][1])
    )
    if len(paper_items) != len(measured_items):
        raise ValueError(
            f"expected {len(paper_items)} measured configs, got "
            f"{len(measured_items)}"
        )
    rows = []
    for (pk, pv), (mk, mv) in zip(paper_items, measured_items):
        rows.append(
            {
                "paper_config": f"{pk[0]}/{pk[1]}",
                "paper_speedup": pv,
                "measured_config": f"{mk[0]}/{mk[1]}",
                "measured_speedup": mv,
                "same_direction": (pv > 1) == (mv > 1),
            }
        )
    return rows
