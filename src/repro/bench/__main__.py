"""Command-line entry point for the benchmark harness.

    python -m repro.bench table1 [--scale small|medium|paper]
    python -m repro.bench table2 [--procs 32]
    python -m repro.bench table3
    python -m repro.bench table4
    python -m repro.bench fig2
    python -m repro.bench tables [--json out.json]   # Tables 1-4 only
    python -m repro.bench all [--json out.json]

Prints the paper-style tables (simulated iPSC/860 seconds) to stdout.
The problem scale defaults to ``$REPRO_SCALE`` (or ``small``);
``--scale paper`` / ``REPRO_SCALE=paper`` runs the SC'93 problem sizes
(10K/53K-node meshes, full sweeps) for Tables 1-4.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.tables import TABLE_BUILDERS, fig2_phase_breakdown

#: every target: Tables 1-4, then Figure 2
_TARGETS = {**TABLE_BUILDERS, "fig2": fig2_phase_breakdown}
#: the targets timed on ``--procs`` processors
_TAKES_PROCS = ("table2", "fig2")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables on the simulated machine.",
        epilog=(
            "The default scale comes from $REPRO_SCALE (small if unset). "
            "REPRO_SCALE=paper (or --scale paper) runs Tables 1-4 at the "
            "paper's SC'93 problem sizes: 10K/53K-node meshes and the full "
            "648-atom sweep.  --json writes the raw rows (exact floats) for "
            "golden-table fixtures."
        ),
    )
    parser.add_argument(
        "target",
        choices=sorted(_TARGETS) + ["tables", "all"],
        help=(
            "which table/figure to regenerate ('tables' = Tables 1-4 only, "
            "the golden-fixture set; 'all' adds fig2)"
        ),
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["tiny", "small", "medium", "paper"],
        help=(
            "problem scale (default: $REPRO_SCALE or 'small'; "
            "'paper' = SC'93 sizes)"
        ),
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=32,
        help="processor count for table2/fig2 (default 32)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the selected tables' raw rows as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if args.target == "all":
        targets = sorted(_TARGETS)
    elif args.target == "tables":
        targets = list(TABLE_BUILDERS)
    else:
        targets = [args.target]
    collected: dict[str, list[dict]] = {}
    for name in targets:
        kwargs = {"n_procs": args.procs} if name in _TAKES_PROCS else {}
        rows, text = _TARGETS[name](args.scale, **kwargs)
        collected[name] = rows
        print(text)
        print()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"[rows written to {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
