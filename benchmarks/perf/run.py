#!/usr/bin/env python3
"""The repo benchmark: one command, named metrics, named workloads.

    python benchmarks/perf/run.py [--workload W ...] [--seed S]
        [--reps N] [--traced-reps M] [--out F] [--scale tiny]
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

Every workload runs in its own child process (so ``ru_maxrss`` and
imports are per workload) with the math libraries pinned to one thread.
A child sets up once (imports, mesh, streams, NumPy reference, one
untimed warm-up rep), runs the timed reps with tracing off, then the
traced reps with the boundary spans of ``perf_spans`` installed; plain
NumPy sweeps timed around every rep are the yardstick of ``slowdown_x``,
the one end-to-end metric that machine-wide drift cancels out of.  The
parent pools the children's reps, prints one line per (workload,
metric) with name, value and unit, writes the same as JSON, and exits
non-zero on any failed step.

The last form is the driver contract of ``BENCHMARK.json``: one
workload, measured for ``--seconds`` seconds, and a final stdout line
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``: three set-ups, so ``setup_s`` is a
median) or the per-layer metrics (``--trace 1``).  README.md documents
workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(HERE, ".cache")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("reinspect_warm", "compiled_reuse", "adapt_patch", "rebalance_remap")

#: end-to-end metrics: name -> (unit, better, bound used by --compare).
#: BENCHMARK.json repeats them for the driver, bar two differences:
#: ``fail_share`` is left out there (see BENCHMARK_END_TO_END), and
#: ``sim_total_s`` carries the spread *across seeds* there (each seed is
#: another mesh), while two files of one seed must agree exactly.
#: The issue asked for 10 % on the host-clock metrics; this box drifts
#: by 10-15 % over minutes whatever runs on it (a plain NumPy sweep
#: does too), so they are widened to the contract's cap.  ``slowdown_x``
#: divides that drift out and is the tight gate.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "sweeps_per_s": ("1/s", "higher", 0.25),
    "slowdown_x": ("x", "lower", 0.15),
    "step_ms": ("ms", "lower", 0.25),
    "cold_start_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_total_s": ("sim_s", "lower", 0.0),
    "fail_share": ("ratio", "lower", 0.0),
}
#: what BENCHMARK.json gives ``sim_total_s``: the adapt_patch refinement
#: stream moved it by 6 % between seeds
SIM_TOTAL_BOUND_ACROSS_SEEDS = 0.15

#: per-layer metrics: name -> unit.  ``*_self_ms`` are self times per
#: rep (median over traced reps), counts are exact per rep.
PER_LAYER = {
    "machine.exchange_self_ms": "ms",
    "machine.exchange_calls": "count",
    "machine.sim_messages": "count",
    "machine.sim_bytes": "bytes",
    "distribution.translate_self_ms": "ms",
    "distribution.repartition_self_ms": "ms",
    "partitioners.partition_self_ms": "ms",
    "partitioners.edge_cut": "count",
    "partitioners.load_imbalance": "ratio",
    "chaos.ttable_self_ms": "ms",
    "chaos.localize_self_ms": "ms",
    "chaos.gather_scatter_self_ms": "ms",
    "chaos.remap_self_ms": "ms",
    "chaos.transcache_hits": "count",
    "chaos.transcache_misses": "count",
    "chaos.transcache_hit_ratio": "ratio",
    "core.geocol_self_ms": "ms",
    "core.inspector_self_ms": "ms",
    "core.iteration_self_ms": "ms",
    "core.executor_self_ms": "ms",
    "core.forall_self_ms": "ms",
    "core.write_tracking_self_ms": "ms",
    "core.redistribute_self_ms": "ms",
    "core.inspector_runs": "count",
    "core.reuse_hits": "count",
    "core.reuse_hit_ratio": "ratio",
    "core.sim_graph_s": "sim_s",
    "core.sim_partition_s": "sim_s",
    "core.sim_remap_s": "sim_s",
    "core.sim_inspector_s": "sim_s",
    "core.sim_executor_s": "sim_s",
    "adapt.state_build_self_ms": "ms",
    "adapt.attempt_self_ms": "ms",
    "adapt.patch_self_ms": "ms",
    "adapt.patch_hits": "count",
    "adapt.fallbacks": "count",
    "adapt.patch_ratio": "ratio",
    "guard.verify_self_ms": "ms",
    "guard.checkpoint_save_ms": "ms",
    "guard.checkpoint_bytes": "bytes",
    "lang.compile_ms": "ms",
    "workloads.kernel_self_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_self_ms": "ms",
    "bench.step_p95_ms": "ms",
    "bench.ref_sweep_ms": "ms",
}

#: the issue's floor: a run never pools fewer timed reps than this
MIN_REPS = 11

#: glibc malloc pinned for the children.  By default the mmap and trim
#: thresholds adapt to the sizes freed so far, so whether a step's
#: multi-MB NumPy temporaries are recycled from the heap or mmapped and
#: page-faulted afresh depends on allocation history: whole reps landed
#: in a "fast" (0.9 s) or "slow" (1.4 s) mode of compiled_reuse at
#: random.  Fixed thresholds (32 MiB is the largest glibc accepts; never
#: trim) keep every rep in the recycling mode.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
}


# ----------------------------------------------------------------------
# child: one set-up, timed reps, traced reps
# ----------------------------------------------------------------------
def child_main(spec: dict) -> dict:
    """Run inside the child process; returns the JSON-ready raw result."""
    sys.path.insert(0, HERE)
    import numpy
    import scipy
    from repro.obs import NULL_TRACER, Tracer, export_trace
    from repro.workloads.euler import euler_sequential_reference
    from repro.workloads.mesh import generate_mesh

    import perf_spans
    from perf_workloads import SCALES, WORKLOADS, derive_seeds, run_rep

    seeds = derive_seeds(spec["seed"])
    n_nodes = SCALES[spec["scale"]]["n_nodes"]
    os.makedirs(CACHE_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    cached_before = set(os.listdir(CACHE_DIR))
    mesh = generate_mesh(n_nodes, seed=seeds["mesh"], cache_dir=CACHE_DIR)
    wl = WORKLOADS[spec["workload"]](spec["scale"], OUT_DIR)
    wl.prepare(mesh, seeds)
    warm_up = run_rep(wl)
    gc.collect()
    out = {
        "workload": wl.name,
        "K": wl.steps,
        "n_procs": wl.n_procs,
        "n_edges": mesh.n_edges,
        "mesh_cache": "miss" if set(os.listdir(CACHE_DIR)) - cached_before else "hit",
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "setup_s": time.time() - spec["spawned_at"],
        "reps": [],
        "traced": [],
    }
    if warm_up["error"]:
        out["reps"].append(warm_up)  # a broken warm-up is a failed rep, not a crash
        return out

    def budget(reps, seconds, floor):
        """One iteration per rep to run: a fixed count, or (``reps`` is
        None, the driver contract) until ``seconds`` are spent and at
        least ``floor`` reps ran.  gc runs between reps, untimed."""
        t_end = time.perf_counter() + seconds
        done = 0
        while (
            done < reps
            if reps is not None
            else done < floor or time.perf_counter() < t_end
        ):
            yield
            done += 1
            gc.collect()

    def reference_sweeps() -> list[float]:
        """Seconds of 5 plain-NumPy sweeps over the same mesh."""
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            euler_sequential_reference(wl.x, mesh.edges)
            times.append(time.perf_counter() - t0)
        return times

    def yardsticked(tracer=NULL_TRACER) -> dict:
        """One rep, bracketed by reference sweeps: the yardstick that
        ``slowdown_x`` and the tracing overhead divide by, so that
        machine-wide drift (a noisy neighbour slows both sides) cancels."""
        before = reference_sweeps()
        rep = run_rep(wl, tracer)
        rep["ref_sweep_s"] = statistics.median(before + reference_sweeps())
        return rep

    for _ in budget(spec["reps"], spec["seconds"], spec["min_reps"]):
        out["reps"].append(yardsticked())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = Tracer()
    for _ in budget(spec["traced_reps"], spec["traced_seconds"], 1):
        tracer.clear()
        with perf_spans.installed(tracer):
            rep = yardsticked(tracer)
        if not rep["error"]:
            rep["self_ms"] = perf_spans.layer_self_ms(tracer.spans)
            rep["span_counts"] = perf_spans.span_counts(tracer.spans)
        out["traced"].append(rep)
    if out["traced"]:
        # the last traced rep, readable by `python -m repro.obs report`
        out["trace_file"] = export_trace(
            os.path.join(OUT_DIR, f"{wl.name}.trace.json"),
            tracer,
            meta={"workload": wl.name, "seed": spec["seed"], "scale": spec["scale"]},
            fmt="chrome",
        )
    return out


def spawn_child(spec: dict) -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_OBS="off",
        **MALLOC_ENV,
        PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        ),
    )
    env.pop("REPRO_GUARD", None)
    spec = dict(spec, spawned_at=time.time())
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(spec)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']}: child exited with code {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# parent: pool the children's reps into named metrics
# ----------------------------------------------------------------------
def _dist(values) -> dict:
    """Median with the spread printed beside it."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "min": values[0],
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def _p95(values) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, math.ceil(0.95 * len(values)) - 1)]


def _slowdown(rep: dict, K: int) -> float:
    """Rep wall over the same K+1 sweeps done by plain NumPy just
    before and after the rep."""
    return rep["wall_s"] / ((K + 1) * rep["ref_sweep_s"])


def _relative_step(reps: list[dict]) -> float:
    """Median step over median reference sweep: the step time with
    machine-wide drift divided out (and, being a median over steps, blind
    to the two checkpoint steps, whose file writes stall at random)."""
    return statistics.median(s for r in reps for s in r["steps_s"]) / statistics.median(
        r["ref_sweep_s"] for r in reps
    )


def summarize(children: list[dict]) -> dict:
    """Pool one workload's children into end-to-end + per-layer metrics."""
    first = children[0]
    K = first["K"]
    reps = [r for c in children for r in c["reps"]]
    traced = [r for c in children for r in c["traced"]]
    errors = []
    baseline = next((r["fingerprint"] for r in reps + traced if not r["error"]), None)
    for rep in reps + traced:
        if not rep["error"] and rep["fingerprint"] != baseline:
            rep["error"] = (
                "simulated total, counters or y differ from the first rep "
                f"({rep['fingerprint']} != {baseline})"
            )
        if rep["error"]:
            errors.append(rep["error"])
    good = [r for r in reps if not r["error"]]
    attempted = (len(reps) + len(traced)) * (K + 1)
    failed = len(errors) * (K + 1)
    summary = {
        "K": K,
        "n_procs": first["n_procs"],
        "n_edges": first["n_edges"],
        "mesh_cache": [c["mesh_cache"] for c in children],
        "versions": first["versions"],
        "attempted_steps": attempted,
        "failed_steps": failed,
        "errors": errors,
        "end_to_end": {},
        "per_layer": {},
    }
    e2e = summary["end_to_end"]
    e2e["setup_s"] = _dist([c["setup_s"] for c in children])
    e2e["fail_share"] = {"value": failed / attempted if attempted else 1.0}
    if good:
        steps_ms = [s * 1e3 for r in good for s in r["steps_s"]]
        e2e["wall_s"] = _dist([r["wall_s"] for r in good])
        e2e["sweeps_per_s"] = {"value": (K + 1) / e2e["wall_s"]["value"]}
        e2e["slowdown_x"] = _dist([_slowdown(r, K) for r in good])
        e2e["step_ms"] = _dist(steps_ms)
        e2e["cold_start_ms"] = _dist([r["cold_start_s"] * 1e3 for r in good])
        e2e["peak_rss_mb"] = _dist([c["peak_rss_mb"] for c in children])
        e2e["sim_total_s"] = {"value": good[0]["sim_total_s"]}
    for name, entry in e2e.items():
        entry["unit"] = END_TO_END[name][0]

    good_traced = sorted(
        (r for r in traced if not r["error"]), key=lambda r: r["wall_s"]
    )
    if good_traced and good:
        # the median traced rep (by wall): one rep's self times sum to
        # its wall exactly, per-metric medians over reps would not
        mid = good_traced[(len(good_traced) - 1) // 2]
        layer = {**mid["self_ms"], **mid["counts"]}
        layer["machine.exchange_calls"] = mid["span_counts"].get(
            "machine.machine.Machine.exchange", 0
        )
        summary["checkpoint_saves"] = mid["span_counts"].get(
            "guard.checkpoint.save_checkpoint", 0
        )
        if summary["checkpoint_saves"]:
            layer["guard.checkpoint_save_ms"] /= summary["checkpoint_saves"]
        layer["bench.trace_overhead_frac"] = (
            _relative_step(good_traced) / _relative_step(good) - 1.0
        )
        layer["bench.step_p95_ms"] = _p95(steps_ms)
        layer["bench.ref_sweep_ms"] = 1e3 * statistics.median(
            r["ref_sweep_s"] for r in good
        )
        summary["traced_wall_ms"] = mid["wall_s"] * 1e3
        summary["trace_file"] = children[-1].get("trace_file")
        summary["per_layer"] = {
            name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()
        }
    return summary


def plan_for(args) -> dict:
    """How one workload's measuring budget is split over children."""
    if args.trace is None:
        return {"setups": 1, "reps": args.reps, "seconds": 0.0, "min_reps": 0,
                "traced_reps": args.traced_reps, "traced_seconds": 0.0}
    if args.trace:
        # half the seconds untraced, to price the tracing, half traced
        return {"setups": 1, "reps": None, "seconds": args.seconds / 2, "min_reps": 1,
                "traced_reps": None, "traced_seconds": args.seconds / 2}
    # three set-ups, so that setup_s is a median
    return {"setups": 3, "reps": None, "seconds": args.seconds, "min_reps": MIN_REPS,
            "traced_reps": 0, "traced_seconds": 0.0}


def run_workload(name: str, seed: int, scale: str, plan: dict) -> dict:
    """Spawn the plan's children for one workload and pool them.

    The timed budget (reps or seconds) is split evenly over the
    children; the traced reps run in the last child only.
    """
    setups = plan["setups"]
    children = []
    for i in range(setups):
        last = i == setups - 1
        children.append(
            spawn_child(
                {
                    "workload": name,
                    "seed": seed,
                    "scale": scale,
                    "reps": plan["reps"] and -(-plan["reps"] // setups),
                    "seconds": plan["seconds"] / setups,
                    "min_reps": -(-plan["min_reps"] // setups),
                    "traced_reps": plan["traced_reps"] if last else 0,
                    "traced_seconds": plan["traced_seconds"],
                }
            )
        )
    return summarize(children)


def _fmt(entry: dict) -> str:
    text = f"{entry['value']:.6g} {entry['unit']}"
    if "n" in entry:
        text += (
            f"  (min {entry['min']:.6g}  q1 {entry['q1']:.6g}  "
            f"q3 {entry['q3']:.6g}  n {entry['n']})"
        )
    return text


def print_summary(name: str, summary: dict) -> None:
    for section in ("end_to_end", "per_layer"):
        for metric, entry in summary[section].items():
            print(f"{name:<16} {metric:<34} {_fmt(entry)}")
    for err in summary["errors"]:
        print(f"{name:<16} FAILED: {err.strip().splitlines()[-1]}", file=sys.stderr)


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_benchmark(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}: nothing to measure", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOAD_NAMES)
    plan = plan_for(args)
    load_start = os.getloadavg()
    report = {"scale": args.scale, "workloads": {}}
    for name in names:
        summary = run_workload(name, args.seed, args.scale, plan)
        report["workloads"][name] = summary
        print_summary(name, summary)
    report["env"] = {
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        **report["workloads"][names[0]]["versions"],
        "git_commit": _git_commit(),
        "seed": args.seed,
        "plan": plan,
        "K": {n: s["K"] for n, s in report["workloads"].items()},
        "mesh_cache": {n: s["mesh_cache"] for n, s in report["workloads"].items()},
        "checkpoint_fs": "checkout (benchmarks/perf/out)",
        "threads": 1,
        "malloc": MALLOC_ENV,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"[written to {args.out}]")
    if args.trace is not None:
        print(json.dumps(contract_result(report["workloads"][names[0]], args.trace)))
    return 1 if any(s["failed_steps"] for s in report["workloads"].values()) else 0


#: ``fail_share`` is always 0 on a healthy run, so the driver reads it
#: from ``attempted``/``failed`` instead of a metric that is never 0
BENCHMARK_END_TO_END = tuple(m for m in END_TO_END if m != "fail_share")


def contract_result(summary: dict, trace: int) -> dict:
    """The driver contract's result object for one workload's summary."""
    section = summary["per_layer"] if trace else summary["end_to_end"]
    wanted = PER_LAYER if trace else BENCHMARK_END_TO_END
    return {
        "correct": summary["failed_steps"] == 0 and all(m in section for m in wanted),
        "attempted": summary["attempted_steps"],
        "failed": summary["failed_steps"],
        "metrics": {
            m: {"value": section[m]["value"], "unit": section[m]["unit"]}
            for m in wanted
            if m in section
        },
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per (workload, end-to-end metric): both medians, the relative
    delta, the bound and a verdict; exit 1 on any ``worse``.

    ``unresolved`` = either file's interquartile range is wider than
    the bound, so a delta of that size cannot be told from noise.
    Per-layer counts and simulated seconds that differ are listed (two
    runs of one commit and seed must agree on every one of them).
    """
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key, va, vb in (
        ("scale", a["scale"], b["scale"]),
        ("seed", a["env"]["seed"], b["env"]["seed"]),
        ("K", a["env"]["K"], b["env"]["K"]),
    ):
        if va != vb:
            print(f"not comparable: {key} {va!r} vs {vb!r}", file=sys.stderr)
            return 2
    worse = 0
    print(
        f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} {'delta':>8} "
        f"{'bound':>6}  verdict"
    )
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            ea, eb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ea is None or eb is None:
                print(f"{name:<16} {metric:<14} missing on one side: worse")
                worse += 1
                continue
            va, vb = ea["value"], eb["value"]
            # signed so that positive = B is worse than A
            delta = (vb - va) if better == "lower" else (va - vb)
            rel = delta / abs(va) if va else (math.inf if delta > 0 else 0.0)
            spread = max(
                (e.get("q3", e["value"]) - e.get("q1", e["value"])) for e in (ea, eb)
            ) / (abs(va) or 1.0)
            if spread > bound > 0:
                verdict = "unresolved"
            elif rel > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{name:<16} {metric:<14} {va:>12.6g} {vb:>12.6g} {rel:>+8.2%} "
                f"{bound:>6.0%}  {verdict}  [{unit}]"
            )
        changed = [
            f"{metric} {wa['per_layer'][metric]['value']!r} -> "
            f"{wb['per_layer'][metric]['value']!r}"
            for metric, unit in PER_LAYER.items()
            if unit in ("count", "bytes", "sim_s")
            and metric in wa["per_layer"]
            and metric in wb["per_layer"]
            and wa["per_layer"][metric]["value"] != wb["per_layer"][metric]["value"]
        ]
        print(
            f"{name:<16} exact counts and simulated seconds: "
            + ("identical" if not changed else "CHANGED: " + "; ".join(changed))
        )
    return 1 if worse else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--reps", type=int, default=15, help="timed reps per workload")
    parser.add_argument("--traced-reps", type=int, default=3, help="traced reps per workload")
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny = 2,000 nodes, P=8: a smoke test, never comparable",
    )
    parser.add_argument(
        "--out", default=os.path.join(OUT_DIR, "perf.json"), help="JSON report path"
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two reports instead of running",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="driver contract: measure for this long instead of --reps",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="driver contract: 0 = end-to-end metrics, 1 = per-layer metrics; "
        "prints the result object as the last line",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.trace is None) != (args.seconds is None):
        parser.error("--seconds and --trace go together (the driver contract)")
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("the driver contract runs exactly one --workload")
    if args.reps < 1 or args.traced_reps < 0:
        parser.error("--reps must be >= 1 and --traced-reps >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    if args.compare:
        return compare(*args.compare)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
