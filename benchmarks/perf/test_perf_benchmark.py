"""Smoke + unit tests for the repo benchmark (``benchmarks/perf``).

Real ``run.py --scale tiny`` runs (2,000 nodes, P=8, 2 reps, 1 traced
rep) back the presence/correctness assertions; the span arithmetic and
the wrapper install/uninstall are unit-tested in-process.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import perf_spans  # noqa: E402
import perf_workloads  # noqa: E402
import run  # noqa: E402
from repro.obs import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    """One ``run.py --scale tiny`` per workload, side by side (imports
    dominate a tiny child, so four in a row would take twice as long),
    merged into one report."""
    tmp = tmp_path_factory.mktemp("perf")
    procs = {
        name: subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--scale", "tiny",
             "--workload", name, "--reps", "2", "--traced-reps", "1",
             "--out", str(tmp / f"{name}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for name in run.WORKLOAD_NAMES
    }
    report = {"workloads": {}, "stdout": ""}
    for name, proc in procs.items():
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, stdout
        with open(tmp / f"{name}.json") as fh:
            part = json.load(fh)
        report["workloads"].update(part.pop("workloads"))
        report["stdout"] += stdout
        report.update(part)
    report["env"]["K"] = {n: s["K"] for n, s in report["workloads"].items()}
    return report


def test_tiny_run_reports_every_declared_metric(tiny_report, benchmark_json):
    assert tiny_report["scale"] == "tiny"
    assert set(tiny_report["workloads"]) == {w["name"] for w in benchmark_json["workloads"]}
    for name, summary in tiny_report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in benchmark_json[section]:
                entry = summary[section][metric["name"]]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
                assert entry["unit"] == metric["unit"], (name, metric["name"])
                assert isinstance(entry["value"], (int, float))
                # one printed line per (workload, metric), name + value + unit
                assert re.search(
                    rf"^{name}\s+{re.escape(metric['name'])}\s+\S+ {re.escape(entry['unit'])}",
                    tiny_report["stdout"], re.M,
                ), (name, metric["name"])


def test_benchmark_json_matches_the_runner(benchmark_json):
    declared = {m["name"]: m for m in benchmark_json["end_to_end"]}
    assert set(declared) == set(run.BENCHMARK_END_TO_END)
    for name, m in declared.items():
        unit, better, bound = run.END_TO_END[name]
        assert (m["unit"], m["better"]) == (unit, better)
        want = run.SIM_TOTAL_BOUND_ACROSS_SEEDS if name == "sim_total_s" else bound
        assert m["bound"] == want <= 0.25
    assert {m["name"]: m["unit"] for m in benchmark_json["per_layer"]} == run.PER_LAYER
    assert benchmark_json["paths"] == ["benchmarks/perf"]
    assert tuple(w["name"] for w in benchmark_json["workloads"]) == run.WORKLOAD_NAMES
    assert tuple(perf_workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_tiny_run_is_correct_and_deterministic(tiny_report):
    for name, summary in tiny_report["workloads"].items():
        assert summary["errors"] == [], name
        assert summary["end_to_end"]["fail_share"]["value"] == 0
        # every rep, traced or not, matched the first rep's (simulated
        # total, counter CRCs, y CRC): summarize() turns any mismatch
        # into an error, so no errors + all reps attempted = identical
        assert summary["attempted_steps"] == 3 * (summary["K"] + 1)
        assert summary["failed_steps"] == 0
        assert summary["end_to_end"]["sim_total_s"]["value"] > 0


def test_tiny_traced_run_is_sound(tiny_report):
    for name, summary in tiny_report["workloads"].items():
        layer = {m: e["value"] for m, e in summary["per_layer"].items()}
        self_ms = sum(
            v for m, v in layer.items()
            if m.endswith("_self_ms") or m == "lang.compile_ms"
        )
        assert summary["checkpoint_saves"] == (2 if name == "adapt_patch" else 0)
        # reported per save; the rep's self times sum to its wall
        self_ms += layer["guard.checkpoint_save_ms"] * summary["checkpoint_saves"]
        assert self_ms == pytest.approx(summary["traced_wall_ms"], rel=1e-3), name
        assert os.path.basename(summary["trace_file"]) == f"{name}.trace.json"
    layers = {
        n: {m: e["value"] for m, e in s["per_layer"].items()}
        for n, s in tiny_report["workloads"].items()
    }
    assert layers["compiled_reuse"]["core.inspector_runs"] == 1
    assert layers["compiled_reuse"]["core.reuse_hits"] == 80
    assert layers["compiled_reuse"]["lang.compile_ms"] > 0
    assert layers["adapt_patch"]["adapt.patch_ratio"] == 1
    assert layers["adapt_patch"]["guard.checkpoint_bytes"] > 0
    assert layers["reinspect_warm"]["chaos.transcache_hit_ratio"] > 0.9
    assert layers["rebalance_remap"]["distribution.repartition_self_ms"] > 0
    for name in ("reinspect_warm", "compiled_reuse", "rebalance_remap"):
        assert layers[name]["adapt.patch_self_ms"] == 0


def test_contract_result_line(tiny_report):
    summary = tiny_report["workloads"]["adapt_patch"]
    for trace, wanted in ((0, run.BENCHMARK_END_TO_END), (1, run.PER_LAYER)):
        line = run.contract_result(summary, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(wanted)
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_compare_verdicts(tiny_report, tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(tiny_report))
    assert run.compare(str(a), str(a)) == 0
    assert "worse" not in capsys.readouterr().out

    slower = json.loads(a.read_text())
    entry = slower["workloads"]["compiled_reuse"]["end_to_end"]["peak_rss_mb"]
    for key in ("value", "q1", "q3", "min"):
        entry[key] *= 1.5
    b.write_text(json.dumps(slower))
    assert run.compare(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert re.search(r"compiled_reuse\s+peak_rss_mb.*\+50\.00%.*worse", out)

    noisy = json.loads(a.read_text())
    entry = noisy["workloads"]["compiled_reuse"]["end_to_end"]["wall_s"]
    entry["q1"], entry["q3"] = entry["value"] * 0.5, entry["value"] * 1.5
    c.write_text(json.dumps(noisy))
    assert run.compare(str(a), str(c)) == 0
    assert re.search(r"compiled_reuse\s+wall_s.*unresolved", capsys.readouterr().out)

    other_seed = json.loads(a.read_text())
    other_seed["env"]["seed"] = 1
    c.write_text(json.dumps(other_seed))
    assert run.compare(str(a), str(c)) == 2


def test_self_time_arithmetic_on_synthetic_spans():
    """root 100 ms > forall 80 ms > (executor 50 ms > 2 x exchange 10 ms,
    kernel 20 ms): self = duration - direct children."""
    ms = 1_000_000
    tracer = Tracer()
    root = tracer.record(perf_spans.ROOT_SPAN, 0, 100 * ms)
    forall = tracer.record("core.program.IrregularProgram.forall", 5 * ms, 80 * ms, parent=root)
    executor = tracer.record("core.executor.run_executor", 10 * ms, 50 * ms, parent=forall)
    tracer.record("machine.machine.Machine.exchange", 12 * ms, 10 * ms, parent=executor)
    tracer.record("machine.machine.Machine.exchange", 30 * ms, 10 * ms, parent=executor)
    tracer.record(perf_spans.KERNEL_SPAN, 62 * ms, 20 * ms, parent=forall)
    layer = perf_spans.layer_self_ms(tracer.spans)
    assert layer["bench.unattributed_self_ms"] == pytest.approx(20.0)
    assert layer["core.forall_self_ms"] == pytest.approx(10.0)
    assert layer["core.executor_self_ms"] == pytest.approx(30.0)
    assert layer["machine.exchange_self_ms"] == pytest.approx(20.0)
    assert layer["workloads.kernel_self_ms"] == pytest.approx(20.0)
    assert layer["adapt.patch_self_ms"] == 0.0
    assert sum(layer.values()) == pytest.approx(100.0)
    assert perf_spans.span_counts(tracer.spans)["machine.machine.Machine.exchange"] == 2
    # every metric the spans feed is a declared per-layer metric
    assert set(layer) <= set(run.PER_LAYER)


def test_wrappers_install_and_restore_by_identity():
    import repro.core.inspector
    from repro.machine.machine import Machine

    # (the attribute repro.chaos.localize is the re-exported function)
    localize_module = sys.modules["repro.chaos.localize"]
    exchange = vars(Machine)["exchange"]
    localize = localize_module.localize
    assert repro.core.inspector.localize is localize  # bound via from-import
    tracer = Tracer()
    with perf_spans.installed(tracer) as patched:
        assert len({(id(ns), key) for ns, key, _ in patched}) == len(patched)
        assert len(patched) >= len(perf_spans.ENTRY_POINTS)
        assert vars(Machine)["exchange"] is not exchange
        assert repro.core.inspector.localize is not localize
        assert repro.core.inspector.localize is localize_module.localize
        Machine(2).exchange(src=[0], dst=[1], nbytes=[8])
    assert [s.name for s in tracer.spans] == ["machine.machine.Machine.exchange"]
    for namespace, key, original in patched:
        assert vars(namespace)[key] is original, (namespace, key)
    assert vars(Machine)["exchange"] is exchange
    Machine(2).exchange(src=[0], dst=[1], nbytes=[8])
    assert len(tracer.spans) == 1  # restored: no span recorded any more
