"""Exporter round-trips and report rendering.

JSONL must parse back to exactly what the tracer held; the Chrome
export must be schema-valid ``trace_event`` JSON that Perfetto accepts
and that :func:`load_trace` normalizes to the same logical content.
"""

import json
import threading

from repro.obs import (
    EventBus,
    Tracer,
    export_chrome,
    export_jsonl,
    export_trace,
    load_trace,
    render,
    summarize,
)
import pytest


def make_tracer():
    tr = Tracer()
    with tr.span("inspect", loop="L2"):
        with tr.span("localize.dereference", n_refs=100):
            pass
    with tr.span("execute", loop="L2"):
        pass
    tr.counter("localize.cache_hits", 3)
    tr.event("mark", step=1)
    return tr


def make_bus():
    bus = EventBus()
    bus.emit("guard", "verified", {"event": "verified", "loop": "L2"})
    bus.emit("adapt.fallback", "over_threshold", {"reason": "over_threshold"})
    return bus


class TestJsonlRoundTrip:
    def test_parse_back_matches_tracer(self, tmp_path):
        tr, bus = make_tracer(), make_bus()
        path = str(tmp_path / "t.jsonl")
        export_jsonl(path, tr, bus=bus, meta={"n_procs": 4})
        # every line is standalone JSON; first is the meta header
        lines = [json.loads(l) for l in open(path) if l.strip()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["format"] == "repro-obs-jsonl"
        assert lines[0]["n_procs"] == 4
        assert lines[0]["dropped_spans"] == 0

        trace = load_trace(path)
        assert [s["name"] for s in trace["spans"]] == [
            "localize.dereference",
            "inspect",
            "execute",
        ]
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["localize.dereference"]["parent"] == by_name["inspect"]["id"]
        assert by_name["inspect"]["parent"] is None
        assert by_name["localize.dereference"]["attrs"] == {"n_refs": 100}
        # exact timing round-trip (integers in, integers out)
        for rec in tr.spans:
            loaded = next(s for s in trace["spans"] if s["id"] == rec.id)
            assert loaded["t0_ns"] == rec.t0_ns
            assert loaded["dur_ns"] == rec.dur_ns
        assert trace["counters"] == {"localize.cache_hits": 3}
        kinds = {e["kind"] for e in trace["events"]}
        assert kinds == {"instant", "event"}
        bus_events = [e for e in trace["events"] if e["kind"] == "event"]
        assert {e["category"] for e in bus_events} == {"guard", "adapt.fallback"}


class TestChromeTrace:
    def test_schema_validity(self, tmp_path):
        tr, bus = make_tracer(), make_bus()
        path = str(tmp_path / "t.trace.json")
        export_chrome(path, tr, bus=bus, meta={"n_procs": 4})
        doc = json.load(open(path))
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["n_procs"] == 4
        assert doc["otherData"]["dropped_spans"] == 0
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        for ev in complete:
            # trace_event "complete" schema: name/ts/dur/pid/tid required
            assert isinstance(ev["name"], str)
            assert isinstance(ev["ts"], float) and isinstance(ev["dur"], float)
            assert ev["pid"] == 1 and ev["tid"] == 1
            assert "span_id" in ev["args"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in instants} >= {"mark", "guard:verified"}
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 3

    def test_load_trace_normalizes_both_formats_identically(self, tmp_path):
        tr, bus = make_tracer(), make_bus()
        jsonl = load_trace(export_jsonl(str(tmp_path / "a.jsonl"), tr, bus=bus))
        chrome = load_trace(export_chrome(str(tmp_path / "a.trace.json"), tr, bus=bus))
        j = {(s["name"], s["id"], s["parent"]) for s in jsonl["spans"]}
        c = {(s["name"], s["id"], s["parent"]) for s in chrome["spans"]}
        assert j == c
        assert jsonl["counters"] == chrome["counters"]
        # chrome timestamps quantize ns -> µs floats; within 1µs is exact
        for cs in chrome["spans"]:
            js = next(s for s in jsonl["spans"] if s["id"] == cs["id"])
            assert abs(cs["t0_ns"] - js["t0_ns"]) <= 1000
            assert abs(cs["dur_ns"] - js["dur_ns"]) <= 1000

    def test_export_trace_dispatch(self, tmp_path):
        tr = make_tracer()
        export_trace(str(tmp_path / "a"), tr, fmt="jsonl")
        export_trace(str(tmp_path / "b"), tr, fmt="chrome")
        with pytest.raises(ValueError, match="unknown trace format"):
            export_trace(str(tmp_path / "c"), tr, fmt="pstats")


class TestReport:
    def test_summarize_and_render(self, tmp_path):
        tr = Tracer()
        root = tr.record("inspect", t0_ns=0, dur_ns=1_000_000_000)
        tr.record("adapt.state.build_adapt_state", 0, 900_000_000, parent=root)
        tr.record("execute", t0_ns=0, dur_ns=1_000_000_000)
        tr.counter("hits", 2)
        path = export_jsonl(str(tmp_path / "t.jsonl"), tr, meta={"n_procs": 8})
        summary = summarize(load_trace(path))
        assert summary["n_spans"] == 3
        assert summary["root_total_s"] == pytest.approx(2.0)
        assert summary["phases"]["inspect"]["share"] == pytest.approx(0.5)
        assert summary["phases"]["execute"]["share"] == pytest.approx(0.5)
        # hot list ranks by SELF time: the 0.9s leaf beats the 1.0s
        # umbrella (self 0.1s) and the 1.0s execute root ties are fine
        hot_names = [name for name, _ in summary["hot"][:2]]
        assert "adapt.state.build_adapt_state" in hot_names
        text = render(summary, top=5)
        assert "per-phase host wall time" in text
        assert "adapt.state.build_adapt_state" in text
        assert "hits" in text

    @pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
    def test_self_time_counts_only_same_thread_children(self, tmp_path, fmt):
        """Strips on a worker lane run concurrently with their parent: the
        exported lanes keep the parent's self time at its own work."""
        tr = Tracer()
        compute = tr.record("executor.compute", t0_ns=0, dur_ns=1_000_000_000)
        tr.record("executor.strip", 0, 600_000_000, parent=compute)
        worker = threading.Thread(
            target=tr.record, args=("executor.strip", 0, 900_000_000), kwargs={"parent": compute}
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        path = export_trace(str(tmp_path / "t"), tr, fmt=fmt)
        spans = load_trace(path)["spans"]
        assert sorted(s["tid"] for s in spans) == [1, 1, 2]
        names = summarize(load_trace(path))["names"]
        assert names["executor.compute"]["self_s"] == pytest.approx(0.4)
        assert names["executor.strip"]["self_s"] == pytest.approx(1.5)

    def test_cli_module(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tr = make_tracer()
        path = export_jsonl(str(tmp_path / "t.jsonl"), tr)
        assert main(["report", path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-phase host wall time" in out
        assert "inspect" in out
