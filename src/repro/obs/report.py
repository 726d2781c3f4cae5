"""Render a trace file as a per-phase table + top-N hot spans.

``python -m repro.obs report <trace> [--top N]`` loads a JSONL or
Chrome trace (auto-detected) and prints:

* a **per-phase** host wall-time table -- root spans (no parent)
  grouped by name, with each phase's share of total root time;
* the **top-N hot spans** ranked by *self* time (duration minus direct
  children on the same thread), so leaf work like ``executor.strip``
  ranks above the umbrella spans that merely contain it;
* **per-layer self time** -- the same self times grouped by the
  ``src/repro/<module>`` layer that owns each span name
  (:data:`LAYER_PREFIXES`), so "which layer burned this second" reads
  off one table;
* counter values and the dropped-span count, when present.
"""

from __future__ import annotations

from .export import load_trace

#: span-name prefix -> owning layer (``src/repro/<module>``); the first
#: match wins, anything else is reported under ``"other"``
LAYER_PREFIXES = (
    ("machine.", "machine"),
    ("localize.", "chaos"),
    ("partitioners.", "partitioners"),
    ("inspector.", "core"),
    ("executor.", "core"),
    ("inspect", "core"),
    ("execute", "core"),
    ("redistribute", "core"),
    ("distribution.", "distribution"),
    ("remap.", "chaos"),
    ("adapt.", "adapt"),
    ("guard.", "guard"),
    ("serve.", "serve"),
)


def layer_of(span_name: str) -> str:
    """The layer a span name is booked under (see :data:`LAYER_PREFIXES`)."""
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return "other"


def summarize(trace: dict) -> dict:
    """Aggregate a loaded trace into phase and hot-span tables."""
    spans = trace["spans"]
    # self time subtracts direct children on the parent's own thread
    # (see repro.obs.metrics.aggregate_spans)
    lane = {rec.get("id"): rec.get("tid") for rec in spans}
    child_ns: dict = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None and lane.get(parent) == rec.get("tid"):
            child_ns[parent] = child_ns.get(parent, 0) + rec["dur_ns"]

    phases: dict[str, dict] = {}
    names: dict[str, dict] = {}
    for rec in spans:
        dur_s = rec["dur_ns"] * 1e-9
        self_s = (rec["dur_ns"] - child_ns.get(rec.get("id"), 0)) * 1e-9
        entry = names.setdefault(
            rec["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += dur_s
        entry["self_s"] += self_s
        if dur_s > entry["max_s"]:
            entry["max_s"] = dur_s
        if rec.get("parent") is None:
            ph = phases.setdefault(rec["name"], {"count": 0, "total_s": 0.0})
            ph["count"] += 1
            ph["total_s"] += dur_s

    root_total = sum(ph["total_s"] for ph in phases.values())
    for ph in phases.values():
        ph["share"] = ph["total_s"] / root_total if root_total else 0.0
    hot = sorted(names.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    layers: dict[str, dict] = {}
    for name, entry in names.items():
        layer = layers.setdefault(layer_of(name), {"count": 0, "self_s": 0.0})
        layer["count"] += entry["count"]
        layer["self_s"] += entry["self_s"]
    return {
        "phases": phases,
        "names": names,
        "hot": hot,
        "layers": layers,
        "root_total_s": root_total,
        "counters": trace.get("counters", {}),
        "n_spans": len(spans),
        "n_events": len(trace.get("events", [])),
        "dropped": trace.get("meta", {}).get("dropped_spans", 0),
    }


def render(summary: dict, top: int = 10) -> str:
    lines = []
    lines.append(
        f"{summary['n_spans']} spans, {summary['n_events']} events, "
        f"{summary['dropped']} dropped"
    )
    lines.append("")
    lines.append("per-phase host wall time (root spans):")
    lines.append(f"  {'phase':<32} {'count':>7} {'total_s':>10} {'share':>7}")
    for name, ph in sorted(
        summary["phases"].items(), key=lambda kv: kv[1]["total_s"], reverse=True
    ):
        lines.append(
            f"  {name:<32} {ph['count']:>7} {ph['total_s']:>10.4f} "
            f"{100 * ph['share']:>6.1f}%"
        )
    lines.append(f"  {'(total)':<32} {'':>7} {summary['root_total_s']:>10.4f}")
    lines.append("")
    lines.append(f"top {top} hot spans (by self time):")
    lines.append(
        f"  {'span':<36} {'count':>7} {'self_s':>10} {'total_s':>10} {'max_s':>9}"
    )
    for name, entry in summary["hot"][:top]:
        lines.append(
            f"  {name:<36} {entry['count']:>7} {entry['self_s']:>10.4f} "
            f"{entry['total_s']:>10.4f} {entry['max_s']:>9.4f}"
        )
    lines.append("")
    lines.append("per-layer self time:")
    lines.append(f"  {'layer':<36} {'spans':>7} {'self_s':>10}")
    for layer, entry in sorted(
        summary["layers"].items(), key=lambda kv: kv[1]["self_s"], reverse=True
    ):
        lines.append(f"  {layer:<36} {entry['count']:>7} {entry['self_s']:>10.4f}")
    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(summary["counters"].items()):
            lines.append(f"  {name:<36} {value}")
    return "\n".join(lines)


def report(path: str, top: int = 10) -> str:
    return render(summarize(load_trace(path)), top=top)
