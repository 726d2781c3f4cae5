"""Trace exporters: JSONL and Chrome/Perfetto ``trace_event`` JSON.

Two on-disk formats, one logical content (spans + instants + counters +
structured events + a metadata header):

* **JSONL** (``fmt="jsonl"``) -- one JSON object per line.  First line
  is ``{"kind": "meta", ...}``; span lines carry ``id``/``parent`` so
  nesting reconstructs exactly.  The round-trippable format -- see
  :func:`load_trace`.
* **Chrome trace** (``fmt="chrome"``) -- a single JSON object with a
  ``traceEvents`` array of complete (``"ph": "X"``) events, instants
  (``"ph": "i"``) and counter samples (``"ph": "C"``), timestamps in
  microseconds.  A span's ``tid`` is its thread's lane (1 for the
  first thread that used the tracer), so concurrent spans land on
  separate tracks; bus events sit on ``tid`` 0.  Load it in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` for a flame view.

:func:`load_trace` auto-detects the format and normalizes both back to
``{"meta", "spans", "events", "counters"}`` for the report CLI and the
round-trip tests.
"""

from __future__ import annotations

import json


def export_jsonl(path, tracer, *, bus=None, meta=None) -> str:
    """Write the tracer buffer (+ bus events) as JSONL; returns path."""
    with open(path, "w") as fh:
        header = {"kind": "meta", "format": "repro-obs-jsonl", "version": 1}
        if meta:
            header.update(meta)
        header["dropped_spans"] = tracer.dropped
        fh.write(json.dumps(header) + "\n")
        for rec in tracer.spans:
            fh.write(json.dumps(rec.to_dict()) + "\n")
        for ev in tracer.events:
            fh.write(json.dumps(ev) + "\n")
        if bus is not None:
            for rec in bus.all():
                fh.write(json.dumps(rec.to_dict(), default=str) + "\n")
        for name, value in tracer.counters.items():
            fh.write(json.dumps({"kind": "counter", "name": name, "value": value}) + "\n")
    return path


def export_chrome(path, tracer, *, bus=None, meta=None) -> str:
    """Write a Chrome/Perfetto ``trace_event`` JSON file; returns path."""
    events = []
    pid = 1
    for rec in tracer.spans:
        args = dict(rec.attrs) if rec.attrs else {}
        args["span_id"] = rec.id
        if rec.parent is not None:
            args["parent_id"] = rec.parent
        events.append(
            {
                "name": rec.name,
                "ph": "X",
                "ts": rec.t0_ns / 1000.0,
                "dur": rec.dur_ns / 1000.0,
                "pid": pid,
                "tid": rec.tid,
                "cat": "host",
                "args": args,
            }
        )
    for ev in tracer.events:
        events.append(
            {
                "name": ev["name"],
                "ph": "i",
                "ts": ev["t_ns"] / 1000.0,
                "pid": pid,
                "tid": 1,
                "cat": "host",
                "s": "t",
                "args": ev.get("attrs", {}),
            }
        )
    if bus is not None:
        for rec in bus.all():
            events.append(
                {
                    "name": f"{rec.category}:{rec.name}",
                    "ph": "i",
                    "ts": 0.0,
                    "pid": pid,
                    "tid": 0,  # span lanes are 1, 2, ... (one per thread)
                    "cat": "event",
                    "s": "t",
                    "args": {"seq": rec.seq, **{k: str(v) for k, v in rec.payload.items()}},
                }
            )
    for name, value in tracer.counters.items():
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": 0.0,
                "pid": pid,
                "tid": 1,
                "cat": "counter",
                "args": {"value": value},
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}, dropped_spans=tracer.dropped),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def export_trace(path, tracer, *, bus=None, meta=None, fmt="jsonl") -> str:
    if fmt == "jsonl":
        return export_jsonl(path, tracer, bus=bus, meta=meta)
    if fmt == "chrome":
        return export_chrome(path, tracer, bus=bus, meta=meta)
    raise ValueError(f"unknown trace format {fmt!r}; choose jsonl | chrome")


def load_trace(path) -> dict:
    """Load either export format back into one normalized dict.

    Returns ``{"meta": dict, "spans": [dict], "events": [dict],
    "counters": {name: value}}`` with span dicts carrying
    ``id/parent/name/t0_ns/dur_ns/attrs``.
    """
    with open(path) as fh:
        first = fh.read(1)
        fh.seek(0)
        if first == "{" and _is_chrome(path):
            return _load_chrome(fh)
        return _load_jsonl(fh)


def _is_chrome(path) -> bool:
    with open(path) as fh:
        head = fh.read(4096)
    try:
        json.loads(head)
        # whole file fit in the head and parsed: decide by key
        return "traceEvents" in json.loads(head)
    except json.JSONDecodeError:
        return '"traceEvents"' in head


def _load_jsonl(fh) -> dict:
    meta, spans, events, counters = {}, [], [], {}
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.get("kind")
        if kind == "meta":
            meta = rec
        elif kind == "span":
            rec.setdefault("attrs", {})
            spans.append(rec)
        elif kind in ("instant", "event"):
            events.append(rec)
        elif kind == "counter":
            counters[rec["name"]] = rec["value"]
    return {"meta": meta, "spans": spans, "events": events, "counters": counters}


def _load_chrome(fh) -> dict:
    doc = json.load(fh)
    meta = dict(doc.get("otherData", {}))
    meta["kind"] = "meta"
    spans, events, counters = [], [], {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "X":
            args = dict(ev.get("args", {}))
            sid = args.pop("span_id", None)
            parent = args.pop("parent_id", None)
            spans.append(
                {
                    "kind": "span",
                    "id": sid,
                    "parent": parent,
                    "name": ev["name"],
                    "t0_ns": int(ev["ts"] * 1000),
                    "dur_ns": int(ev.get("dur", 0) * 1000),
                    "tid": ev.get("tid"),
                    "attrs": args,
                }
            )
        elif ph == "i":
            events.append(
                {"kind": "instant", "name": ev["name"], "attrs": ev.get("args", {})}
            )
        elif ph == "C":
            counters[ev["name"]] = ev.get("args", {}).get("value")
    return {"meta": meta, "spans": spans, "events": events, "counters": counters}
