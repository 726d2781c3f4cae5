"""MetricsSnapshot: host wall-time + simulated machine numbers, unified.

One snapshot answers "where did *host* time go vs. *simulated* time"
for a single program/machine pair:

* **host side** -- per-span-name aggregates (count, total seconds, max
  seconds, self seconds) from the tracer buffer, the tracer's named
  counters, and the drop count;
* **simulated side** -- the machine's phase table (summed
  :class:`~repro.machine.stats.PhaseRecord` elapsed per name), total
  elapsed, and the headline CounterBlock sums (messages/bytes/flops);
* **events** -- per-category counts from the structured event bus;
* **cache** -- ``TranslationCache.stats()`` when a cache is attached.

Everything is plain dict/float data (``to_dict()`` is JSON-ready), so
benches embed snapshots directly in their reports.
"""

from __future__ import annotations


def aggregate_spans(spans) -> dict[str, dict]:
    """Per-name aggregates over span records.

    ``self_s`` is duration minus the duration of direct children on the
    parent's own thread -- the number that makes leaf hot spots visible
    under umbrella spans.  A child on another thread ran concurrently
    with its parent, so it is not subtracted and self times stay >= 0.
    """
    lane = {rec.id: rec.tid for rec in spans}
    child_ns: dict[int, int] = {}
    for rec in spans:
        if rec.parent is not None and lane.get(rec.parent) == rec.tid:
            child_ns[rec.parent] = child_ns.get(rec.parent, 0) + rec.dur_ns
    agg: dict[str, dict] = {}
    for rec in spans:
        entry = agg.setdefault(
            rec.name, {"count": 0, "total_s": 0.0, "max_s": 0.0, "self_s": 0.0}
        )
        dur_s = rec.dur_ns * 1e-9
        entry["count"] += 1
        entry["total_s"] += dur_s
        if dur_s > entry["max_s"]:
            entry["max_s"] = dur_s
        entry["self_s"] += (rec.dur_ns - child_ns.get(rec.id, 0)) * 1e-9
    return agg


class MetricsSnapshot:
    """Point-in-time unified metrics for one program run."""

    def __init__(
        self,
        *,
        host_spans: dict[str, dict],
        host_counters: dict[str, int],
        dropped_spans: int,
        simulated_phases: dict[str, float],
        simulated_total: float,
        simulated_counters: dict[str, float],
        event_counts: dict[str, int],
        cache: dict | None = None,
    ):
        self.host_spans = host_spans
        self.host_counters = host_counters
        self.dropped_spans = dropped_spans
        self.simulated_phases = simulated_phases
        self.simulated_total = simulated_total
        self.simulated_counters = simulated_counters
        self.event_counts = event_counts
        self.cache = cache

    @classmethod
    def collect(cls, machine, *, bus=None, cache=None) -> "MetricsSnapshot":
        """Snapshot a machine (+ optional event bus / translation cache)."""
        tracer = machine.obs
        phases: dict[str, float] = {}
        for rec in machine.stats.phases:
            phases[rec.name] = phases.get(rec.name, 0.0) + rec.elapsed
        counters = machine.counters
        return cls(
            host_spans=aggregate_spans(tracer.spans),
            host_counters=dict(tracer.counters),
            dropped_spans=tracer.dropped,
            simulated_phases=phases,
            simulated_total=float(machine.elapsed()),
            simulated_counters={
                "messages": int(counters.messages_sent.sum()),
                "bytes": int(counters.bytes_sent.sum()),
                "flops": float(counters.flops.sum()),
            },
            event_counts=bus.counts() if bus is not None else {},
            cache=cache.stats() if cache is not None else None,
        )

    def to_dict(self) -> dict:
        out = {
            "host_spans": self.host_spans,
            "host_counters": self.host_counters,
            "dropped_spans": self.dropped_spans,
            "simulated_phases": self.simulated_phases,
            "simulated_total": self.simulated_total,
            "simulated_counters": self.simulated_counters,
            "event_counts": self.event_counts,
        }
        if self.cache is not None:
            out["cache"] = self.cache
        return out
