"""Span tracer: bounded in-process buffer of host wall-time spans.

Two implementations share one duck-typed interface:

* :class:`Tracer` -- the real thing.  ``span(name, **attrs)`` returns a
  re-entrant context manager that stamps ``time.perf_counter_ns()`` on
  enter/exit and appends one :class:`SpanRecord` to a bounded buffer on
  exit.  Parent linkage comes from a span stack per thread, so nesting
  falls out of ``with`` scoping and spans opened concurrently on other
  threads (the executor's compute strips, kernels they call) never
  see each other's open spans.  Every record carries its thread's
  *lane* (``tid``: 1, 2, ... in the order threads first used the
  tracer), exported as the Chrome trace ``tid``.  ``counter(name, n)``
  bumps a named integer; ``event(name, **attrs)`` records an instant;
  ``record(...)`` appends a span retroactively from timestamps measured
  elsewhere (used by the serve supervisor, whose job spans bracket
  another process's work, and by the executor's compute strips).
* :class:`NullTracer` -- the no-op.  Every method body is a constant
  return; ``span()`` hands back one shared, stateless context manager.
  This is what every :class:`~repro.machine.machine.Machine` carries by
  default (``machine.obs``), so instrumented code pays one attribute
  load + one no-op call when tracing is off.

The buffer is bounded (``max_spans``); past the cap new spans are
counted in ``dropped`` instead of stored, so a long campaign cannot
grow host memory without bound.  Nothing in this module imports the
rest of ``repro`` -- the machine layer imports *it*.
"""

from __future__ import annotations

import itertools
import threading
import time


class SpanRecord:
    """One closed span: identity, timing, and free-form attributes."""

    __slots__ = ("id", "parent", "name", "t0_ns", "dur_ns", "attrs", "tid")

    def __init__(self, id, parent, name, t0_ns, dur_ns, attrs, tid):
        self.id = id
        self.parent = parent
        self.name = name
        self.t0_ns = t0_ns
        self.dur_ns = dur_ns
        self.attrs = attrs
        self.tid = tid

    def to_dict(self) -> dict:
        rec = {
            "kind": "span",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "t0_ns": self.t0_ns,
            "dur_ns": self.dur_ns,
            "tid": self.tid,
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec


class _SpanCtx:
    """Live (open) span; becomes a :class:`SpanRecord` on ``__exit__``."""

    __slots__ = ("tracer", "id", "parent", "name", "t0_ns", "attrs")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = None
        self.parent = None
        self.t0_ns = 0

    def set(self, **attrs):
        """Attach attributes discovered mid-span (e.g. result sizes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        tracer = self.tracer
        self.id = next(tracer._ids)
        stack = tracer._thread().stack
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.t0_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter_ns() - self.t0_ns
        tracer = self.tracer
        thread = tracer._thread()
        thread.stack.pop()
        if len(tracer.spans) < tracer.max_spans:
            tracer.spans.append(
                SpanRecord(
                    self.id, self.parent, self.name, self.t0_ns, dur, self.attrs,
                    thread.lane,
                )
            )
        else:
            tracer.dropped += 1
        return False


class _NullSpan:
    """Shared do-nothing context manager handed out by NullTracer."""

    __slots__ = ()

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the default ``machine.obs`` when tracing is off.

    Stateless and shared (:data:`NULL_TRACER`); ``enabled`` is False so
    call sites can skip attribute-dict construction entirely on hot
    paths (``if machine.obs.enabled: ...``).
    """

    __slots__ = ()

    enabled = False
    dropped = 0
    spans = ()
    counters = {}
    events = ()

    def span(self, name, **attrs):
        return _NULL_SPAN

    def counter(self, name, n=1):
        return None

    def event(self, name, **attrs):
        return None

    def record(self, name, t0_ns, dur_ns, parent=None, **attrs):
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collecting tracer: bounded span buffer + counters + instants."""

    __slots__ = (
        "max_spans", "spans", "events", "counters", "dropped", "_ids", "_local", "_lanes",
    )

    enabled = True

    def __init__(self, max_spans: int = 1_000_000):
        self.max_spans = max_spans
        self.spans: list[SpanRecord] = []
        self.events: list[dict] = []
        self.counters: dict[str, int] = {}
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lanes = itertools.count(1)

    def _thread(self):
        """This thread's span stack and lane, made on its first use."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.lane = next(self._lanes)
        return local

    def span(self, name, **attrs):
        return _SpanCtx(self, name, attrs)

    def counter(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def event(self, name, **attrs):
        """Record an instant (zero-duration point in time)."""
        if len(self.events) < self.max_spans:
            rec = {"kind": "instant", "name": name, "t_ns": time.perf_counter_ns()}
            if attrs:
                rec["attrs"] = attrs
            self.events.append(rec)
        else:
            self.dropped += 1

    def record(self, name, t0_ns, dur_ns, parent=None, **attrs):
        """Append a span retroactively from externally measured times.

        Used where the bracketing happens outside a ``with`` block --
        e.g. the serve supervisor closing a job span from worker
        timestamps.  Returns the span id (for use as a later parent).
        """
        sid = next(self._ids)
        if len(self.spans) < self.max_spans:
            self.spans.append(
                SpanRecord(sid, parent, name, t0_ns, dur_ns, attrs, self._thread().lane)
            )
        else:
            self.dropped += 1
        return sid

    def clear(self):
        self.spans.clear()
        self.events.clear()
        self.counters.clear()
        self.dropped = 0
        self._local = threading.local()
        self._lanes = itertools.count(1)
