"""repro.obs -- unified tracing, metrics, and profiling.

The paper's whole argument is phase-level accounting (inspector vs.
executor vs. remap, reuse savings); this package gives the *host* side
the same first-class treatment the simulated machine has always had.

Layout
------
* :mod:`~repro.obs.tracer` -- ``Tracer`` / ``NullTracer``: span context
  managers over ``perf_counter_ns``, named counters, instants, a
  bounded buffer.  Dependency-free; the machine layer imports it.
* :mod:`~repro.obs.events` -- ``EventBus``: the one structured-event
  stream; ``program.guard_events``, ``adapt.fallback_log`` and serve
  job/service events are plain payload lists read from its categories.
* :mod:`~repro.obs.metrics` -- ``MetricsSnapshot``: host span
  aggregates + simulated phase/counter numbers + event counts + cache
  stats in one JSON-ready object.
* :mod:`~repro.obs.export` / :mod:`~repro.obs.report` -- JSONL and
  Chrome/Perfetto ``trace_event`` exporters, ``load_trace``
  round-tripping, and the ``python -m repro.obs report`` renderer.

Enabling
--------
Tracing is off by default.  Turn it on per program
(``IrregularProgram(..., obs="on")``), per service
(``SimulationService(obs="on")``), or globally via ``REPRO_OBS=on``.
The tracer lives on the machine (``machine.obs``), so every layer that
holds a machine reference is instrumented without signature churn.

Overhead contract
-----------------
* **off**: ``machine.obs`` is the shared stateless ``NULL_TRACER``;
  each instrumented seam costs one attribute load and one no-op call
  (guarded by ``obs.enabled`` on per-statement hot paths).  Measured
  wall overhead must stay unmeasurable (<2%).
* **on**: spans go into a bounded buffer (default 1M records; overflow
  increments ``dropped``, never grows memory).  CI's overhead smoke
  requires P=64 simspeed with obs on to stay within 10% wall of off.
* **always**: tracing never touches the simulated machine.  No span,
  counter, or event may charge a clock or counter -- simulated numbers
  are bit-identical with obs on and off, gated by tests
  (P=256 ``simulated_total`` 15.573867588571373) and by the
  ``check_regression.py`` exact-match contract.
"""

from .events import EventBus
from .export import export_chrome, export_jsonl, export_trace, load_trace
from .metrics import MetricsSnapshot, aggregate_spans
from .report import render, report, summarize
from .tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "EventBus",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "aggregate_spans",
    "export_chrome",
    "export_jsonl",
    "export_trace",
    "load_trace",
    "render",
    "report",
    "summarize",
]
