"""Boundary spans recorded from benchmark code only.

``ENTRY_POINTS`` is the fixed table mapping each layer's public entry
points (layer = ``src/repro/<module>``) to the per-layer metric its
*self time* is booked under.  :func:`installed` wraps every entry in a
timing span for the duration of a ``with`` block -- rebinding the class
attribute, or every ``repro.*`` module global that ``is`` the original
function (the runtime uses ``from x import f``, so patching only the
defining module would miss most call sites) -- and restores all of them
afterwards.  Nothing under ``src/`` is edited and ``machine.obs`` is
never touched: program-internal seams stay dark, the spans land in a
benchmark-owned :class:`repro.obs.Tracer` whose span stack supplies the
parent links.

Self time of a span = its duration minus the durations of its direct
children (:func:`repro.obs.aggregate_spans`), so the self times of all
spans under one root sum exactly to the root's duration; what the root
and its step spans keep themselves is ``bench.unattributed_self_ms``
(benchmark glue plus runtime code behind no wrapped entry point, e.g.
array declaration).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import sys

from repro.obs import aggregate_spans

#: span name of one traced rep (the root every other span nests under)
ROOT_SPAN = "bench.rep"
#: span name of one step of a rep (attribute ``k``; step 0 is declare +
#: layout + cold inspection + first sweep), a direct child of the root
STEP_SPAN = "bench.step"
#: span name of the wrapped ``Reduce.func`` kernels (wrapped where the
#: benchmark builds the loop, not through ``ENTRY_POINTS``)
KERNEL_SPAN = "workloads.kernel"

#: (module, owner class or None, attribute, metric the self time books to)
ENTRY_POINTS = (
    ("repro.machine.machine", "Machine", "exchange", "machine.exchange_self_ms"),
    ("repro.distribution.base", "Distribution", "translate", "distribution.translate_self_ms"),
    ("repro.distribution.irregular", None, "repartition_stable", "distribution.repartition_self_ms"),
    ("repro.core.mapper", None, "partition_geocol", "partitioners.partition_self_ms"),
    ("repro.chaos.ttable", None, "build_translation_table", "chaos.ttable_self_ms"),
    ("repro.chaos.ttable", "Translator", "dereference_flat", "chaos.ttable_self_ms"),
    ("repro.chaos.localize", None, "localize", "chaos.localize_self_ms"),
    ("repro.chaos.schedule", "CommSchedule", "gather", "chaos.gather_scatter_self_ms"),
    ("repro.chaos.schedule", "CommSchedule", "scatter", "chaos.gather_scatter_self_ms"),
    ("repro.chaos.schedule", "CommSchedule", "scatter_op", "chaos.gather_scatter_self_ms"),
    ("repro.chaos.merge", None, "gather_merged", "chaos.gather_scatter_self_ms"),
    ("repro.chaos.merge", None, "scatter_op_merged", "chaos.gather_scatter_self_ms"),
    ("repro.chaos.remap", None, "remap_arrays", "chaos.remap_self_ms"),
    ("repro.chaos.remap", None, "remap_arrays_incremental", "chaos.remap_self_ms"),
    ("repro.chaos.remap", None, "build_remap_schedule", "chaos.remap_self_ms"),
    ("repro.chaos.remap", None, "patch_remap_schedule", "chaos.remap_self_ms"),
    ("repro.core.geocol", None, "construct_geocol", "core.geocol_self_ms"),
    ("repro.core.inspector", None, "run_inspector", "core.inspector_self_ms"),
    ("repro.core.iteration", None, "partition_iterations", "core.iteration_self_ms"),
    ("repro.core.executor", None, "run_executor", "core.executor_self_ms"),
    ("repro.core.program", "IrregularProgram", "forall", "core.forall_self_ms"),
    ("repro.core.program", "IrregularProgram", "set_array_elements", "core.write_tracking_self_ms"),
    ("repro.core.program", "IrregularProgram", "redistribute", "core.redistribute_self_ms"),
    ("repro.adapt.state", None, "build_adapt_state", "adapt.state_build_self_ms"),
    ("repro.adapt.driver", "IncrementalInspector", "attempt", "adapt.attempt_self_ms"),
    ("repro.adapt.patch", None, "patch_product", "adapt.patch_self_ms"),
    ("repro.guard.invariants", None, "verify_product", "guard.verify_self_ms"),
    ("repro.guard.checkpoint", None, "save_checkpoint", "guard.checkpoint_save_ms"),
    ("repro.lang.parser", None, "parse", "lang.compile_ms"),
    ("repro.lang.analysis", None, "analyze", "lang.compile_ms"),
    ("repro.lang.lower", None, "lower_forall", "lang.compile_ms"),
)


def span_name(module: str, owner: str | None, attr: str) -> str:
    return ".".join(p for p in (module.removeprefix("repro."), owner, attr) if p)


#: span name -> metric, for every span the benchmark records
SPAN_METRICS = {
    **{span_name(m, o, a): metric for m, o, a, metric in ENTRY_POINTS},
    KERNEL_SPAN: "workloads.kernel_self_ms",
    ROOT_SPAN: "bench.unattributed_self_ms",
    STEP_SPAN: "bench.unattributed_self_ms",
}


def timed(fn, name: str, tracer):
    """``fn`` wrapped in one ``tracer`` span per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _namespaces() -> list:
    """Everywhere the runtime can look an entry point up: the owner
    classes and every loaded ``repro`` module."""
    owners = {
        getattr(importlib.import_module(module), owner)
        for module, owner, _attr, _metric in ENTRY_POINTS
        if owner is not None
    }
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
    return [*owners, *modules]


def _rebind(pairs: list[tuple]) -> list[tuple]:
    """Rebind every attribute that ``is`` the first object of a pair to
    the second; returns the ``(namespace, attribute, old)`` triples."""
    replacement = {id(old): new for old, new in pairs}
    touched = []
    for namespace in _namespaces():
        for key, value in list(vars(namespace).items()):
            if id(value) in replacement:
                setattr(namespace, key, replacement[id(value)])
                touched.append((namespace, key, value))
    return touched


@contextlib.contextmanager
def installed(tracer):
    """Wrap every entry point in a ``tracer`` span for the ``with`` body.

    Yields the ``(namespace, attribute, original)`` triples that were
    rebound.  On exit every binding of a wrapper -- including one a
    module imported mid-block picked up -- is restored to the identical
    original object.
    """
    pairs = []
    for module, owner, attr, _metric in ENTRY_POINTS:
        mod = importlib.import_module(module)
        original = vars(getattr(mod, owner))[attr] if owner else getattr(mod, attr)
        pairs.append((original, timed(original, span_name(module, owner, attr), tracer)))
    try:
        yield _rebind(pairs)
    finally:
        _rebind([(wrapper, original) for original, wrapper in pairs])


def layer_self_ms(spans) -> dict[str, float]:
    """Self milliseconds per metric over one rep's span records; every
    metric of the table is present (0.0 when its entry points never ran)."""
    out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for name, agg in aggregate_spans(spans).items():
        out[SPAN_METRICS[name]] += agg["self_s"] * 1e3
    return out


def span_counts(spans) -> dict[str, int]:
    return dict(collections.Counter(rec.name for rec in spans))
