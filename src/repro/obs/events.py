"""Structured event bus.

One :class:`EventBus` per program (or per serve service) holds every
decision log -- guard detections, adapt fallbacks and state builds,
serve job/service lifecycle -- as a single ordered stream of
``(seq, category, name, payload)`` records.  Writers ``emit``; readers
take one category's payload dicts as a plain list
(:meth:`EventBus.payloads` -- what ``program.guard_events`` and
``adapt.fallback_log`` return); checkpoint restore swaps one category's
history wholesale (:meth:`EventBus.replace_category`).

The bus is always on -- it is bookkeeping, not tracing -- and is
independent of the :mod:`repro.obs.tracer` wall-time spans; exporters
interleave both into one artifact.
"""

from __future__ import annotations

import itertools


#: payload field that names an event, per category (default ``"event"``)
_NAME_KEY = {"adapt.fallback": "reason"}


class EventRecord:
    __slots__ = ("seq", "category", "name", "payload")

    def __init__(self, seq, category, name, payload):
        self.seq = seq
        self.category = category
        self.name = name
        self.payload = payload

    def to_dict(self) -> dict:
        return {
            "kind": "event",
            "seq": self.seq,
            "category": self.category,
            "name": self.name,
            "payload": self.payload,
        }


class EventBus:
    """Ordered, categorized structured-event stream."""

    def __init__(self):
        self._seq = itertools.count()
        self._by_category: dict[str, list[EventRecord]] = {}
        self._order: list[EventRecord] = []

    def emit(self, category: str, name: str, payload: dict) -> EventRecord:
        rec = EventRecord(next(self._seq), category, name, payload)
        self._by_category.setdefault(category, []).append(rec)
        self._order.append(rec)
        return rec

    def category(self, category: str) -> list[EventRecord]:
        return self._by_category.get(category, [])

    def all(self) -> list[EventRecord]:
        return list(self._order)

    def counts(self) -> dict[str, int]:
        return {cat: len(recs) for cat, recs in self._by_category.items() if recs}

    def payloads(self, category: str) -> list[dict]:
        """One category's payload dicts in emit order, as a fresh list."""
        return [rec.payload for rec in self._by_category.get(category, ())]

    def replace_category(self, category: str, payloads) -> None:
        """Swap one category's history for ``payloads`` (checkpoint
        restore).  Other categories keep their records and order; the
        restored events are re-emitted after them, named from the
        payload field the category's writers use."""
        dropped = set(map(id, self._by_category.pop(category, ())))
        if dropped:
            self._order = [r for r in self._order if id(r) not in dropped]
        key = _NAME_KEY.get(category, "event")
        for payload in payloads:
            self.emit(category, str(payload.get(key, category)), payload)
