"""Deterministic fault injection for the inspector/executor pipeline.

A :class:`FaultPlan` is a seeded script of faults to inject at the
runtime's three natural hook points:

* **gather wire** (``CommSchedule._move_gather``): corrupt one element
  of an exchanged chunk, drop elements (the requester's ghost slot reads
  0 instead of the owner's value), or duplicate one element over another -- the classic
  lost/garbled/replayed-message triad;
* **remap wire** (``RemapSchedule.apply``): the same triad over the
  moved-element data of an array redistribution -- full rebuilds and
  delta-patched schedules (``patch_remap_schedule``) alike;
* **patched product** (``IncrementalInspector`` post-patch): swap the
  slots of two owners of one requester in a schedule's slot order,
  breaking the slot map exactly the way out-of-sync incremental
  bookkeeping would;
* **patched remap schedule** (``patch_remap_schedule``): swap two
  destination slots of a delta-derived remap schedule, desynchronizing
  it from the repartition plan the way stale move bookkeeping would;
* **phase boundary** (``Machine.phase``): stall one processor's clock on
  phase entry or exit, modeling a straggler.

Everything is driven by an explicit seed, so a given plan injects the
same faults at the same events on every run -- recovery tests are
reproducible bit for bit.  Faults are *simulation-only*: they perturb
moved data (or, for ``stall``, one clock -- the only fault whose point
is time), never the charged communication volume, so the cost model
stays truthful about what the fault-free run would have charged.

Install with ``plan.install(machine)`` (sets ``machine.faults``); every
injected fault appends a record to ``plan.fired`` so tests can assert
the fault actually happened and was subsequently detected.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


@contextmanager
def suspended(machine):
    """Temporarily disable fault injection on ``machine``.

    Recovery paths (e.g. the executor's re-gather after a detected
    divergence) run under this so the repair itself is not re-faulted
    and the plan's event counters do not drift.
    """
    saved, machine.faults = machine.faults, None
    try:
        yield
    finally:
        machine.faults = saved


class FaultPlan:
    """A seeded, scripted set of faults to inject into one run.

    Fault registration methods return ``self`` so plans chain::

        plan = FaultPlan(seed=7).corrupt_gather(nth=0).stall("executor", proc=2)
        plan.install(machine)

    ``nth`` counts events of the hook's kind: non-empty gathers for the
    gather-wire faults, non-empty remap applications for the remap-wire
    faults, successful incremental patches for ``flip_slots``,
    delta-patched remap schedules for ``flip_remap``, and matching phase
    enters/exits for ``stall``.  Each registered fault fires exactly
    once.
    """

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.fired: list[dict] = []
        self._specs: list[dict] = []
        self._gathers = 0
        self._patches = 0
        self._remaps = 0
        self._remap_patches = 0
        self._phases: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def corrupt_gather(self, nth: int = 0) -> "FaultPlan":
        """Corrupt one element of the ``nth`` non-empty gather's wire data."""
        self._specs.append({"kind": "corrupt_gather", "nth": int(nth), "done": False})
        return self

    def drop_gather(self, nth: int = 0, count: int = 1) -> "FaultPlan":
        """Drop ``count`` elements of the ``nth`` non-empty gather: the
        requesters' ghost slots for them read 0, on every sweep alike."""
        self._specs.append(
            {"kind": "drop_gather", "nth": int(nth), "count": int(count), "done": False}
        )
        return self

    def duplicate_gather(self, nth: int = 0) -> "FaultPlan":
        """Overwrite one wire element of the ``nth`` non-empty gather with
        a neighboring element (a replayed/misrouted chunk)."""
        self._specs.append({"kind": "duplicate_gather", "nth": int(nth), "done": False})
        return self

    def flip_slots(self, nth: int = 0) -> "FaultPlan":
        """Swap the slots of two owners of one requester in the ``nth``
        patched schedule, desynchronizing it from the saved slot state."""
        self._specs.append({"kind": "flip_slots", "nth": int(nth), "done": False})
        return self

    def corrupt_remap(self, nth: int = 0) -> "FaultPlan":
        """Corrupt one moved element of the ``nth`` non-empty remap apply."""
        self._specs.append({"kind": "corrupt_remap", "nth": int(nth), "done": False})
        return self

    def drop_remap(self, nth: int = 0, count: int = 1) -> "FaultPlan":
        """Drop ``count`` moved elements of the ``nth`` non-empty remap
        apply: their destination slots keep the allocation's stale fill."""
        self._specs.append(
            {"kind": "drop_remap", "nth": int(nth), "count": int(count), "done": False}
        )
        return self

    def duplicate_remap(self, nth: int = 0) -> "FaultPlan":
        """Overwrite one moved element of the ``nth`` non-empty remap
        apply with a neighboring element (a replayed/misrouted move)."""
        self._specs.append({"kind": "duplicate_remap", "nth": int(nth), "done": False})
        return self

    def flip_remap(self, nth: int = 0) -> "FaultPlan":
        """Swap two destination slots of the ``nth`` delta-patched remap
        schedule, desynchronizing it from its repartition plan."""
        self._specs.append({"kind": "flip_remap", "nth": int(nth), "done": False})
        return self

    def stall(
        self,
        phase: str,
        proc: int = 0,
        seconds: float = 1.0,
        when: str = "enter",
        nth: int = 0,
    ) -> "FaultPlan":
        """Advance ``proc``'s clock by ``seconds`` at the ``nth``
        ``when``-boundary (``"enter"``/``"exit"``) of phases named ``phase``."""
        if when not in ("enter", "exit"):
            raise ValueError(f"when must be 'enter' or 'exit', got {when!r}")
        self._specs.append(
            {
                "kind": "stall",
                "phase": str(phase),
                "proc": int(proc),
                "seconds": float(seconds),
                "when": when,
                "nth": int(nth),
                "done": False,
            }
        )
        return self

    def install(self, machine) -> "FaultPlan":
        """Attach this plan to ``machine`` (its hooks start firing)."""
        machine.faults = self
        return self

    # ------------------------------------------------------------------
    # hooks (called by the runtime; not part of the public API)
    # ------------------------------------------------------------------
    def _perturb_wire(self, wire: np.ndarray, event: int, suffix: str, label: str):
        """Shared corrupt/drop/duplicate logic for one wire movement.

        ``suffix`` selects the spec family (``"gather"``/``"remap"``),
        ``label`` names the event-counter field in ``fired`` records.
        Returns ``(wire, keep_mask)``; ``keep_mask`` is ``None`` unless
        elements were dropped."""
        keep = None
        for spec in self._specs:
            if spec["done"] or spec["nth"] != event:
                continue
            kind = spec["kind"]
            if kind == f"corrupt_{suffix}":
                wire = wire.copy()
                i = int(self.rng.integers(wire.size))
                wire[i] += 1
                spec["done"] = True
                self.fired.append({"kind": kind, label: event, "element": i})
            elif kind == f"drop_{suffix}":
                k = min(spec["count"], wire.size)
                drop = self.rng.choice(wire.size, size=k, replace=False)
                keep = np.ones(wire.size, dtype=bool)
                keep[drop] = False
                spec["done"] = True
                self.fired.append(
                    {"kind": kind, label: event, "elements": sorted(int(d) for d in drop)}
                )
            elif kind == f"duplicate_{suffix}":
                if wire.size < 2:
                    continue
                wire = wire.copy()
                i = int(self.rng.integers(wire.size))
                j = (i + 1) % wire.size
                wire[j] = wire[i]
                spec["done"] = True
                self.fired.append({"kind": kind, label: event, "element": j})
        return wire, keep

    def on_gather_wire(self, wire: np.ndarray):
        """Perturb one gather's wire data.  Returns ``(wire, keep_mask)``;
        ``keep_mask`` is ``None`` unless elements were dropped."""
        if not wire.size:
            return wire, None
        event = self._gathers
        self._gathers += 1
        return self._perturb_wire(wire, event, "gather", "gather")

    def on_remap_wire(self, wire: np.ndarray):
        """Perturb the moved-element data of one remap application.
        Returns ``(wire, keep_mask)`` like :meth:`on_gather_wire`; the
        charged message volume is untouched either way."""
        if not wire.size:
            return wire, None
        event = self._remaps
        self._remaps += 1
        return self._perturb_wire(wire, event, "remap", "remap")

    def on_patched_remap(self, sched) -> bool:
        """Possibly swap two destination slots of a freshly delta-patched
        remap schedule.  Returns True when a fault was injected."""
        event = self._remap_patches
        self._remap_patches += 1
        hit = False
        for spec in self._specs:
            if spec["done"] or spec["kind"] != "flip_remap" or spec["nth"] != event:
                continue
            if sched._dst_pos.size < 2:
                continue
            i = int(self.rng.integers(sched._dst_pos.size - 1))
            dst = sched._dst_pos.copy()
            dst[i], dst[i + 1] = dst[i + 1], dst[i]
            sched._dst_pos = dst
            spec["done"] = True
            hit = True
            self.fired.append(
                {"kind": "flip_remap", "remap_patch": event, "slot": i}
            )
        return hit

    def on_patched_product(self, product) -> bool:
        """Possibly desynchronize one schedule of a freshly patched
        product.  Returns True when a fault was injected."""
        event = self._patches
        self._patches += 1
        hit = False
        for spec in self._specs:
            if spec["done"] or spec["kind"] != "flip_slots" or spec["nth"] != event:
                continue
            for pat in product.patterns.values():
                if self._flip_schedule(pat.localized.schedule):
                    spec["done"] = True
                    hit = True
                    self.fired.append(
                        {"kind": "flip_slots", "patch": event, "array": pat.array}
                    )
                    break
        return hit

    @staticmethod
    def _flip_schedule(sched) -> bool:
        """Swap two slot-order entries of the first requester with two or
        more pairs, one from each of its first two pairs (two owners):
        each element then names the other owner's slot."""
        pp = sched._pair_p
        k = np.flatnonzero(pp[1:] == pp[:-1])
        if not k.size:
            return False
        a = int(sched._pair_len[: k[0]].sum())
        b = a + int(sched._pair_len[k[0]])
        order = sched._unpack_pos.copy()
        order[a], order[b] = order[b], order[a]
        order.flags.writeable = False
        sched._unpack_pos, sched._pack_pos = order, None
        return True

    def on_phase(self, machine, name: str, when: str) -> None:
        """Stall scripted processors at a phase boundary."""
        key = (name, when)
        event = self._phases.get(key, 0)
        self._phases[key] = event + 1
        for spec in self._specs:
            if (
                spec["done"]
                or spec["kind"] != "stall"
                or spec["phase"] != name
                or spec["when"] != when
                or spec["nth"] != event
            ):
                continue
            machine.counters.clock[spec["proc"]] += spec["seconds"]
            spec["done"] = True
            self.fired.append(
                {
                    "kind": "stall",
                    "phase": name,
                    "when": when,
                    "proc": spec["proc"],
                    "seconds": spec["seconds"],
                }
            )

    def pending(self) -> list[dict]:
        """Registered faults that have not fired yet."""
        return [dict(s) for s in self._specs if not s["done"]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(registered={len(self._specs)}, fired={len(self.fired)})"
        )
