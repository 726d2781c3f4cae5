"""Optional message tracing for the simulated machine.

``MessageTrace`` hooks a machine's ``send``/``charge_exchange`` and
records every point-to-point message; tests use it to assert on
communication *patterns* (who talks to whom, symmetry of request/reply
protocols) and the benches can render a processor-pair traffic matrix.
``charge_exchange`` is the one place every exchange is charged -- a
one-shot ``exchange``, a replayed charge tape or a schedule-held plan --
and the :class:`~repro.machine.machine.ExchangeCharge` it receives
carries the traffic it was planned from.

Messages are recorded as array chunks (one ``(src, dst, nbytes)`` array
triple per traced call), mirroring the machine's struct-of-arrays
counter block: an ``exchange`` of 100k message pairs costs one masked
array append, not 100k Python-object appends.  The ``events`` list of
:class:`MessageEvent` objects is materialized lazily for callers that
want per-message records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.machine import Machine


@dataclass(frozen=True)
class MessageEvent:
    src: int
    dst: int
    nbytes: int


class MessageTrace:
    """Records every message on a machine while attached.

    Usage::

        with MessageTrace(machine) as trace:
            ... run runtime operations ...
        matrix = trace.traffic_matrix()
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        #: list of (src, dst, nbytes) int64 array triples, one per traced
        #: call, already filtered to real messages (src != dst, nbytes > 0)
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._events_cache: list[MessageEvent] | None = []
        self._orig_send = None
        self._orig_charge_exchange = None

    def _record(self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray) -> None:
        live = (src != dst) & (nbytes > 0)
        if not live.all():
            src, dst, nbytes = src[live], dst[live], nbytes[live]
        else:
            # defensive copies: callers may reuse their buffers
            src, dst, nbytes = src.copy(), dst.copy(), nbytes.copy()
        if src.size:
            self._chunks.append((src, dst, nbytes))
            self._events_cache = None

    # -- context management -------------------------------------------------
    def __enter__(self) -> "MessageTrace":
        if self._orig_send is not None:
            raise RuntimeError("trace already attached")
        self._orig_send = self.machine.send
        self._orig_charge_exchange = self.machine.charge_exchange

        def send(src, dst, nbytes):
            result = self._orig_send(src, dst, nbytes)
            self._record(
                np.array([src], dtype=np.int64),
                np.array([dst], dtype=np.int64),
                np.array([nbytes], dtype=np.int64),
            )
            return result

        def charge_exchange(charge, **kw):
            self._record(charge.src, charge.dst, charge.nbytes)
            return self._orig_charge_exchange(charge, **kw)

        self.machine.send = send
        self.machine.charge_exchange = charge_exchange
        return self

    def __exit__(self, *exc) -> None:
        self.machine.send = self._orig_send
        self.machine.charge_exchange = self._orig_charge_exchange
        self._orig_send = None
        self._orig_charge_exchange = None

    # -- queries ------------------------------------------------------------
    @property
    def events(self) -> list[MessageEvent]:
        """Per-message records, in trace order (materialized lazily)."""
        if self._events_cache is None:
            self._events_cache = [
                MessageEvent(int(s), int(d), int(nb))
                for src, dst, nbytes in self._chunks
                for s, d, nb in zip(src, dst, nbytes)
            ]
        return self._events_cache

    def message_count(self) -> int:
        return sum(chunk[0].size for chunk in self._chunks)

    def total_bytes(self) -> int:
        return int(sum(int(chunk[2].sum()) for chunk in self._chunks))

    def traffic_matrix(self) -> np.ndarray:
        """(P, P) byte totals, [src, dst]."""
        n = self.machine.n_procs
        out = np.zeros((n, n), dtype=np.int64)
        for src, dst, nbytes in self._chunks:
            np.add.at(out, (src, dst), nbytes)
        return out

    def pairs(self) -> set[tuple[int, int]]:
        """Distinct communicating (src, dst) pairs."""
        if not self._chunks:
            return set()
        n = self.machine.n_procs
        keys = np.concatenate(
            [src * n + dst for src, dst, _ in self._chunks]
        )
        uniq = np.unique(keys)
        return {(int(k) // n, int(k) % n) for k in uniq}

    def render(self, unit: int = 1024) -> str:
        """Text heat map of the traffic matrix (units of ``unit`` bytes)."""
        mat = self.traffic_matrix() // unit
        n = self.machine.n_procs
        width = max(len(str(mat.max())), 3)
        lines = ["traffic matrix (KiB)" if unit == 1024 else f"traffic /{unit}B"]
        header = "     " + " ".join(f"{q:>{width}}" for q in range(n))
        lines.append(header)
        for p in range(n):
            row = " ".join(f"{mat[p, q]:>{width}}" for q in range(n))
            lines.append(f"{p:>4} {row}")
        return "\n".join(lines)
