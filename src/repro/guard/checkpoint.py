"""Versioned checkpoint/restore for long adaptive campaigns.

A checkpoint captures everything a mid-campaign
:class:`~repro.adapt.driver.AdaptiveExecutor` run needs to continue
**bit-identically** with an uninterrupted one:

* the machine's counters (per-processor clocks, message/byte/op tallies)
  and its phase records,
* every decomposition's distribution as constructor data and every
  distributed array's flat backing: restore rebuilds the distributions
  itself, so resuming needs no replay of the campaign's remaps,
* the modification registry (``nmod``, ``last_mod``, the per-DAD dirty
  event log),
* the saved inspector records with their products -- iteration
  partitions, localized reference lists, communication schedules and
  ghost buffers, in flat-array form; schedules and ghost buffers sit in
  tables the patterns index, so those shared between coalesced patterns
  come back as shared objects (pattern grouping and executor
  deduplication key on identity),
* the incremental-inspection state (snapshots, slot bookkeeping -- built
  on the spot if the inspection's capture is still pending -- the
  escalation ladder's failure counters and fallback log), and
* the driver's per-step history.

Three things are deliberately *not* serialized:

* **loops** -- :class:`~repro.core.forall.ForallLoop` holds user
  callables; the caller re-binds them by name through the ``loops``
  mapping of :func:`restore_checkpoint`,
* **translation tables** -- they are pure functions of (distribution,
  costs, variant); restore rebuilds the cached ones against a scratch
  machine so the (already-checkpointed) construction charges are not
  applied twice, then rebinds them to the live machine, and
* **what an invariant pins to something saved** -- an adapt state's
  home map (``verify_adapt_state`` at ``full`` requires it to equal the
  partition's ``owner_of()``) and each pattern's ``ref_bounds``
  (``_verify_refs`` requires them to equal the partition's bounds):
  restore derives both from the restored partition.

File format (version 3)
-----------------------
One file, three parts, nothing in it executable::

    header    24 bytes: magic b"REPROCKP", version (u32), manifest
              length (u64), CRC-32 over the header's first 20 bytes
              followed by the manifest (u32); little-endian
    manifest  UTF-8 JSON {"sections": [...], "payload": ...}
    sections  raw array bytes, each starting on a 64-byte boundary
              (zero padding in between), the last one ending the file

Each section entry is ``{"name", "dtype", "shape", "offset", "crc"}``:
the key path the array was first met under, a numeric ``dtype.str``
(kinds ``b i u f c``), the shape, the offset from the first 64-byte
boundary after the manifest, and the CRC-32 of its bytes as 8 hex
digits (fixed width: the manifest's length is known before the CRCs
are, so the save reserves its bytes and fills them in last).  ``payload``
is the non-array structure in a small tagged JSON: ``{"$array": i}``
names section ``i``, ``{"$tuple": [...]}`` a tuple, ``{"$dict": [[k,
v], ...]}`` a dict with a key that is not a plain string,
``{"$np": [dtype, value]}`` a NumPy scalar; floats round-trip exactly
(``repr``, NaN and infinities included).  Saving anything else raises a
``TypeError`` naming its key path.  The array bytes are written straight
from the live arrays in one pass while a second thread takes their CRCs
-- no copy of the payload is ever made -- and equal programs write
equal bytes (deterministic order, no host seconds).

*Sharing rule.*  Every distinct array object is one section, however
many structures hold it: a twin group's arrays, ``ghost_bounds`` and
``slot_bounds``, a pattern's references shared by sibling patterns all
come back as one object.

*Views and copies.*  :func:`load_checkpoint` reads the file once into a
private buffer (never a memory map: a file rewritten in place must not
change a loaded array) and hands out every array as a read-only view of
it, so whatever came back shared is frozen and a stray in-place write
raises.  What the runtime writes in place is copied once by
:func:`restore_checkpoint`: distributed-array backings, adapt snapshots,
ghost backings and the machine's counters.

*Tamper guarantees.*  Loading never unpickles or evaluates anything.
Before a single array or payload object is built, every byte of the file
is checked: the header and manifest against their CRC, each section
against its own, every padding byte for zero, and the file's length
against the last section's end; the manifest must hold only numeric
dtypes, shapes and offsets that fit the file, sections in their aligned
order without overlap, and known tags.  Any failure -- and any file of
another format, pickle-based versions 1 and 2 included (a checkpoint is
crash-recovery state, not an archive) -- raises
:class:`~repro.guard.errors.CheckpointError`, as does a restore into a
program of another shape (machine size, declared decompositions and
arrays); restore raises before it mutates anything.

Scope: the campaign path (``forall`` / array writes / incremental
patching).  Mapper-coupling state (GeoCoL graphs, partitioner results)
is not captured -- re-running ``construct``/``set_distribution`` after a
restore is not supported.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import threading
import zlib

import numpy as np

from repro.chaos.buffers import GhostBuffers
from repro.chaos.schedule import CommSchedule
from repro.chaos.ttable import (
    DistributedTranslationTable,
    RegularTranslationTable,
    ReplicatedTranslationTable,
    build_translation_table,
)
from repro.core.dad import DAD
from repro.core.inspector import InspectorProduct, PatternData
from repro.core.iteration import IterationPartition
from repro.core.records import InspectorRecord
from repro.chaos.localize import LocalizeResult
from repro.distribution.irregular import ExplicitDistribution, IrregularDistribution
from repro.distribution.regular import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
)
from repro.guard.errors import CheckpointError
from repro.machine.machine import Machine
from repro.machine.stats import COUNTER_FIELDS, CounterBlock, PhaseRecord

_MAGIC = b"REPROCKP"
_VERSION = 3
#: magic, version, manifest length, CRC over the bytes before it + manifest
_HEADER = struct.Struct("<8sIQI")
_CRC_START = _HEADER.size - 4
_ALIGN = 64
#: the only dtype strings a section may carry: numeric, no structure
_DTYPE_RE = re.compile(r"[<>|][biufc][0-9]{1,2}")
#: a section CRC: fixed-width hex, so the manifest's length is known
#: before the CRCs are
_CRC_RE = re.compile(r"[0-9a-f]{8}")
_PAYLOAD_KEYS = frozenset((
    "n_procs", "machine", "decomps", "arrays", "registry", "program",
    "schedules", "ghosts", "records", "ttables", "adapt", "driver",
))
#: bytes per chunk when a non-contiguous array streams through a buffer
_CHUNK_BYTES = 1 << 20


def _owners(dist):
    """The owner map in the smallest unsigned dtype holding every processor id."""
    return dist.owner_map().astype(np.min_scalar_type(dist.n_procs - 1))


#: ``kind -> (class, its constructor arguments but n_procs)``: what the
#: file holds of a distribution, and how restore rebuilds it
_DISTRIBUTIONS = {
    "block": (BlockDistribution, lambda d: {"size": d.size}),
    "cyclic": (CyclicDistribution, lambda d: {"size": d.size}),
    "block_cyclic": (BlockCyclicDistribution, lambda d: {"size": d.size, "block": d.block}),
    "irregular": (IrregularDistribution, lambda d: {"owner_map": _owners(d)}),
    "explicit": (
        ExplicitDistribution,
        lambda d: {"owner_map": _owners(d), "local_map": d.local_map()},
    ),
}

#: driver-history fields kept out of the file, with the value a restored
#: record gets instead (a file that has one keeps it): host-clock
#: seconds, which would make two runs of one campaign write different bytes
_UNSAVED_HISTORY_FIELDS = {"state_build_wall_seconds": 0.0, "inspect_wall_seconds": 0.0}


def previous_checkpoint_path(path) -> str:
    """Where :func:`save_checkpoint` rotates the prior checkpoint to.

    Every save keeps exactly one generation of history: the file that
    was at ``path`` before the save lives on at ``<path>.prev``, so a
    crash mid-write (or later corruption of the primary) never destroys
    the last good checkpoint.
    """
    return f"{os.fspath(path)}.prev"

_TTABLE_VARIANTS = {
    RegularTranslationTable: "regular",
    ReplicatedTranslationTable: "replicated",
    DistributedTranslationTable: "distributed",
}


# ----------------------------------------------------------------------
# capture, by reference: the payload holds the live arrays, which the
# save streams into the file (one section per distinct array object)
# ----------------------------------------------------------------------
def _counters_payload(block: CounterBlock) -> dict:
    return {name: getattr(block, name) for name in COUNTER_FIELDS}


def _machine_payload(machine: Machine) -> dict:
    phases = [
        {
            "name": rec.name,
            "elapsed": rec.elapsed,
            "counters": _counters_payload(rec.arrays),
        }
        for rec in machine.stats.phases
    ]
    return {"counters": _counters_payload(machine.counters), "phases": phases}


def _distribution_payload(dist) -> dict:
    return {"kind": dist.kind, **_DISTRIBUTIONS[dist.kind][1](dist)}


def _dad_payload(dad: DAD) -> tuple:
    return (dad.kind, dad.size, dad.signature)


def _registry_payload(registry) -> dict:
    return {
        "nmod": registry.nmod,
        "last_mod": dict(registry._last_mod),
        "events": {sig: list(events) for sig, events in registry._events.items()},
    }


def _schedule_payload(sched: CommSchedule) -> dict:
    return {
        "dist_signature": sched.dist_signature,
        "pair_q": sched._pair_q,
        "pair_p": sched._pair_p,
        "pair_len": sched._pair_len,
        "flat_send": sched._flat_send,
        "flat_recv": sched._flat_recv,
        "ghost_sizes": list(sched.ghost_sizes),
    }


def _table_index(table: list, seen: dict, obj, payload_of) -> int:
    """Position of ``obj`` in ``table``, appending its payload on first
    sight: equal programs list their shared objects in equal order."""
    i = seen.get(id(obj))
    if i is None:
        i = seen[id(obj)] = len(table)
        table.append(payload_of(obj))
    return i


def _product_payload(product: InspectorProduct, schedules: list, ghosts: list, seen: dict) -> dict:
    def schedule_index(sched) -> int:
        return _table_index(schedules, seen, sched, _schedule_payload)

    def ghosts_payload(buf) -> dict:
        return {"schedule": schedule_index(buf.schedule), "backing": buf.backing}

    part = product.iteration_partition
    flat, bounds = part.iters_flat()
    patterns = []
    for key, pat in product.patterns.items():
        loc = pat.localized
        patterns.append(
            (
                key,
                {
                    "array": pat.array,
                    "index": pat.index,
                    "schedule": schedule_index(loc.schedule),
                    "ghosts": _table_index(ghosts, seen, pat.ghosts, ghosts_payload),
                    "local_sizes": np.asarray(loc.local_sizes, dtype=np.int64),
                    "refs_flat": loc.refs_flat,
                    "ghost_flat": loc.ghost_flat,
                    "ghost_bounds": loc.ghost_bounds,
                },
            )
        )
    return {
        "loop": product.loop.name,
        "partition": {
            "n_iterations": part.n_iterations,
            "method": part.method,
            "flat": flat,
            "bounds": bounds,
        },
        "patterns": patterns,
        "dist_signatures": dict(product.dist_signatures),
    }


def _adapt_payload(adapt) -> dict:
    states = {}
    for name in adapt.loops_with_state():
        # a checkpoint before the first patch builds the state here: the
        # file always carries the built form, never a pending capture
        state = adapt.state_for(name, "checkpoint")
        groups = []
        for gkey, g in state.groups.items():
            groups.append(
                (
                    gkey,
                    {
                        "array": g.array,
                        "indexes": g.indexes,
                        "slot_bounds": g.slot_bounds,
                        "keys": g.keys,
                        "owners": g.owners,
                        "lidx": g.lidx,
                        "counts": g.counts,
                    },
                )
            )
        states[name] = {"snapshots": dict(state.snapshots), "groups": groups}
    return {
        "max_change_fraction": adapt.max_change_fraction,
        "max_failures": adapt.max_failures,
        "states": states,
        "failures": dict(adapt.failures),
        "disabled": sorted(adapt.disabled),
        "fallback_log": [dict(rec) for rec in adapt.fallback_log],
    }


# ----------------------------------------------------------------------
# format v3: tagged JSON structure + raw array sections
# ----------------------------------------------------------------------
_PLAIN = (type(None), bool, int, float, str)


class _Sections:
    """The arrays a payload holds, one per distinct object, in first-seen order."""

    def __init__(self) -> None:
        self.arrays: list[np.ndarray] = []
        self.names: list[str] = []
        self._index: dict[int, int] = {}

    def add(self, a: np.ndarray, path: str) -> int:
        i = self._index.get(id(a))
        if i is None:
            if a.dtype.kind not in "biufc" or a.dtype.fields is not None:
                raise TypeError(f"checkpoint payload {path}: cannot store a {a.dtype} array")
            i = self._index[id(a)] = len(self.arrays)
            self.arrays.append(a)
            self.names.append(path)
        return i


def _encode(obj, path: str, sections: _Sections):
    """``obj`` as tagged JSON, its arrays registered with ``sections``."""
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is list:
        return [_encode(x, f"{path}/{i}", sections) for i, x in enumerate(obj)]
    if kind is tuple:
        return {"$tuple": [_encode(x, f"{path}/{i}", sections) for i, x in enumerate(obj)]}
    if kind is dict:
        if all(type(k) is str and not k.startswith("$") for k in obj):
            return {k: _encode(v, f"{path}/{k}", sections) for k, v in obj.items()}
        return {
            "$dict": [
                [_encode(k, f"{path}/{k!r}", sections), _encode(v, f"{path}/{k!r}", sections)]
                for k, v in obj.items()
            ]
        }
    if isinstance(obj, np.ndarray):
        return {"$array": sections.add(obj, path)}
    if isinstance(obj, np.generic) and obj.dtype.kind in "biuf":
        return {"$np": [obj.dtype.str, obj.item()]}
    raise TypeError(f"checkpoint payload {path}: cannot store a {kind.__name__}")


def _numeric_dtype(s) -> np.dtype:
    """The dtype a manifest names, if it is a plain numeric one."""
    if type(s) is str and _DTYPE_RE.fullmatch(s):
        try:
            dt = np.dtype(s)
        except TypeError:
            pass
        else:
            if dt.str == s:
                return dt
    raise CheckpointError(f"checkpoint names dtype {s!r}; only numeric dtypes are stored")


def _decode(node, views: list):
    """The payload a tagged JSON ``node`` describes, section ``i`` being
    ``views[i]``; raises :class:`CheckpointError` on an unknown tag or
    an out-of-range section reference."""
    kind = type(node)
    if kind in _PLAIN:
        return node
    if kind is list:
        return [_decode(x, views) for x in node]
    tags = [k for k in node if k.startswith("$")]
    if not tags:
        return {k: _decode(v, views) for k, v in node.items()}
    if len(node) != 1:
        raise CheckpointError(f"checkpoint tag {tags[0]!r} shares an object with other keys")
    ((tag, body),) = node.items()
    if tag == "$array":
        if type(body) is not int or not 0 <= body < len(views):
            raise CheckpointError(f"checkpoint references section {body!r}, which it lacks")
        return views[body]
    if tag == "$tuple" and type(body) is list:
        return tuple(_decode(x, views) for x in body)
    if tag == "$dict" and type(body) is list:
        if not all(type(kv) is list and len(kv) == 2 for kv in body):
            raise CheckpointError("checkpoint $dict entries must be [key, value] pairs")
        out = {}
        for k, v in body:
            key = _decode(k, views)
            try:
                out[key] = _decode(v, views)
            except TypeError as exc:  # an unhashable key
                raise CheckpointError(f"checkpoint $dict key {k!r}: {exc}") from exc
        return out
    if tag == "$np" and type(body) is list and len(body) == 2:
        dt = _numeric_dtype(body[0])
        if dt.kind == "c" or type(body[1]) not in (bool, int, float):
            raise CheckpointError(f"checkpoint $np value {body!r} is not a numeric scalar")
        try:
            return dt.type(body[1])
        except (OverflowError, ValueError) as exc:
            raise CheckpointError(f"checkpoint $np value {body!r}: {exc}") from exc
    raise CheckpointError(f"checkpoint payload holds unknown or malformed tag {tag!r}")


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _byte_chunks(a: np.ndarray):
    """``a``'s bytes in C order as buffers: the array itself when it is
    contiguous, else bounded chunks of it (never a whole-array copy)."""
    if a.flags.c_contiguous:
        yield a.reshape(-1).view(np.uint8)
        return
    for chunk in np.nditer(
        a,
        flags=["external_loop", "buffered", "zerosize_ok"],
        buffersize=max(_CHUNK_BYTES // a.itemsize, 1),
        order="C",
    ):
        yield chunk.view(np.uint8)


def _section_crc(a: np.ndarray) -> int:
    crc = 0
    for chunk in _byte_chunks(a):
        crc = zlib.crc32(chunk, crc)
    return crc


def _head(entries: list, payload_json: bytes) -> bytes:
    """Header + manifest; its length does not depend on the CRC values
    (fixed-width hex), so placeholders reserve the final layout."""
    sections_json = json.dumps(entries, separators=(",", ":")).encode()
    manifest = b'{"sections":' + sections_json + b',"payload":' + payload_json + b"}"
    head = _HEADER.pack(_MAGIC, _VERSION, len(manifest), 0)[:_CRC_START]
    crc = zlib.crc32(manifest, zlib.crc32(head))
    return _HEADER.pack(_MAGIC, _VERSION, len(manifest), crc) + manifest


def _write_file(f, payload: dict) -> None:
    """Stream ``payload`` into ``f``: the sections straight from the live
    arrays while a second thread takes their CRCs (both release the
    GIL), then the header and manifest over their reserved bytes."""
    sections = _Sections()
    payload_json = json.dumps(_encode(payload, "", sections), separators=(",", ":")).encode()
    entries, end = [], 0
    for name, a in zip(sections.names, sections.arrays):
        offset = _aligned(end)
        entries.append({
            "name": name, "dtype": a.dtype.str, "shape": list(a.shape),
            "offset": offset, "crc": "0" * 8,
        })
        end = offset + a.nbytes
    crcs: list = [None] * len(entries)

    def take_crcs() -> None:
        for i, a in enumerate(sections.arrays):
            crcs[i] = _section_crc(a)

    crc_thread = threading.Thread(target=take_crcs, name="checkpoint-crc")
    crc_thread.start()
    try:
        head = _head(entries, payload_json)
        f.write(bytes(len(head)))
        base = _aligned(len(head))
        for entry, a in zip(entries, sections.arrays):
            f.write(bytes(base + entry["offset"] - f.tell()))  # zero padding
            for chunk in _byte_chunks(a):
                f.write(chunk)
    finally:
        crc_thread.join()
    if None in crcs:
        raise RuntimeError("checkpoint section CRCs were not all taken")
    for entry, crc in zip(entries, crcs):
        entry["crc"] = f"{crc:08x}"
    f.seek(0)
    f.write(_head(entries, payload_json))


def save_checkpoint(path, program, driver=None) -> None:
    """Serialize ``program`` (and optionally an AdaptiveExecutor) to ``path``.

    The file is versioned and CRC-protected (format v3, see the module
    docstring); :func:`restore_checkpoint` refuses anything damaged or
    shape-incompatible.  Nothing is charged to the simulated machine.

    The write is crash-safe: the file lands in a temporary file that
    is atomically renamed into place, and the previous checkpoint (if
    any) is first rotated to ``<path>.prev`` -- a kill at any instant
    leaves either the old checkpoint, the old one at ``.prev`` plus the
    new one, or (worst case, between the two renames) the old one only
    at ``.prev``, where :meth:`~repro.adapt.driver.AdaptiveExecutor.resume`
    still finds it.
    """
    machine = program.machine
    schedules: list[dict] = []
    ghost_bufs: list[dict] = []
    seen: dict[int, int] = {}  # id(shared object) -> its table position
    records = {}
    for name, rec in program.records.items():
        records[name] = {
            "data_dads": {k: _dad_payload(d) for k, d in rec.data_dads.items()},
            "ind_dads": {k: _dad_payload(d) for k, d in rec.ind_dads.items()},
            "ind_last_mod": dict(rec.ind_last_mod),
            "product": _product_payload(rec.product, schedules, ghost_bufs, seen),
        }
    ttables = []
    for (aname, sig), tt in program.ttables.items():
        variant = _TTABLE_VARIANTS.get(type(tt))
        if variant is not None:
            ttables.append((aname, sig, variant))
    payload = {
        "n_procs": machine.n_procs,
        "machine": _machine_payload(machine),
        "decomps": {
            name: _distribution_payload(dec.distribution)
            for name, dec in program.decomps.items()
            if dec.distribution is not None
        },
        "arrays": {name: arr.backing_ro for name, arr in program.arrays.items()},
        "registry": _registry_payload(program.registry),
        "program": {
            "inspector_runs": program.inspector_runs,
            "reuse_hits": program.reuse_hits,
            "patch_hits": program.patch_hits,
            "geocol_reuse_hits": program.geocol_reuse_hits,
            "indirection_dads": sorted(program._indirection_dads),
            "guard_events": [dict(e) for e in program.guard_events],
        },
        "schedules": schedules,
        "ghosts": ghost_bufs,
        "records": records,
        "ttables": ttables,
        "adapt": None if program.adapt is None else _adapt_payload(program.adapt),
        "driver": None
        if driver is None
        else {
            "history": [
                {k: v for k, v in rec.items() if k not in _UNSAVED_HISTORY_FIELDS}
                for rec in driver.history
            ]
        },
    }
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            _write_file(f, payload)
        if os.path.exists(path):
            os.replace(path, previous_checkpoint_path(path))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ----------------------------------------------------------------------
# load / restore
# ----------------------------------------------------------------------
def _read_file(path) -> bytearray:
    """The whole file in a private buffer (one allocation, no copy)."""
    try:
        with open(path, "rb", buffering=0) as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            if f.readinto(buf) != len(buf) or f.read(1):
                raise OSError("the file changed size while being read")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return buf


def _section_specs(buf, path) -> tuple[list, object]:
    """Validate every byte of ``buf``; returns the sections' ``(start,
    dtype, shape)`` and the manifest's payload tree."""
    size = len(buf)
    mv = memoryview(buf)
    if size < _HEADER.size or mv[:8] != _MAGIC:
        if buf[:1] == b"\x80":  # a pickle stream: format version 1 or 2
            raise CheckpointError(
                f"checkpoint {path} is a pickle envelope (format version 2 or "
                f"older) unsupported (expected {_VERSION}); it is never unpickled"
            )
        raise CheckpointError(f"{path} is not a repro checkpoint file")
    _, version, mlen, mcrc = _HEADER.unpack_from(buf)
    if version != _VERSION:
        raise CheckpointError(f"checkpoint version {version} unsupported (expected {_VERSION})")
    mend = _HEADER.size + mlen
    if mend > size:
        raise CheckpointError(f"checkpoint {path}: manifest runs past the end of the file")
    if zlib.crc32(mv[_HEADER.size : mend], zlib.crc32(mv[:_CRC_START])) != mcrc:
        raise CheckpointError(f"checkpoint {path} failed its manifest CRC check")
    try:
        manifest = json.loads(mv[_HEADER.size : mend].tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint {path}: unreadable manifest: {exc}") from exc
    if type(manifest) is not dict or set(manifest) != {"sections", "payload"} or (
        type(manifest["sections"]) is not list
    ):
        raise CheckpointError(f"checkpoint {path}: manifest is not a v3 manifest")
    base = _aligned(mend)
    specs, end = [], mend
    for sec in manifest["sections"]:
        if type(sec) is not dict or set(sec) != {"name", "dtype", "shape", "offset", "crc"}:
            raise CheckpointError(f"checkpoint {path}: malformed section entry {sec!r}")
        name, shape, offset = sec["name"], sec["shape"], sec["offset"]
        dt = _numeric_dtype(sec["dtype"])
        if type(shape) is not list or len(shape) > 32 or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise CheckpointError(f"checkpoint section {name!r} has invalid shape {shape!r}")
        crc = sec["crc"]
        if type(offset) is not int or not (type(crc) is str and _CRC_RE.fullmatch(crc)):
            raise CheckpointError(f"checkpoint section {name!r} has a malformed offset or CRC")
        start = base + offset
        stop = start + math.prod(shape) * dt.itemsize
        if start < end:
            raise CheckpointError(
                f"checkpoint section {name!r} at {start} overlaps its predecessor "
                f"(which ends at {end})"
            )
        if stop > size:
            raise CheckpointError(f"checkpoint section {name!r} runs past the end of the file")
        if start != _aligned(end):
            raise CheckpointError(
                f"checkpoint section {name!r} at {start} is not at its aligned offset "
                f"{_aligned(end)}"
            )
        if any(mv[end:start]):
            raise CheckpointError(f"checkpoint {path}: nonzero padding before section {name!r}")
        if zlib.crc32(mv[start:stop]) != int(crc, 16):
            raise CheckpointError(f"checkpoint {path}: section {name!r} failed its CRC check")
        specs.append((start, dt, tuple(shape)))
        end = stop
    if end != size:
        raise CheckpointError(f"checkpoint {path}: {size - end} trailing bytes after its data")
    return specs, manifest["payload"]


def _views(buf, specs) -> list[np.ndarray]:
    """One read-only array per section, viewing ``buf`` (nothing copied)."""
    ro = memoryview(buf).toreadonly()
    return [
        np.frombuffer(ro, dtype=dt, count=math.prod(shape), offset=start).reshape(shape)
        for start, dt, shape in specs
    ]


def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint file; returns the payload dict.

    The file is read once; its arrays come back as read-only views of
    that one private buffer.  Raises :class:`CheckpointError` on a
    damaged or unrecognized file, before any payload object is built.
    """
    buf = _read_file(path)
    specs, tree = _section_specs(buf, path)
    # a dry run over placeholders: every tag known, every reference in
    # range, before the first view of the buffer exists
    _decode(tree, [None] * len(specs))
    if type(tree) is not dict or set(tree) != _PAYLOAD_KEYS:
        raise CheckpointError(f"checkpoint {path}: payload lacks the v{_VERSION} keys")
    return _decode(tree, _views(buf, specs))


def _restore_machine(machine: Machine, payload: dict) -> None:
    for name in COUNTER_FIELDS:
        getattr(machine.counters, name)[:] = payload["counters"][name]
    machine.stats.clear()
    for rec in payload["phases"]:
        block = CounterBlock(machine.n_procs)
        for name in COUNTER_FIELDS:
            getattr(block, name)[:] = rec["counters"][name]
        machine.stats.add(
            PhaseRecord(name=rec["name"], elapsed=rec["elapsed"], arrays=block)
        )


def _build_distributions(program, payload: dict) -> list:
    """Rebuild every checkpointed distribution and match the saved arrays
    to the program's declarations, mutating nothing; returns
    ``[(decomposition, distribution)]``."""
    unmatched = dict(payload["arrays"])
    built = []
    for name, saved in payload["decomps"].items():
        dec = program.decomps.get(name)
        if dec is None:
            raise CheckpointError(f"checkpointed decomposition {name!r} is not declared here")
        args = dict(saved)
        kind = args.pop("kind")
        if kind not in _DISTRIBUTIONS:
            raise CheckpointError(f"decomposition {name!r}: unknown distribution kind {kind!r}")
        try:
            dist = _DISTRIBUTIONS[kind][0](**args, n_procs=payload["n_procs"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed {kind} distribution {name!r}: {exc}") from exc
        if dist.size != dec.size:
            raise CheckpointError(
                f"decomposition {name!r} has size {dec.size}, checkpoint {dist.size}"
            )
        for arr in dec.arrays:
            backing = unmatched.pop(arr.name, None)
            if backing is None:
                raise CheckpointError(f"array {arr.name!r} of {name!r} is not in the checkpoint")
            if (backing.dtype.str, backing.shape) != (arr.dtype.str, (arr.size,)):
                raise CheckpointError(
                    f"array {arr.name!r} has dtype {arr.dtype} and size {arr.size}, checkpoint "
                    f"has {backing.dtype} and shape {backing.shape}"
                )
        built.append((dec, dist))
    if unmatched:
        raise CheckpointError(f"checkpointed arrays {sorted(unmatched)} have no aligned match here")
    return built


def _restore_registry(registry, payload: dict) -> None:
    registry.nmod = payload["nmod"]
    registry._last_mod = dict(payload["last_mod"])
    registry._events = {sig: list(events) for sig, events in payload["events"].items()}


def _build_dad(t: tuple) -> DAD:
    return DAD(kind=t[0], size=t[1], signature=t[2])


def _restore_products(program, payload: dict, loops: dict) -> dict:
    """Rebuild records/schedules/ghosts; returns the record dict.

    The structures adopt the loaded (read-only) arrays; only the ghost
    backings, which gathers write, are private copies."""
    machine = program.machine
    schedules = [
        CommSchedule(
            machine,
            s["dist_signature"],
            s["pair_q"],
            s["pair_p"],
            s["pair_len"],
            s["flat_send"],
            s["flat_recv"],
            s["ghost_sizes"],
            costs=program.costs,
        )
        for s in payload["schedules"]
    ]
    ghost_bufs = []
    for g in payload["ghosts"]:
        buf = GhostBuffers(
            machine, schedules[g["schedule"]], dtype=g["backing"].dtype, charge=False
        )
        if buf.backing.size != g["backing"].size:
            raise CheckpointError(
                "ghost backing size disagrees with its schedule "
                f"({buf.backing.size} != {g['backing'].size})"
            )
        buf.backing[:] = g["backing"]
        ghost_bufs.append(buf)
    records = {}
    for name, rec in payload["records"].items():
        prod = rec["product"]
        loop = loops.get(prod["loop"])
        if loop is None:
            raise CheckpointError(
                f"checkpoint references loop {prod['loop']!r}; pass it in "
                "the loops mapping (loops hold callables and are re-bound, "
                "not serialized)"
            )
        part_p = prod["partition"]
        part = IterationPartition(
            n_iterations=part_p["n_iterations"],
            method=part_p["method"],
            flat=part_p["flat"],
            bounds=part_p["bounds"],
        )
        patterns = {}
        for key, pat in prod["patterns"]:
            loc = LocalizeResult(
                local_sizes=pat["local_sizes"],
                schedule=schedules[pat["schedule"]],
                refs_flat=pat["refs_flat"],
                # derivable: _verify_refs pins them to the partition's bounds
                ref_bounds=part.bounds,
                ghost_flat=pat["ghost_flat"],
                ghost_bounds=pat["ghost_bounds"],
            )
            patterns[key] = PatternData(
                array=pat["array"],
                index=pat["index"],
                localized=loc,
                ghosts=ghost_bufs[pat["ghosts"]],
            )
        records[name] = InspectorRecord(
            loop_name=name,
            data_dads={k: _build_dad(t) for k, t in rec["data_dads"].items()},
            ind_dads={k: _build_dad(t) for k, t in rec["ind_dads"].items()},
            ind_last_mod=dict(rec["ind_last_mod"]),
            product=InspectorProduct(
                loop=loop,
                iteration_partition=part,
                patterns=patterns,
                dist_signatures=dict(prod["dist_signatures"]),
            ),
        )
    return records


def _restore_ttables(program, payload: list) -> None:
    """Rebuild cached translation tables without re-charging construction.

    Tables are pure functions of (distribution, costs, variant); their
    build cost was charged before the checkpoint and lives in the
    restored counters, so the rebuild runs against a scratch machine and
    only the finished table is bound to the live one.
    """
    program.ttables.clear()
    scratch = Machine(program.machine.n_procs)
    for aname, sig, variant in payload:
        arr = program.arrays.get(aname)
        if arr is None or arr.distribution.signature() != sig:
            continue  # table for a distribution this program no longer has
        tt = build_translation_table(
            scratch, arr.distribution, program.costs, variant
        )
        tt.machine = program.machine
        program.ttables[(aname, sig)] = tt


def _build_adapt_states(payload: dict, records: dict) -> dict:
    """Every loop's adapt state, mutating nothing.  Snapshots (patches
    update them in place) are private copies; the home map is derived."""
    from repro.adapt.state import GroupState, LoopAdaptState

    states = {}
    for name, s in payload["states"].items():
        rec = records.get(name)
        if rec is None:
            raise CheckpointError(f"adapt state of loop {name!r} has no inspector record")
        states[name] = LoopAdaptState(
            # derivable: verify_adapt_state (full) pins it to the partition
            home=rec.product.iteration_partition.owner_of(),
            snapshots={n: snap.copy() for n, snap in s["snapshots"].items()},
            groups={gkey: GroupState(**g) for gkey, g in s["groups"]},
        )
    return states


def _restore_adapt(adapt, payload: dict, states: dict) -> None:
    adapt.max_change_fraction = payload["max_change_fraction"]
    adapt.max_failures = payload["max_failures"]
    adapt.replace_states(states)
    adapt.failures = dict(payload["failures"])
    adapt.disabled = set(payload["disabled"])
    adapt.program.events.replace_category(
        "adapt.fallback", [dict(rec) for rec in payload["fallback_log"]]
    )


def restore_checkpoint(payload, program, loops, driver=None) -> None:
    """Restore ``program`` (and optionally a driver) from the payload
    :func:`load_checkpoint` returned.

    ``program`` must be freshly constructed with the same shape as the
    checkpointed one -- same machine size, same declared decompositions
    and arrays (their distributions come from the file); ``loops`` maps
    loop name to the live :class:`~repro.core.forall.ForallLoop` objects
    of the campaign.  After restoring, continuing the campaign produces
    simulated numbers bit-identical to a run that never stopped.  A
    :class:`CheckpointError` is raised before anything is mutated.
    """
    if payload["n_procs"] != program.machine.n_procs:
        raise CheckpointError(
            f"checkpoint is for {payload['n_procs']} processors, program "
            f"machine has {program.machine.n_procs}"
        )
    if payload["adapt"] is not None and program.adapt is None:
        raise CheckpointError(
            "checkpoint carries incremental-inspection state; construct "
            "the program with incremental=True before resuming"
        )
    distributions = _build_distributions(program, payload)
    records = _restore_products(program, payload, loops)
    states = None if payload["adapt"] is None else _build_adapt_states(payload["adapt"], records)
    for dec, dist in distributions:
        dec.distribution = dist
        for arr in dec.arrays:
            # a private, writable copy: the loaded array is a read-only view
            arr.rebind_flat(dist, payload["arrays"][arr.name].copy())
    _restore_machine(program.machine, payload["machine"])
    _restore_registry(program.registry, payload["registry"])
    prog_p = payload["program"]
    program.inspector_runs = prog_p["inspector_runs"]
    program.reuse_hits = prog_p["reuse_hits"]
    program.patch_hits = prog_p["patch_hits"]
    program.geocol_reuse_hits = prog_p["geocol_reuse_hits"]
    program._indirection_dads = set(prog_p["indirection_dads"])
    program.events.replace_category(
        "guard", [dict(e) for e in prog_p["guard_events"]]
    )
    program.records = records
    _restore_ttables(program, payload["ttables"])
    if states is not None:
        _restore_adapt(program.adapt, payload["adapt"], states)
    elif program.adapt is not None:
        program.adapt.replace_states({})
    if driver is not None and payload["driver"] is not None:
        driver.history = [
            {**_UNSAVED_HISTORY_FIELDS, **rec} for rec in payload["driver"]["history"]
        ]
