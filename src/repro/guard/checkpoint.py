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
  ghost buffers, serialized in flat-array form through a *unique-object
  table* so that schedules/buffers shared between coalesced patterns
  come back as shared objects (pattern grouping and executor
  deduplication key on identity),
* the incremental-inspection state (snapshots, slot bookkeeping -- built
  on the spot if the inspection's capture is still pending -- the
  escalation ladder's failure counters and fallback log), and
* the driver's per-step history.

Two things are deliberately *not* serialized:

* **loops** -- :class:`~repro.core.forall.ForallLoop` holds user
  callables; the caller re-binds them by name through the ``loops``
  mapping of :func:`restore_checkpoint`, and
* **translation tables** -- they are pure functions of (distribution,
  costs, variant); restore rebuilds the cached ones against a scratch
  machine so the (already-checkpointed) construction charges are not
  applied twice, then rebinds them to the live machine.

The file format is an envelope ``{"format", "version", "crc",
"payload"}`` where ``payload`` is a pickled plain-data dict and ``crc``
is its CRC-32; :class:`~repro.guard.errors.CheckpointError` is raised on
a truncated/corrupted file, a version mismatch (crash-recovery state
has no reader for older versions), or a shape mismatch with the program
being restored (machine size, declared decompositions and arrays).

Scope: the campaign path (``forall`` / array writes / incremental
patching).  Mapper-coupling state (GeoCoL graphs, partitioner results)
is not captured -- re-running ``construct``/``set_distribution`` after a
restore is not supported.
"""

from __future__ import annotations

import os
import pickle
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

_FORMAT = "repro-checkpoint"
_VERSION = 2


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
#: seconds, which would make the bytes -- and through the envelope's CRC
#: integer the file size -- differ between two runs of one campaign.
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
# capture, by reference: ``pickle.dumps`` reads the arrays within the
# call, and writes one several structures hold once (see ``_freeze``)
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


def _product_payload(
    product: InspectorProduct, schedules: dict, ghosts: dict, ordinals: dict
) -> dict:
    def ordinal(obj) -> int:
        # first-seen rank: equal programs write equal bytes (``id()`` varies)
        return ordinals.setdefault(id(obj), len(ordinals))

    part = product.iteration_partition
    flat, bounds = part.iters_flat()
    patterns = []
    for key, pat in product.patterns.items():
        sid = ordinal(pat.localized.schedule)
        if sid not in schedules:
            schedules[sid] = _schedule_payload(pat.localized.schedule)
        gid = ordinal(pat.ghosts)
        if gid not in ghosts:
            ghosts[gid] = {
                "schedule": ordinal(pat.ghosts.schedule),
                "dtype": pat.ghosts.dtype.str,
                "backing": pat.ghosts.backing,
            }
        loc = pat.localized
        patterns.append(
            (
                key,
                {
                    "array": pat.array,
                    "index": pat.index,
                    "schedule": sid,
                    "ghosts": gid,
                    "local_sizes": np.asarray(loc.local_sizes, dtype=np.int64),
                    "refs_flat": loc.refs_flat,
                    "ref_bounds": loc.ref_bounds,
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
        states[name] = {
            "home": state.home,
            "snapshots": dict(state.snapshots),
            "groups": groups,
        }
    return {
        "max_change_fraction": adapt.max_change_fraction,
        "max_failures": adapt.max_failures,
        "states": states,
        "failures": dict(adapt.failures),
        "disabled": sorted(adapt.disabled),
        "fallback_log": [dict(rec) for rec in adapt.fallback_log],
    }


def save_checkpoint(path, program, driver=None) -> None:
    """Serialize ``program`` (and optionally an AdaptiveExecutor) to ``path``.

    The file is versioned and CRC-protected; :func:`restore_checkpoint`
    refuses anything damaged or shape-incompatible.  Nothing is charged
    to the simulated machine.

    The write is crash-safe: the envelope lands in a temporary file that
    is atomically renamed into place, and the previous checkpoint (if
    any) is first rotated to ``<path>.prev`` -- a kill at any instant
    leaves either the old checkpoint, the old one at ``.prev`` plus the
    new one, or (worst case, between the two renames) the old one only
    at ``.prev``, where :meth:`~repro.adapt.driver.AdaptiveExecutor.resume`
    still finds it.
    """
    machine = program.machine
    schedules: dict[int, dict] = {}
    ghost_bufs: dict[int, dict] = {}
    ordinals: dict[int, int] = {}  # id(shared object) -> table key
    records = {}
    for name, rec in program.records.items():
        records[name] = {
            "data_dads": {k: _dad_payload(d) for k, d in rec.data_dads.items()},
            "ind_dads": {k: _dad_payload(d) for k, d in rec.ind_dads.items()},
            "ind_last_mod": dict(rec.ind_last_mod),
            "product": _product_payload(rec.product, schedules, ghost_bufs, ordinals),
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
        "arrays": {
            name: {
                "dtype": arr.dtype.str,
                "backing": arr.backing_ro,
            }
            for name, arr in program.arrays.items()
        },
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
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "format": _FORMAT,
        "version": _VERSION,
        "crc": zlib.crc32(blob),
        "payload": blob,
    }
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            pickle.dump(envelope, f, protocol=pickle.HIGHEST_PROTOCOL)
        if os.path.exists(path):
            os.replace(path, previous_checkpoint_path(path))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ----------------------------------------------------------------------
# load / restore
# ----------------------------------------------------------------------
def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint file; returns the payload dict.

    Raises :class:`CheckpointError` on a damaged or unrecognized file.
    """
    try:
        with open(path, "rb") as f:
            envelope = pickle.load(f)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != _FORMAT:
        raise CheckpointError(f"{path} is not a repro checkpoint file")
    if envelope.get("version") != _VERSION:
        raise CheckpointError(
            f"checkpoint version {envelope.get('version')!r} unsupported "
            f"(expected {_VERSION})"
        )
    blob = envelope.get("payload")
    if not isinstance(blob, bytes) or zlib.crc32(blob) != envelope.get("crc"):
        raise CheckpointError(f"checkpoint {path} failed its CRC check")
    return pickle.loads(blob)


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
            saved_arr = unmatched.pop(arr.name, None)
            if saved_arr is None:
                raise CheckpointError(f"array {arr.name!r} of {name!r} is not in the checkpoint")
            if (saved_arr["dtype"], saved_arr["backing"].shape) != (arr.dtype.str, (arr.size,)):
                raise CheckpointError(
                    f"array {arr.name!r} has dtype {arr.dtype} and size {arr.size}, checkpoint "
                    f"has {saved_arr['dtype']} and shape {saved_arr['backing'].shape}"
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


def _freeze(saved) -> None:
    """Lock every array under ``saved``: restored structures adopt the
    unpickled arrays, and what was one object when saved (a twin group's
    arrays, ``ghost_bounds`` / ``slot_bounds``) comes back as one, so a
    stray in-place write must raise.  What the runtime does write in
    place (snapshots, backings, counters) is never shared nor passed."""
    if isinstance(saved, np.ndarray):
        saved.flags.writeable = False
    elif isinstance(saved, (dict, list, tuple)):
        for item in saved.values() if isinstance(saved, dict) else saved:
            _freeze(item)


def _restore_products(program, payload: dict, loops: dict) -> dict:
    """Rebuild records/schedules/ghosts; returns the record dict."""
    machine = program.machine
    _freeze((payload["schedules"], payload["records"]))
    sched_by_id = {
        sid: CommSchedule(
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
        for sid, s in payload["schedules"].items()
    }
    ghosts_by_id = {}
    for gid, g in payload["ghosts"].items():
        buf = GhostBuffers(
            machine,
            sched_by_id[g["schedule"]],
            dtype=np.dtype(g["dtype"]),
            charge=False,
        )
        if buf.backing.size != g["backing"].size:
            raise CheckpointError(
                "ghost backing size disagrees with its schedule "
                f"({buf.backing.size} != {g['backing'].size})"
            )
        buf.backing[:] = g["backing"]
        ghosts_by_id[gid] = buf
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
                schedule=sched_by_id[pat["schedule"]],
                refs_flat=pat["refs_flat"],
                ref_bounds=pat["ref_bounds"],
                ghost_flat=pat["ghost_flat"],
                ghost_bounds=pat["ghost_bounds"],
            )
            patterns[key] = PatternData(
                array=pat["array"],
                index=pat["index"],
                localized=loc,
                ghosts=ghosts_by_id[pat["ghosts"]],
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


def _restore_adapt(adapt, payload: dict) -> None:
    from repro.adapt.state import GroupState, LoopAdaptState

    adapt.max_change_fraction = payload["max_change_fraction"]
    adapt.max_failures = payload["max_failures"]
    _freeze([s["groups"] for s in payload["states"].values()])
    adapt.replace_states(
        {
            name: LoopAdaptState(
                home=s["home"],
                snapshots=dict(s["snapshots"]),
                groups={gkey: GroupState(**g) for gkey, g in s["groups"]},
            )
            for name, s in payload["states"].items()
        }
    )
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
    for dec, dist in distributions:
        dec.distribution = dist
        for arr in dec.arrays:
            # a private, writable copy: the loaded array may be read-only
            arr.rebind_flat(dist, payload["arrays"][arr.name]["backing"].copy())
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
    if payload["adapt"] is not None:
        _restore_adapt(program.adapt, payload["adapt"])
    elif program.adapt is not None:
        program.adapt.replace_states({})
    if driver is not None and payload["driver"] is not None:
        driver.history = [
            {**_UNSAVED_HISTORY_FIELDS, **rec} for rec in payload["driver"]["history"]
        ]
