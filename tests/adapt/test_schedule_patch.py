"""Unit tests for schedule entries (``schedule_oracle.entries``), the merge patcher kept as the
patch rung's schedule oracle, and the patch rung's buffer assignment --
the append-only regrowth patching builds on."""

import numpy as np
import pytest

from repro.adapt import patch as patch_mod
from repro.adapt.state import GroupState
from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.localize import localize
from repro.chaos.ttable import build_translation_table
from repro.distribution import BlockDistribution
from repro.machine import Machine
from tests.adapt import test_lazy_state as lazy
from tests.chaos import schedule_oracle as oracle

_EMPTY = np.empty(0, dtype=np.int64)


def make_localized(m, n=32, seed=0, n_refs=60):
    rng = np.random.default_rng(seed)
    dist = BlockDistribution(n, m.n_procs)
    tt = build_translation_table(m, dist)
    refs = [
        rng.integers(0, n, n_refs // m.n_procs) for _ in range(m.n_procs)
    ]
    return localize(m, tt, refs), dist


class TestEntriesRoundTrip:
    def test_oracle_from_entries_reconstructs_schedule(self):
        m = Machine(4)
        loc, dist = make_localized(m)
        sched = loc.schedule
        q, p, send, recv = oracle.entries(sched)
        # per-element order keys = ghost global indices, aligned with
        # entries -- the wire order a fresh localize produces
        # slot s of requester pp holds keys[slot_bounds[pp] + s]
        key_of = loc.slots.keys[loc.slots.slot_bounds[p] + recv]
        rebuilt = oracle.from_entries(
            m, sched.dist_signature, q, p, send, recv,
            sched.ghost_sizes, order_key=key_of,
        )
        oracle.assert_schedules_equal(rebuilt, sched)

    def test_entries_shapes(self):
        m = Machine(4)
        loc, _ = make_localized(m)
        q, p, send, recv = oracle.entries(loc.schedule)
        total = int(loc.schedule._pair_len.sum())
        assert q.shape == p.shape == send.shape == recv.shape == (total,)


class TestOraclePatched:
    """The merge patcher the patch rung's schedule is diffed against
    (``tests/chaos/schedule_oracle.py``) keeps its own contract."""

    def test_patched_keep_all_is_identity(self):
        m = Machine(4)
        loc, _ = make_localized(m)
        sched = loc.schedule
        q, p, send, recv = oracle.entries(sched)
        # slot s of requester pp holds keys[slot_bounds[pp] + s]
        key_of = loc.slots.keys[loc.slots.slot_bounds[p] + recv]
        same = oracle.patched(
            sched,
            np.ones(q.size, dtype=bool),
            add_q=_EMPTY,
            add_p=_EMPTY,
            add_send=_EMPTY,
            add_recv=_EMPTY,
            ghost_sizes=sched.ghost_sizes,
            keep_key=key_of,
            add_key=_EMPTY,
        )
        oracle.assert_schedules_equal(same, sched)

    def test_retire_and_append_matches_fresh_construction(self):
        """Dropping some entries and appending others equals building
        from the surviving entry set directly."""
        m = Machine(4)
        loc, _ = make_localized(m, seed=3)
        sched = loc.schedule
        q, p, send, recv = oracle.entries(sched)
        rng = np.random.default_rng(1)
        keep = rng.random(q.size) > 0.3
        # appended entries: new ghost slots at the end of each region
        sizes = list(sched.ghost_sizes)
        add_q = np.array([0, 1], dtype=np.int64)
        add_p = np.array([2, 3], dtype=np.int64)
        add_send = np.array([0, 1], dtype=np.int64)
        add_recv = np.array([sizes[2], sizes[3]], dtype=np.int64)
        new_sizes = sizes.copy()
        new_sizes[2] += 1
        new_sizes[3] += 1
        patched = oracle.patched(
            sched, keep, add_q, add_p, add_send, add_recv, new_sizes,
            keep_key=send, add_key=add_send,
        )
        direct = oracle.from_entries(
            m,
            sched.dist_signature,
            np.concatenate([q[keep], add_q]),
            np.concatenate([p[keep], add_p]),
            np.concatenate([send[keep], add_send]),
            np.concatenate([recv[keep], add_recv]),
            new_sizes,
            order_key=np.concatenate([send[keep], add_send]),
        )
        oracle.assert_schedules_equal(patched, direct)


def regrown(sched, ghost_sizes, keep=None):
    """``sched``'s pairs (those ``keep`` selects) over new ghost sizes."""
    if keep is None:
        keep = np.ones(sched._pair_q.size, dtype=bool)
    elements = np.repeat(keep, sched._pair_len)
    _q, _p, send, recv = oracle.entries(sched)
    return oracle.schedule_from_flat(
        sched.machine,
        sched.dist_signature,
        sched._pair_q[keep],
        sched._pair_p[keep],
        sched._pair_len[keep],
        send[elements],
        recv[elements],
        ghost_sizes,
    )


class TestAssignBuffers:
    def test_shrink_rejected(self):
        m = Machine(4)
        loc, _ = make_localized(m, seed=6)
        sched = loc.schedule
        if not any(sched.ghost_sizes):
            pytest.skip("no ghosts in this draw")
        big = np.argmax(sched.ghost_sizes)
        new_sizes = list(sched.ghost_sizes)
        new_sizes[big] -= 1
        # drop one processor's entries entirely
        shrunk = regrown(sched, new_sizes, keep=sched._pair_p != big)
        iops_before = m.counters.iops.copy()
        with pytest.raises(ValueError, match="append-only"):
            patch_mod._assign_buffers(m, sched, shrunk, np.zeros(4, dtype=np.int64))
        assert np.array_equal(m.counters.iops, iops_before)

    def test_charges_only_newly_assigned_slots(self):
        m = Machine(4)
        loc, _ = make_localized(m, seed=7)
        sched = loc.schedule
        grown = regrown(sched, [s + 3 for s in sched.ghost_sizes])
        need = np.array([3, 1, 0, 2], dtype=np.int64)
        iops_before = m.counters.iops.copy()
        patch_mod._assign_buffers(m, sched, grown, need)
        delta = m.counters.iops - iops_before
        assert np.allclose(delta, DEFAULT_COSTS.buffer_assign * need)


def test_shrunk_ghost_region_aborts_the_patch(monkeypatch):
    """A patched schedule whose ghost region shrank is refused by the
    patch rung: the patch aborts and the inspection falls back to full."""
    mesh, machine, prog, loop = lazy.build()
    prog.forall(loop, n_times=1)

    def no_ghosts(state, layout, machine, dist_signature, stride):
        n = machine.n_procs
        return oracle.schedule_from_flat(
            machine, dist_signature, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY, [0] * n
        )

    monkeypatch.setattr(GroupState, "schedule", no_ghosts)
    lazy.mutate(prog, mesh, 0)
    prog.forall(loop, n_times=1)
    (fallback,) = prog.adapt.fallback_log
    assert fallback["reason"] == "patch_aborted"
    assert "append-only" in fallback["error"]
    assert prog.inspector_runs == 2 and prog.patch_hits == 0
