"""Unit tests for CommSchedule entries/from_entries/patched and
GhostBuffers.patched -- the append/retire primitives patching builds on."""

import numpy as np
import pytest

from repro.chaos.buffers import GhostBuffers
from repro.chaos.localize import localize
from repro.chaos.schedule import CommSchedule
from repro.chaos.ttable import build_translation_table
from repro.distribution import BlockDistribution
from repro.machine import Machine


def make_localized(m, n=32, seed=0, n_refs=60):
    rng = np.random.default_rng(seed)
    dist = BlockDistribution(n, m.n_procs)
    tt = build_translation_table(m, dist)
    refs = [
        rng.integers(0, n, n_refs // m.n_procs) for _ in range(m.n_procs)
    ]
    return localize(m, tt, refs), dist


class TestEntriesRoundTrip:
    def test_from_entries_reconstructs_schedule(self):
        m = Machine(4)
        loc, dist = make_localized(m)
        sched = loc.schedule
        q, p, send, recv = sched.entries()
        # per-element order keys = ghost global indices, aligned with
        # entries -- the wire order a fresh localize produces
        # slot s of requester pp holds ghost_flat[ghost_bounds[pp] + s]
        key_of = loc.ghost_flat[loc.ghost_bounds[p] + recv]
        rebuilt = CommSchedule.from_entries(
            m, sched.dist_signature, q, p, send, recv,
            sched.ghost_sizes, order_key=key_of,
        )
        assert np.array_equal(rebuilt._pair_q, sched._pair_q)
        assert np.array_equal(rebuilt._pair_p, sched._pair_p)
        assert np.array_equal(rebuilt._pair_len, sched._pair_len)
        assert np.array_equal(rebuilt._flat_send, sched._flat_send)
        assert np.array_equal(rebuilt._flat_recv, sched._flat_recv)

    def test_entries_shapes(self):
        m = Machine(4)
        loc, _ = make_localized(m)
        q, p, send, recv = loc.schedule.entries()
        total = int(loc.schedule._pair_len.sum())
        assert q.shape == p.shape == send.shape == recv.shape == (total,)


class TestPatched:
    def test_patched_keep_all_is_identity(self):
        m = Machine(4)
        loc, _ = make_localized(m)
        sched = loc.schedule
        q, p, send, recv = sched.entries()
        # slot s of requester pp holds ghost_flat[ghost_bounds[pp] + s]
        key_of = loc.ghost_flat[loc.ghost_bounds[p] + recv]
        same = sched.patched(
            np.ones(q.size, dtype=bool),
            add_q=np.empty(0, dtype=np.int64),
            add_p=np.empty(0, dtype=np.int64),
            add_send=np.empty(0, dtype=np.int64),
            add_recv=np.empty(0, dtype=np.int64),
            ghost_sizes=sched.ghost_sizes,
            keep_key=key_of,
            add_key=np.empty(0, dtype=np.int64),
        )
        assert np.array_equal(same._flat_send, sched._flat_send)
        assert np.array_equal(same._flat_recv, sched._flat_recv)
        assert same.ghost_sizes == sched.ghost_sizes

    def test_retire_and_append_matches_fresh_construction(self):
        """Dropping some entries and appending others equals building
        from the surviving entry set directly."""
        m = Machine(4)
        loc, _ = make_localized(m, seed=3)
        sched = loc.schedule
        q, p, send, recv = sched.entries()
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
        patched = sched.patched(
            keep, add_q, add_p, add_send, add_recv, new_sizes,
            keep_key=send, add_key=add_send,
        )
        direct = CommSchedule.from_entries(
            m,
            sched.dist_signature,
            np.concatenate([q[keep], add_q]),
            np.concatenate([p[keep], add_p]),
            np.concatenate([send[keep], add_send]),
            np.concatenate([recv[keep], add_recv]),
            new_sizes,
            order_key=np.concatenate([send[keep], add_send]),
        )
        assert np.array_equal(patched._pair_q, direct._pair_q)
        assert np.array_equal(patched._pair_p, direct._pair_p)
        assert np.array_equal(patched._flat_send, direct._flat_send)
        assert np.array_equal(patched._flat_recv, direct._flat_recv)

    def test_bad_keep_mask_rejected(self):
        m = Machine(4)
        loc, _ = make_localized(m)
        with pytest.raises(ValueError, match="keep mask"):
            loc.schedule.patched(
                np.ones(3, dtype=bool),
                add_q=np.empty(0, dtype=np.int64),
                add_p=np.empty(0, dtype=np.int64),
                add_send=np.empty(0, dtype=np.int64),
                add_recv=np.empty(0, dtype=np.int64),
                ghost_sizes=loc.schedule.ghost_sizes,
            )


class TestGhostBuffersPatched:
    def test_contents_copied_to_preserved_positions(self):
        m = Machine(4)
        loc, _ = make_localized(m, seed=5)
        sched = loc.schedule
        ghosts = GhostBuffers(m, sched, dtype=np.float64)
        rng = np.random.default_rng(2)
        ghosts.backing[:] = rng.normal(size=ghosts.backing.size)
        # grow two regions via a patched schedule
        q, p, send, recv = sched.entries()
        sizes = list(sched.ghost_sizes)
        new_sizes = [s + (2 if i % 2 else 0) for i, s in enumerate(sizes)]
        grown = sched.patched(
            np.ones(q.size, dtype=bool),
            add_q=np.empty(0, dtype=np.int64),
            add_p=np.empty(0, dtype=np.int64),
            add_send=np.empty(0, dtype=np.int64),
            add_recv=np.empty(0, dtype=np.int64),
            ghost_sizes=new_sizes,
        )
        new = ghosts.patched(grown)
        for pp in range(4):
            old_seg = ghosts.buf(pp)
            assert np.array_equal(new.buf(pp)[: old_seg.size], old_seg)
            assert (new.buf(pp)[old_seg.size :] == 0).all()

    def test_shrink_rejected(self):
        m = Machine(4)
        loc, _ = make_localized(m, seed=6)
        sched = loc.schedule
        ghosts = GhostBuffers(m, sched, dtype=np.float64)
        if not any(sched.ghost_sizes):
            pytest.skip("no ghosts in this draw")
        q, p, send, recv = sched.entries()
        big = np.argmax(sched.ghost_sizes)
        keep = p != big  # drop one processor's entries entirely
        new_sizes = list(sched.ghost_sizes)
        new_sizes[big] -= 1
        shrunk = sched.patched(
            keep,
            add_q=np.empty(0, dtype=np.int64),
            add_p=np.empty(0, dtype=np.int64),
            add_send=np.empty(0, dtype=np.int64),
            add_recv=np.empty(0, dtype=np.int64),
            ghost_sizes=new_sizes,
        )
        with pytest.raises(ValueError, match="append-only"):
            ghosts.patched(shrunk)

    def test_charges_only_appended_slots(self):
        m = Machine(4)
        loc, _ = make_localized(m, seed=7)
        sched = loc.schedule
        ghosts = GhostBuffers(m, sched, dtype=np.float64)
        q, p, send, recv = sched.entries()
        new_sizes = [s + 3 for s in sched.ghost_sizes]
        grown = sched.patched(
            np.ones(q.size, dtype=bool),
            add_q=np.empty(0, dtype=np.int64),
            add_p=np.empty(0, dtype=np.int64),
            add_send=np.empty(0, dtype=np.int64),
            add_recv=np.empty(0, dtype=np.int64),
            ghost_sizes=new_sizes,
        )
        iops_before = m.counters.iops.copy()
        ghosts.patched(grown)
        from repro.chaos.costs import DEFAULT_COSTS

        delta = m.counters.iops - iops_before
        assert np.allclose(delta, DEFAULT_COSTS.buffer_assign * 3)
