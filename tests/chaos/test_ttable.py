"""Tests for translation tables."""

import numpy as np
import pytest

from repro.chaos.ttable import (
    DistributedTranslationTable,
    RegularTranslationTable,
    ReplicatedTranslationTable,
    build_translation_table,
)
from repro.distribution import BlockDistribution, CyclicDistribution, IrregularDistribution
from repro.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


def random_irregular(size, n_procs, seed=0):
    rng = np.random.default_rng(seed)
    return IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["replicated", "distributed"])
    def test_matches_distribution(self, m4, variant):
        dist = random_irregular(50, 4)
        tt = build_translation_table(m4, dist, variant=variant)
        g = np.arange(50, dtype=np.int64)
        owners, lidx = tt.dereference(1, g)
        assert np.array_equal(owners, dist.owner(g))
        assert np.array_equal(lidx, dist.local_index(g))

    def test_regular_table(self, m4):
        dist = CyclicDistribution(20, 4)
        tt = build_translation_table(m4, dist)
        assert isinstance(tt, RegularTranslationTable)
        owners, lidx = tt.dereference(0, np.array([5, 6, 7]))
        assert owners.tolist() == [1, 2, 3]

    def test_dereference_all_matches_single(self, m4):
        dist = random_irregular(60, 4, seed=3)
        tt = DistributedTranslationTable(m4, dist)
        refs = [np.arange(p, 60, 4, dtype=np.int64) for p in range(4)]
        batched = tt.dereference_all(refs)
        for p, (owners, lidx) in enumerate(batched):
            assert np.array_equal(owners, dist.owner(refs[p]))
            assert np.array_equal(lidx, dist.local_index(refs[p]))

    def test_empty_reference_list(self, m4):
        dist = random_irregular(10, 4)
        tt = DistributedTranslationTable(m4, dist)
        owners, lidx = tt.dereference(2, np.empty(0, dtype=np.int64))
        assert owners.size == 0 and lidx.size == 0


class TestCosts:
    def test_regular_translation_is_cheap_and_local(self, m4):
        dist = BlockDistribution(100, 4)
        tt = RegularTranslationTable(m4, dist)
        tt.dereference(0, np.arange(100))
        assert m4.counters.messages_sent[0] == 0
        assert m4.counters.clock[0] > 0

    def test_replicated_charges_build_allgather(self):
        m = Machine(4)
        before = m.elapsed()
        ReplicatedTranslationTable(m, random_irregular(100, 4))
        assert m.elapsed() > before
        assert m.counters.messages_sent[0] > 0

    def test_distributed_dereference_messages_page_owners(self):
        m = Machine(4)
        dist = random_irregular(100, 4, seed=1)
        tt = DistributedTranslationTable(m, dist)
        sent_before = m.counters.messages_sent[0]
        # proc 0 asks about indices on pages owned by procs 1..3
        tt.dereference(0, np.arange(30, 100, dtype=np.int64))
        assert m.counters.messages_sent[0] > sent_before

    def test_local_page_probe_sends_nothing(self):
        m = Machine(4)
        dist = random_irregular(100, 4, seed=1)
        tt = DistributedTranslationTable(m, dist)
        m.reset()
        # pages are block-distributed: indices 0..24 live on page-owner 0
        tt.dereference(0, np.arange(0, 25, dtype=np.int64))
        assert m.counters.messages_sent[0] == 0

    def test_batched_dereference_message_parity(self):
        """Batched dereference aggregates by page owner exactly like the
        per-processor path: same message counts, same bytes."""
        dist = random_irregular(200, 4, seed=2)
        refs = [np.arange(200, dtype=np.int64) for _ in range(4)]
        m_serial = Machine(4)
        tt = DistributedTranslationTable(m_serial, dist)
        m_serial.reset()
        for p in range(4):
            tt.dereference(p, refs[p])
        m_batch = Machine(4)
        tt2 = DistributedTranslationTable(m_batch, dist)
        m_batch.reset()
        tt2.dereference_all(refs)
        for p in range(4):
            assert (
                m_batch.counters.messages_sent[p]
                == m_serial.counters.messages_sent[p]
            )
            assert m_batch.counters.bytes_sent[p] == m_serial.counters.bytes_sent[p]

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_batched_equals_non_batched_results_and_traffic(self, seed):
        """Both dereference paths share the paged-request kernel: identical
        translations and identical per-pair request/reply traffic on
        randomized reference lists (duplicates and gaps included)."""
        rng = np.random.default_rng(seed)
        n_procs, size = 8, 150
        dist = random_irregular(size, n_procs, seed=seed)
        refs = [
            rng.integers(0, size, size=int(rng.integers(0, 80))).astype(np.int64)
            for _ in range(n_procs)
        ]
        m_serial = Machine(n_procs)
        tt_serial = DistributedTranslationTable(m_serial, dist)
        m_serial.reset()
        serial = [tt_serial.dereference(p, refs[p]) for p in range(n_procs)]

        m_batch = Machine(n_procs)
        tt_batch = DistributedTranslationTable(m_batch, dist)
        m_batch.reset()
        batched = tt_batch.dereference_all(refs)

        for p in range(n_procs):
            np.testing.assert_array_equal(serial[p][0], batched[p][0])
            np.testing.assert_array_equal(serial[p][1], batched[p][1])
            np.testing.assert_array_equal(serial[p][0], dist.owner(refs[p]))
            np.testing.assert_array_equal(serial[p][1], dist.local_index(refs[p]))
        for name in ("messages_sent", "messages_received", "bytes_sent", "bytes_received"):
            np.testing.assert_array_equal(
                getattr(m_serial.counters, name), getattr(m_batch.counters, name)
            )


class TestFactory:
    def test_auto_regular(self, m4):
        tt = build_translation_table(m4, BlockDistribution(10, 4))
        assert isinstance(tt, RegularTranslationTable)

    def test_auto_irregular(self, m4):
        tt = build_translation_table(m4, random_irregular(10, 4))
        assert isinstance(tt, DistributedTranslationTable)

    def test_regular_variant_rejects_irregular(self, m4):
        with pytest.raises(ValueError, match="regular distribution"):
            build_translation_table(m4, random_irregular(10, 4), variant="regular")

    def test_unknown_variant(self, m4):
        with pytest.raises(ValueError, match="unknown translation table"):
            build_translation_table(m4, BlockDistribution(10, 4), variant="paged")

    def test_machine_mismatch(self, m4):
        with pytest.raises(ValueError, match="spans 8"):
            build_translation_table(m4, BlockDistribution(10, 8))
