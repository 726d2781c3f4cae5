"""Tests for translation tables."""

import numpy as np
import pytest

from repro.chaos.flatrefs import FlatRefs
from repro.chaos.ttable import (
    DistributedTranslationTable,
    RegularTranslationTable,
    ReplicatedTranslationTable,
    build_translation_table,
)
from repro.distribution import BlockDistribution, CyclicDistribution, IrregularDistribution
from repro.machine import Machine
from tests.chaos import ttable_oracle


@pytest.fixture
def m4():
    return Machine(4)


def random_irregular(size, n_procs, seed=0):
    rng = np.random.default_rng(seed)
    return IrregularDistribution(rng.integers(0, n_procs, size=size), n_procs)


def one_requester(n_procs, p, refs):
    """``(values, bounds)`` of a flat stream in which only ``p`` holds
    references."""
    values = np.asarray(refs, dtype=np.int64)
    bounds = np.zeros(n_procs + 1, dtype=np.int64)
    bounds[p + 1 :] = values.size
    return values, bounds


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["replicated", "distributed"])
    def test_matches_distribution(self, m4, variant):
        dist = random_irregular(60, 4, seed=3)
        tt = build_translation_table(m4, dist, variant=variant)
        refs = FlatRefs.from_lists([np.arange(p, 60, 4, dtype=np.int64) for p in range(4)])
        owners, lidx = tt.dereference_flat(refs.values, refs.bounds)
        assert np.array_equal(owners, dist.owner(refs.values))
        assert np.array_equal(lidx, dist.local_index(refs.values))

    def test_regular_table(self, m4):
        dist = CyclicDistribution(20, 4)
        tt = build_translation_table(m4, dist)
        assert isinstance(tt, RegularTranslationTable)
        owners, lidx = tt.dereference_flat(*one_requester(4, 0, [5, 6, 7]))
        assert owners.tolist() == [1, 2, 3]

    def test_empty_reference_list(self, m4):
        dist = random_irregular(10, 4)
        tt = DistributedTranslationTable(m4, dist)
        owners, lidx = tt.dereference_flat(*one_requester(4, 2, []))
        assert owners.size == 0 and lidx.size == 0


class TestCosts:
    def test_regular_translation_is_cheap_and_local(self, m4):
        dist = BlockDistribution(100, 4)
        tt = RegularTranslationTable(m4, dist)
        tt.dereference_flat(*one_requester(4, 0, np.arange(100)))
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
        tt.dereference_flat(*one_requester(4, 0, np.arange(30, 100)))
        assert m.counters.messages_sent[0] > sent_before

    def test_local_page_probe_sends_nothing(self):
        m = Machine(4)
        dist = random_irregular(100, 4, seed=1)
        tt = DistributedTranslationTable(m, dist)
        m.reset()
        # pages are block-distributed: indices 0..24 live on page-owner 0
        tt.dereference_flat(*one_requester(4, 0, np.arange(0, 25)))
        assert m.counters.messages_sent.sum() == 0


#: every per-processor counter a translation charge moves
CHARGED_COUNTERS = (
    "iops", "messages_sent", "messages_received", "bytes_sent", "bytes_received",
)  # fmt: skip


class TestPerProcessorOracle:
    """The batched phase charges every processor exactly what the
    per-processor form (``ttable_oracle``) charges it, one requesting
    processor at a time: same translations, same iops, messages and
    bytes -- for every table kind, one or two stacked members, counted
    over the whole stream or as processor strips (``strip_counts`` per
    strip, rows stacked, one ``charge_counts``)."""

    @pytest.mark.parametrize("variant", ["regular", "replicated", "distributed"])
    @pytest.mark.parametrize("members", [1, 2])
    @pytest.mark.parametrize("in_strips", [False, True])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_flat_charges_equal_per_processor_charges(
        self, variant, members, in_strips, seed
    ):
        rng = np.random.default_rng(seed)
        n_procs, size = 8, 150
        dist = (
            BlockDistribution(size, n_procs)
            if variant == "regular"
            else random_irregular(size, n_procs, seed=seed)
        )
        # duplicates, gaps and empty lists; every member laid out by the
        # same bounds, as a coalesced pattern group is
        sizes = rng.integers(0, 40, size=n_procs)
        sizes[rng.integers(0, n_procs)] = 0
        bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        stacked = rng.integers(0, size, size=(members, int(bounds[-1])))

        m_flat = Machine(n_procs)
        tt = build_translation_table(m_flat, dist, variant=variant)
        m_flat.reset()
        if in_strips:
            # what the cold localize's strips do: each counts its own
            # processors' references, the rows stack in processor order
            owners, lidx = tt.dist.translate(stacked.ravel())
            rows = []
            for p0, p1 in ((0, 3), (3, 4), (4, n_procs)):
                block = stacked[:, bounds[p0] : bounds[p1]]
                pid = np.repeat(np.arange(p0, p1), sizes[p0:p1])
                rows.append(tt.strip_counts(block, pid, p0, sizes[p0:p1]))
            tt.charge_counts(m_flat, np.concatenate(rows))
        else:
            owners, lidx = tt.dereference_flat(stacked.ravel(), bounds)

        m_one = Machine(n_procs)
        oracle_tt = build_translation_table(m_one, dist, variant=variant)
        m_one.reset()
        per_proc = ttable_oracle.dereference_all(
            oracle_tt,
            [stacked[:, bounds[p] : bounds[p + 1]].ravel() for p in range(n_procs)],
        )

        for p, (o, li) in enumerate(per_proc):
            seg = slice(bounds[p], bounds[p + 1])
            np.testing.assert_array_equal(owners.reshape(members, -1)[:, seg].ravel(), o)
            np.testing.assert_array_equal(lidx.reshape(members, -1)[:, seg].ravel(), li)
        for name in CHARGED_COUNTERS:
            np.testing.assert_array_equal(
                getattr(m_flat.counters, name), getattr(m_one.counters, name), err_msg=name
            )
        if variant == "distributed":
            assert m_flat.counters.messages_sent.sum() > 0


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
