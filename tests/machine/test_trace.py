"""Tests for message tracing, including protocol-pattern assertions."""

import numpy as np
import pytest

from repro.chaos import GhostBuffers, build_translation_table, localize
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine
from repro.machine.trace import MessageTrace
from tests.chaos.pairs import exchange_pairs


class TestBasics:
    def test_records_sends(self):
        m = Machine(4)
        with MessageTrace(m) as t:
            m.send(0, 1, 100)
            m.send(2, 3, 50)
        assert t.message_count() == 2
        assert t.total_bytes() == 150

    def test_self_and_zero_messages_ignored(self):
        m = Machine(4)
        with MessageTrace(m) as t:
            m.send(1, 1, 100)
            exchange_pairs(m, {(0, 1): 0})
        assert t.message_count() == 0

    def test_exchange_recorded(self):
        m = Machine(4)
        with MessageTrace(m) as t:
            exchange_pairs(m, {(0, 1): 10, (1, 2): 20, (2, 2): 30})
        assert t.pairs() == {(0, 1), (1, 2)}

    def test_detached_after_exit(self):
        m = Machine(4)
        with MessageTrace(m) as t:
            m.send(0, 1, 10)
        m.send(0, 1, 10)  # not traced
        assert t.message_count() == 1

    def test_double_attach_rejected(self):
        m = Machine(4)
        t = MessageTrace(m)
        with t:
            with pytest.raises(RuntimeError, match="already attached"):
                t.__enter__()

    def test_traffic_matrix(self):
        m = Machine(4)
        with MessageTrace(m) as t:
            m.send(0, 3, 100)
            m.send(0, 3, 50)
        mat = t.traffic_matrix()
        assert mat[0, 3] == 150
        assert mat.sum() == 150

    def test_render(self):
        m = Machine(2)
        with MessageTrace(m) as t:
            m.send(0, 1, 4096)
        text = t.render()
        assert "traffic matrix" in text
        assert "4" in text  # 4 KiB


class TestArrayChunkEquivalence:
    """The trace records array chunks; every query must match a naive
    per-message Python accumulation over the same operation sequence."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_trace_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        m = Machine(n)
        naive_events = []
        with MessageTrace(m) as t:
            for _ in range(30):
                kind = rng.choice(["send", "exchange_arrays", "exchange_dict"])
                if kind == "send":
                    s, d = int(rng.integers(n)), int(rng.integers(n))
                    nb = int(rng.integers(0, 500))
                    m.send(s, d, nb)
                    if s != d and nb > 0:
                        naive_events.append((s, d, nb))
                else:
                    k = int(rng.integers(0, 2 * n))
                    src = rng.integers(0, n, k)
                    dst = rng.integers(0, n, k)
                    nb = rng.integers(0, 300, k)
                    if kind == "exchange_dict":
                        mat = {}
                        for s, d, v in zip(src, dst, nb):
                            mat[(int(s), int(d))] = int(v)
                        exchange_pairs(m, mat)
                        pairs = mat.items()
                    else:
                        m.exchange(src=src, dst=dst, nbytes=nb)
                        pairs = [
                            ((int(s), int(d)), int(v))
                            for s, d, v in zip(src, dst, nb)
                        ]
                    for (s, d), v in pairs:
                        if s != d and v > 0:
                            naive_events.append((s, d, v))
        assert [(e.src, e.dst, e.nbytes) for e in t.events] == naive_events
        assert t.message_count() == len(naive_events)
        assert t.total_bytes() == sum(nb for _, _, nb in naive_events)
        assert t.pairs() == {(s, d) for s, d, _ in naive_events}
        expected = np.zeros((n, n), dtype=np.int64)
        for s, d, nb in naive_events:
            expected[s, d] += nb
        np.testing.assert_array_equal(t.traffic_matrix(), expected)

    def test_events_cache_invalidated_by_new_traffic(self):
        m = Machine(2)
        with MessageTrace(m) as t:
            m.send(0, 1, 10)
            first = t.events
            assert len(first) == 1
            m.send(1, 0, 20)
            assert [(e.src, e.dst) for e in t.events] == [(0, 1), (1, 0)]


class TestProtocolPatterns:
    def test_distributed_ttable_request_reply_symmetry(self):
        """Every dereference request message has a matching reply on the
        reverse pair -- the PARTI paged-table protocol."""
        m = Machine(4)
        rng = np.random.default_rng(0)
        dist = IrregularDistribution(rng.integers(0, 4, 64), 4)
        tt = build_translation_table(m, dist, variant="distributed")
        with MessageTrace(m) as t:
            tt.dereference(0, np.arange(64, dtype=np.int64))
        pairs = t.pairs()
        requests = {(a, b) for (a, b) in pairs if a == 0}
        replies = {(b, a) for (a, b) in requests}
        assert replies <= pairs

    def test_gather_traffic_matches_schedule(self):
        """Traced gather bytes equal the schedule's element count times
        the item size."""
        m = Machine(4)
        dist = BlockDistribution(16, 4)
        tt = build_translation_table(m, dist)
        res = localize(
            m,
            tt,
            [np.array([15, 8]), np.array([0]), np.array([]), np.array([4])],
        )
        arr = DistArray.from_global(m, dist, np.arange(16.0))
        ghosts = GhostBuffers(m, res.schedule)
        with MessageTrace(m) as t:
            res.schedule.gather(arr, ghosts)
        assert t.total_bytes() == res.schedule.element_count() * arr.itemsize
