"""Message traffic read at ``Machine.charge_exchange``: what a spy on
the choke point sees, including protocol-pattern assertions."""

import numpy as np
import pytest

from repro.chaos import build_translation_table, localize
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine
from tests.chaos.pairs import exchange_pairs
from tests.machine.traffic import byte_matrix, charges, messages, spy_exchanges


def pairs(spy):
    src, dst, _ = messages(spy)
    return set(zip(src.tolist(), dst.tolist()))


class TestBasics:
    def test_self_and_zero_messages_ignored(self):
        """A self copy and a zero-byte pair are not messages: the charge
        counts neither and the zero-byte pair is not even held."""
        m = Machine(4)
        with spy_exchanges(m) as spy:
            exchange_pairs(m, {(0, 1): 0, (1, 1): 100})
        (charge,) = charges(spy)
        assert charge.n_messages == 0 and charge.n_bytes == 0
        assert charge.src.tolist() == charge.dst.tolist() == [1]
        assert messages(spy)[0].size == 0

    def test_exchange_recorded(self):
        m = Machine(4)
        with spy_exchanges(m) as spy:
            exchange_pairs(m, {(0, 1): 10, (1, 2): 20, (2, 2): 30})
        assert pairs(spy) == {(0, 1), (1, 2)}


class TestArrayChunkEquivalence:
    """Each charge holds its traffic as one array triple; read back over
    a whole operation sequence it must match a naive per-message Python
    accumulation."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_trace_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        m = Machine(n)
        naive_events = []
        with spy_exchanges(m) as spy:
            for _ in range(30):
                k = int(rng.integers(0, 2 * n))
                src = rng.integers(0, n, k)
                dst = rng.integers(0, n, k)
                nb = rng.integers(0, 300, k)
                if rng.random() < 0.5:
                    mat = {}
                    for s, d, v in zip(src, dst, nb):
                        mat[(int(s), int(d))] = int(v)
                    exchange_pairs(m, mat)
                    sent = mat.items()
                else:
                    m.exchange(src=src, dst=dst, nbytes=nb)
                    sent = [
                        ((int(s), int(d)), int(v)) for s, d, v in zip(src, dst, nb)
                    ]
                for (s, d), v in sent:
                    if s != d and v > 0:
                        naive_events.append((s, d, v))
        src, dst, nbytes = messages(spy)
        assert list(zip(src.tolist(), dst.tolist(), nbytes.tolist())) == naive_events
        seen = charges(spy)
        assert sum(c.n_messages for c in seen) == len(naive_events)
        assert sum(c.n_bytes for c in seen) == sum(nb for _, _, nb in naive_events)
        expected = np.zeros((n, n), dtype=np.int64)
        for s, d, nb in naive_events:
            expected[s, d] += nb
        np.testing.assert_array_equal(byte_matrix(spy, n), expected)
        # and the counters the charges were applied to agree
        np.testing.assert_array_equal(m.counters.bytes_sent, expected.sum(axis=1))
        np.testing.assert_array_equal(m.counters.bytes_received, expected.sum(axis=0))


class TestProtocolPatterns:
    def test_distributed_ttable_request_reply_symmetry(self):
        """Every dereference request message has a matching reply on the
        reverse pair -- the PARTI paged-table protocol."""
        m = Machine(4)
        rng = np.random.default_rng(0)
        dist = IrregularDistribution(rng.integers(0, 4, 64), 4)
        tt = build_translation_table(m, dist, variant="distributed")
        with spy_exchanges(m) as spy:
            # processor 0 holds every reference, the others none
            tt.dereference_flat(np.arange(64), np.array([0, 64, 64, 64, 64]))
        seen = pairs(spy)
        requests = {(a, b) for (a, b) in seen if a == 0}
        assert requests
        replies = {(b, a) for (a, b) in requests}
        assert replies <= seen

    def test_gather_traffic_matches_schedule(self):
        """Gather bytes at the choke point equal the schedule's element
        count times the item size."""
        m = Machine(4)
        dist = BlockDistribution(16, 4)
        tt = build_translation_table(m, dist)
        res = localize(
            m,
            tt,
            [np.array([15, 8]), np.array([0]), np.array([]), np.array([4])],
        )
        arr = DistArray.from_global(m, dist, np.arange(16.0))
        ghosts = np.zeros(res.schedule.ghost_total())
        with spy_exchanges(m) as spy:
            res.schedule.gather(arr, ghosts)
        (charge,) = charges(spy)
        assert charge.n_bytes == res.schedule.element_count() * arr.itemsize
