"""Tests for schedule merging (one message per processor pair)."""

import numpy as np
import pytest

from repro.chaos import build_translation_table, localize
from repro.chaos.merge import gather_merged, scatter_op_merged
from repro.distribution import BlockDistribution, DistArray
from repro.machine import Machine
from tests.chaos.pairs import ghost_regions


def setup(m, refs_a, refs_b, n=16):
    dist = BlockDistribution(n, m.n_procs)
    tt = build_translation_table(m, dist)
    loc_a = localize(m, tt, [np.asarray(r, dtype=np.int64) for r in refs_a])
    loc_b = localize(m, tt, [np.asarray(r, dtype=np.int64) for r in refs_b])
    arr_a = DistArray.from_global(m, dist, np.arange(float(n)), name="a")
    arr_b = DistArray.from_global(m, dist, np.arange(float(n)) * 10, name="b")
    gh_a = np.zeros(loc_a.schedule.ghost_total(), dtype=arr_a.dtype)
    gh_b = np.zeros(loc_b.schedule.ghost_total(), dtype=arr_b.dtype)
    return (loc_a, arr_a, gh_a), (loc_b, arr_b, gh_b)


class TestGatherMerged:
    def test_same_values_as_separate_gathers(self):
        m = Machine(4)
        refs_a = [[15], [0], [0], [0]]
        refs_b = [[14, 13], [0], [0], [0]]
        (la, aa, ga), (lb, ab, gb) = setup(m, refs_a, refs_b)
        gather_merged([(la.schedule, aa, ga), (lb.schedule, ab, gb)])
        assert ghost_regions(la.schedule, ga)[0].tolist() == [15.0]
        assert sorted(ghost_regions(lb.schedule, gb)[0].tolist()) == [130.0, 140.0]

    def test_message_count_reduced(self):
        """Two patterns needing the same neighbour: merged pays one
        message where separate gathers pay two."""
        refs_a = [[15], [], [], []]
        refs_b = [[14], [], [], []]

        m_sep = Machine(4)
        (la, aa, ga), (lb, ab, gb) = setup(m_sep, refs_a, refs_b)
        base = m_sep.counters.messages_sent.sum()
        la.schedule.gather(aa, ga)
        lb.schedule.gather(ab, gb)
        sep_msgs = m_sep.counters.messages_sent.sum() - base

        m_mrg = Machine(4)
        (la, aa, ga), (lb, ab, gb) = setup(m_mrg, refs_a, refs_b)
        base = m_mrg.counters.messages_sent.sum()
        gather_merged([(la.schedule, aa, ga), (lb.schedule, ab, gb)])
        mrg_msgs = m_mrg.counters.messages_sent.sum() - base

        assert sep_msgs == 2 and mrg_msgs == 1

    def test_merged_is_faster_on_latency(self):
        refs_a = [[15], [], [], []]
        refs_b = [[14], [], [], []]
        m_sep = Machine(4)
        (la, aa, ga), (lb, ab, gb) = setup(m_sep, refs_a, refs_b)
        t0 = m_sep.elapsed()
        la.schedule.gather(aa, ga)
        lb.schedule.gather(ab, gb)
        t_sep = m_sep.elapsed() - t0

        m_mrg = Machine(4)
        (la, aa, ga), (lb, ab, gb) = setup(m_mrg, refs_a, refs_b)
        t0 = m_mrg.elapsed()
        gather_merged([(la.schedule, aa, ga), (lb.schedule, ab, gb)])
        assert m_mrg.elapsed() - t0 < t_sep

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError, match="nothing to gather"):
            gather_merged([])

    def test_cross_machine_rejected(self):
        m1, m2 = Machine(4), Machine(4)
        (la, aa, ga), _ = setup(m1, [[15], [], [], []], [[14], [], [], []])
        (lb, ab, gb), _ = setup(m2, [[15], [], [], []], [[14], [], [], []])
        with pytest.raises(ValueError, match="different machines"):
            gather_merged([(la.schedule, aa, ga), (lb.schedule, ab, gb)])


class TestScatterOpMerged:
    def test_accumulates_like_separate(self):
        m = Machine(4)
        refs_a = [[15], [], [], []]
        refs_b = [[15], [], [], []]
        (la, aa, ga), (lb, ab, gb) = setup(m, refs_a, refs_b)
        aa.global_set(np.arange(16), np.zeros(16))
        ghost_regions(la.schedule, ga)[0][:] = 2.0
        ghost_regions(lb.schedule, gb)[0][:] = 5.0
        scatter_op_merged(
            [
                (la.schedule, ga, aa, np.add),
                (lb.schedule, gb, aa, np.add),
            ]
        )
        assert aa.to_global()[15] == pytest.approx(7.0)

    def test_non_ufunc_rejected(self):
        m = Machine(4)
        (la, aa, ga), _ = setup(m, [[15], [], [], []], [[14], [], [], []])
        with pytest.raises(TypeError, match="ufunc"):
            scatter_op_merged([(la.schedule, ga, aa, sum)])


class TestExecutorIntegration:
    def test_merged_executor_matches_unmerged(self):
        """merge_communication changes charges, never results."""
        from repro.core import ArrayRef, ForallLoop, Reduce, run_executor, run_inspector

        outs = {}
        for merge in (False, True):
            m = Machine(4)
            rng = np.random.default_rng(4)
            dist = BlockDistribution(20, 4)
            idist = BlockDistribution(30, 4)
            arrays = {
                "x": DistArray.from_global(m, dist, rng.normal(size=20), name="x"),
                "y": DistArray.from_global(m, dist, np.zeros(20), name="y"),
                "ia": DistArray.from_global(m, idist, rng.integers(0, 20, 30), name="ia"),
                "ib": DistArray.from_global(m, idist, rng.integers(0, 20, 30), name="ib"),
            }
            loop = ForallLoop(
                "L",
                30,
                [
                    Reduce("add", ArrayRef("y", "ia"), lambda a, b: a * b,
                           (ArrayRef("x", "ia"), ArrayRef("x", "ib")), flops=2),
                    Reduce("add", ArrayRef("y", "ib"), lambda a, b: a - b,
                           (ArrayRef("x", "ia"), ArrayRef("x", "ib")), flops=2),
                ],
            )
            # per-pattern schedules (coalescing off): message merging is
            # the optimization under test and needs something to merge
            product = run_inspector(m, loop, arrays, coalesce_patterns=False)
            run_executor(m, product, arrays, n_times=3, merge_communication=merge)
            outs[merge] = (arrays["y"].to_global(), m.elapsed())
        assert np.allclose(outs[False][0], outs[True][0])
        assert outs[True][1] <= outs[False][1]  # merging never slower
