"""Tests for program-level options: merged communication and the
Section 3 tracking-scope optimization."""

import numpy as np
import pytest

from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce
from repro.machine import Machine


def edge_loop(n_edges):
    x1, x2 = ArrayRef("x", "end_pt1"), ArrayRef("x", "end_pt2")
    return ForallLoop(
        "edge_sweep",
        n_edges,
        [
            Reduce("add", ArrayRef("y", "end_pt1"), lambda a, b: a * b, (x1, x2), flops=2),
            Reduce("add", ArrayRef("y", "end_pt2"), lambda a, b: a - b, (x1, x2), flops=2),
        ],
    )


def build(m, n_nodes=24, n_edges=40, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    e1 = rng.integers(0, n_nodes, n_edges)
    e2 = (e1 + 1 + rng.integers(0, n_nodes - 1, n_edges)) % n_nodes
    prog = IrregularProgram(m, **kwargs)
    prog.decomposition("reg", n_nodes)
    prog.decomposition("reg2", n_edges)
    prog.distribute("reg", "block")
    prog.distribute("reg2", "block")
    prog.array("x", "reg", values=rng.normal(size=n_nodes))
    prog.array("y", "reg", values=np.zeros(n_nodes))
    prog.array("end_pt1", "reg2", values=e1, dtype=np.int64)
    prog.array("end_pt2", "reg2", values=e2, dtype=np.int64)
    return prog


class TestMergeCommunication:
    def test_results_identical(self):
        outs = {}
        for merge in (False, True):
            m = Machine(4)
            prog = build(m, merge_communication=merge)
            prog.forall(edge_loop(40), n_times=5)
            outs[merge] = prog.arrays["y"].to_global()
        assert np.allclose(outs[False], outs[True])

    def test_merging_reduces_time_and_messages(self):
        stats = {}
        for merge in (False, True):
            m = Machine(8)
            # coalescing off: with one schedule per array there is
            # nothing left for message merging to combine
            prog = build(
                m,
                n_nodes=200,
                n_edges=800,
                merge_communication=merge,
                coalesce_patterns=False,
            )
            m.reset()
            prog.forall(edge_loop(800), n_times=10)
            stats[merge] = (
                m.elapsed(),
                m.counters.messages_sent.sum(),
            )
        assert stats[True][1] < stats[False][1]
        assert stats[True][0] < stats[False][0]


class TestTrackingScope:
    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError, match="tracking scope"):
            IrregularProgram(Machine(2), tracking_scope="everything")

    def test_data_writes_not_stamped_under_narrow_scope(self):
        m = Machine(4)
        prog = build(m, tracking_scope="indirection")
        prog.forall(edge_loop(40), n_times=1)
        # y writes happen every sweep; under the narrow scope they are
        # never stamped (y's DAD differs from the indirection DADs)
        from repro.core import DAD

        assert prog.registry.last_mod(DAD.of(prog.arrays["y"])) == 0
        prog.forall(edge_loop(40), n_times=3)
        assert prog.inspector_runs == 1  # reuse unharmed

    def test_indirection_writes_still_invalidate(self):
        """Safety: the narrowed scope must still catch indirection-array
        writes (registered at first inspection)."""
        m = Machine(4)
        prog = build(m, tracking_scope="indirection")
        prog.forall(edge_loop(40), n_times=1)
        rng = np.random.default_rng(1)
        prog.set_array("end_pt1", rng.integers(0, 24, 40))
        prog.forall(edge_loop(40), n_times=1)
        assert prog.inspector_runs == 2

    def test_same_dad_interference_still_conservative(self):
        """An unrelated array sharing the indirection DAD still forces
        re-inspection under the narrow scope (DAD-level tracking)."""
        m = Machine(4)
        prog = build(m, tracking_scope="indirection")
        prog.array("scratch", "reg2", values=np.zeros(40))
        prog.forall(edge_loop(40), n_times=1)
        prog.set_array("scratch", np.ones(40))
        prog.forall(edge_loop(40), n_times=1)
        assert prog.inspector_runs == 2

    def test_results_identical_across_scopes(self):
        outs = {}
        for scope in ("all", "indirection"):
            m = Machine(4)
            prog = build(m, tracking_scope=scope)
            prog.forall(edge_loop(40), n_times=4)
            prog.set_array("end_pt2", np.zeros(40, dtype=np.int64))
            prog.forall(edge_loop(40), n_times=2)
            outs[scope] = prog.arrays["y"].to_global()
        assert np.allclose(outs["all"], outs["indirection"])

    def test_narrow_scope_cheaper_with_many_data_writes(self):
        times = {}
        for scope in ("all", "indirection"):
            m = Machine(4)
            prog = build(m, tracking_scope=scope)
            prog.forall(edge_loop(40), n_times=1)
            m.reset()
            for s in range(30):
                prog.set_array("y", np.full(24, float(s)))
                prog.forall(edge_loop(40), n_times=1)
            times[scope] = m.elapsed()
        assert times["indirection"] <= times["all"]
