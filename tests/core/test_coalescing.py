"""Tests for pattern coalescing (shared schedules across indirections)."""

import numpy as np
import pytest

from repro.core import (
    ArrayRef,
    Assign,
    ForallLoop,
    IrregularProgram,
    Reduce,
    run_executor,
    run_inspector,
)
from repro.distribution import BlockDistribution, DistArray
from repro.machine import Machine


def build_arrays(m, n=24, n_iter=40, seed=0):
    rng = np.random.default_rng(seed)
    dist = BlockDistribution(n, m.n_procs)
    idist = BlockDistribution(n_iter, m.n_procs)
    return {
        "x": DistArray.from_global(m, dist, rng.normal(size=n), name="x"),
        "y": DistArray.from_global(m, dist, np.zeros(n), name="y"),
        "e1": DistArray.from_global(m, idist, rng.integers(0, n, n_iter), name="e1"),
        "e2": DistArray.from_global(m, idist, rng.integers(0, n, n_iter), name="e2"),
    }, rng


def edge_loop(n_iter):
    x1, x2 = ArrayRef("x", "e1"), ArrayRef("x", "e2")
    return ForallLoop(
        "sweep",
        n_iter,
        [
            Reduce("add", ArrayRef("y", "e1"), lambda a, b: a * b, (x1, x2), flops=2),
            Reduce("add", ArrayRef("y", "e2"), lambda a, b: a - b, (x1, x2), flops=2),
        ],
    )


def reference(arrays, times=1):
    x = arrays["x"].to_global()
    e1 = arrays["e1"].to_global()
    e2 = arrays["e2"].to_global()
    y = np.zeros_like(x)
    for _ in range(times):
        np.add.at(y, e1, x[e1] * x[e2])
        np.add.at(y, e2, x[e1] - x[e2])
    return y


class TestCorrectness:
    @pytest.mark.parametrize("n_procs", [1, 2, 4, 8])
    def test_coalesced_matches_reference(self, n_procs):
        m = Machine(n_procs)
        arrays, _ = build_arrays(m)
        loop = edge_loop(40)
        product = run_inspector(m, loop, arrays, coalesce_patterns=True)
        run_executor(m, product, arrays, n_times=3)
        assert np.allclose(arrays["y"].to_global(), reference(arrays, 3))

    def test_coalesced_equals_uncoalesced(self):
        outs = {}
        for co in (False, True):
            m = Machine(4)
            arrays, _ = build_arrays(m, seed=5)
            product = run_inspector(m, edge_loop(40), arrays, coalesce_patterns=co)
            run_executor(m, product, arrays, n_times=2)
            outs[co] = arrays["y"].to_global()
        assert np.allclose(outs[False], outs[True])

    def test_coalesced_siblings_share_one_exec_space(self):
        """The executor's combined-space selectors are sized by the
        localize product alone: x(e1), x(e2) and y(e1), y(e2) -- one
        ghost buffer per array -- get one space per buffer."""
        m = Machine(4)
        arrays, _ = build_arrays(m)
        product = run_inspector(m, edge_loop(40), arrays, coalesce_patterns=True)
        run_executor(m, product, arrays)
        for name in ("x", "y"):
            a, b = (product.patterns[(name, ix)] for ix in ("e1", "e2"))
            assert a.ghosts is b.ghosts
            assert a.exec_space is b.exec_space is not None
        assert product.patterns[("x", "e1")].exec_space is not product.patterns[("y", "e1")].exec_space

    def test_assign_targets_not_coalesced(self):
        """Assign LHS arrays keep per-pattern schedules (and are correct).

        The assigned value is a function of the target element so that
        duplicate targets across iterations receive identical values
        (FORALL assign semantics require single-valuedness)."""
        m = Machine(4)
        arrays, rng = build_arrays(m)
        loop = ForallLoop(
            "assign_sweep",
            40,
            [
                Assign(ArrayRef("y", "e1"), lambda a: 2 * a, (ArrayRef("x", "e1"),)),
            ],
        )
        product = run_inspector(m, loop, arrays, coalesce_patterns=True)
        run_executor(m, product, arrays)
        x = arrays["x"].to_global()
        e1 = arrays["e1"].to_global()
        want = np.zeros(24)
        want[e1] = 2 * x[e1]
        assert np.allclose(arrays["y"].to_global(), want)

    def test_mixed_assign_and_reduce_arrays(self):
        """y reduced via two patterns (coalescible), z assigned via one
        pattern that shares x's reads -- all in one loop."""
        m = Machine(4)
        arrays, rng = build_arrays(m)
        dist = arrays["x"].distribution
        arrays["z"] = DistArray.from_global(m, dist, np.zeros(24), name="z")
        perm = rng.permutation(24)
        idist = arrays["e1"].distribution
        arrays["ip"] = DistArray.from_global(
            m, idist, np.concatenate([perm, perm[:16]]), name="ip"
        )
        loop = ForallLoop(
            "mixed",
            40,
            [
                Reduce("add", ArrayRef("y", "e1"), lambda a, b: a + b,
                       (ArrayRef("x", "e1"), ArrayRef("x", "e2"))),
                Reduce("add", ArrayRef("y", "e2"), lambda a, b: a * b,
                       (ArrayRef("x", "e1"), ArrayRef("x", "e2"))),
                Assign(ArrayRef("z", "ip"), lambda a: a, (ArrayRef("x", "ip"),)),
            ],
        )
        product = run_inspector(m, loop, arrays, coalesce_patterns=True)
        run_executor(m, product, arrays)
        x = arrays["x"].to_global()
        e1, e2, ip = (arrays[k].to_global() for k in ("e1", "e2", "ip"))
        want_y = np.zeros(24)
        np.add.at(want_y, e1, x[e1] + x[e2])
        np.add.at(want_y, e2, x[e1] * x[e2])
        want_z = np.zeros(24)
        want_z[ip] = x[ip]
        assert np.allclose(arrays["y"].to_global(), want_y)
        assert np.allclose(arrays["z"].to_global(), want_z)


class TestSavings:
    def test_shared_schedule_objects(self):
        m = Machine(4)
        arrays, _ = build_arrays(m)
        product = run_inspector(m, edge_loop(40), arrays, coalesce_patterns=True)
        sx1 = product.patterns[("x", "e1")].localized.schedule
        sx2 = product.patterns[("x", "e2")].localized.schedule
        assert sx1 is sx2
        sy1 = product.patterns[("y", "e1")].localized.schedule
        sy2 = product.patterns[("y", "e2")].localized.schedule
        assert sy1 is sy2

    def test_fewer_ghosts_and_messages(self):
        stats = {}
        for co in (False, True):
            m = Machine(8)
            arrays, _ = build_arrays(m, n=200, n_iter=600, seed=2)
            product = run_inspector(m, edge_loop(600), arrays, coalesce_patterns=co)
            # coalesced patterns share ghost buffers: count each once
            unique_ghosts = {
                id(pat.ghosts): pat.ghosts.total_elements()
                for pat in product.patterns.values()
            }
            ghosts = sum(unique_ghosts.values())
            base = m.counters.messages_sent.sum()
            run_executor(m, product, arrays, n_times=1)
            msgs = m.counters.messages_sent.sum() - base
            stats[co] = (ghosts, msgs)
        # double-counted gather elements collapse into the shared region
        assert stats[True][0] < stats[False][0]
        assert stats[True][1] < stats[False][1]

    def test_program_level_flag(self):
        outs = {}
        for co in (False, True):
            m = Machine(4)
            prog = IrregularProgram(m, coalesce_patterns=co)
            prog.decomposition("d", 24)
            prog.distribute("d", "block")
            prog.decomposition("e", 40)
            prog.distribute("e", "block")
            rng = np.random.default_rng(3)
            prog.array("x", "d", values=rng.normal(size=24))
            prog.array("y", "d", values=np.zeros(24))
            prog.array("e1", "e", values=rng.integers(0, 24, 40), dtype=np.int64)
            prog.array("e2", "e", values=rng.integers(0, 24, 40), dtype=np.int64)
            prog.forall(edge_loop(40), n_times=3)
            outs[co] = (prog.arrays["y"].to_global(), m.elapsed())
        assert np.allclose(outs[False][0], outs[True][0])
        assert outs[True][1] <= outs[False][1]
