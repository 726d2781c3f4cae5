"""Failure injection: the runtime must refuse unsafe operations loudly.

These tests simulate the bugs the paper's machinery exists to prevent --
stale schedules, mismatched machines, corrupted inputs -- and check each
is caught at the runtime boundary rather than corrupting data silently.
"""

import numpy as np
import pytest

from repro.chaos import build_translation_table, localize
from repro.chaos.remap import build_remap_schedule
from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce, run_executor, run_inspector
from repro.distribution import BlockDistribution, CyclicDistribution, DistArray, IrregularDistribution
from repro.machine import Machine


def simple_loop(n):
    return ForallLoop(
        "L",
        n,
        [Reduce("add", ArrayRef("y", "ia"), lambda a: a, (ArrayRef("x", "ia"),))],
    )


def build_arrays(m, n=16):
    rng = np.random.default_rng(0)
    return {
        "x": DistArray.from_global(m, BlockDistribution(n, m.n_procs), rng.normal(size=n), name="x"),
        "y": DistArray.from_global(m, BlockDistribution(n, m.n_procs), np.zeros(n), name="y"),
        "ia": DistArray.from_global(
            m, BlockDistribution(n, m.n_procs), rng.integers(0, n, n), name="ia"
        ),
    }


class TestStaleState:
    def test_executor_refuses_remapped_arrays(self):
        m = Machine(4)
        arrays = build_arrays(m)
        product = run_inspector(m, simple_loop(16), arrays)
        # remap x behind the runtime's back
        new = IrregularDistribution(np.arange(16) % 4, 4)
        vals = arrays["x"].to_global()
        arrays["x"].rebind_flat(
            new, np.concatenate([vals[new.local_indices(p)] for p in range(4)])
        )
        with pytest.raises(ValueError, match="redistributed"):
            run_executor(m, product, arrays)

    def test_schedule_refuses_wrong_distribution(self):
        m = Machine(4)
        arrays = build_arrays(m)
        tt = build_translation_table(m, arrays["x"].distribution)
        res = localize(m, tt, [np.array([15]), np.array([]), np.array([]), np.array([])])
        wrong = DistArray.from_global(m, CyclicDistribution(16, 4), np.zeros(16))
        ghosts = np.zeros(res.schedule.ghost_total())
        with pytest.raises(ValueError, match="stale"):
            res.schedule.gather(wrong, ghosts)

    def test_remap_schedule_refuses_reuse_after_move(self):
        m = Machine(4)
        arr = DistArray.from_global(m, BlockDistribution(12, 4), np.arange(12.0))
        sched = build_remap_schedule(m, arr.distribution, CyclicDistribution(12, 4))
        sched.apply(arr)
        with pytest.raises(ValueError, match="stale"):
            sched.apply(arr)  # arr is cyclic now; schedule expects block

    def test_program_detects_indirection_corruption(self):
        """Overwriting an indirection array between sweeps must trigger
        re-inspection; the re-inspected run must be correct."""
        m = Machine(4)
        prog = IrregularProgram(m)
        prog.decomposition("d", 16)
        prog.distribute("d", "block")
        rng = np.random.default_rng(1)
        x = rng.normal(size=16)
        ia = rng.integers(0, 16, 16)
        prog.array("x", "d", values=x)
        prog.array("y", "d", values=np.zeros(16))
        prog.array("ia", "d", values=ia, dtype=np.int64)
        loop = simple_loop(16)
        prog.forall(loop)
        ia2 = rng.permutation(16)
        prog.set_array("ia", ia2)
        prog.forall(loop)
        want = np.zeros(16)
        np.add.at(want, ia, x[ia])
        np.add.at(want, ia2, x[ia2])
        assert np.allclose(prog.arrays["y"].to_global(), want)
        assert prog.inspector_runs == 2


class TestMachineBoundaries:
    def test_cross_machine_array(self):
        m1, m2 = Machine(4), Machine(4)
        arrays = build_arrays(m1)
        product = run_inspector(m1, simple_loop(16), arrays)
        foreign = build_arrays(m2)
        sched = product.patterns[("x", "ia")].localized.schedule
        with pytest.raises(ValueError, match="different machines"):
            sched.gather(foreign["x"], np.zeros(sched.ghost_total()))

    def test_out_of_range_indirection_values(self):
        m = Machine(4)
        arrays = build_arrays(m)
        arrays["ia"].global_set([0], [99])  # out of x's index space
        with pytest.raises(IndexError, match="out of range"):
            run_inspector(m, simple_loop(16), arrays)

    def test_negative_indirection_values(self):
        m = Machine(4)
        arrays = build_arrays(m)
        arrays["ia"].global_set([3], [-2])
        with pytest.raises(IndexError, match="out of range"):
            run_inspector(m, simple_loop(16), arrays)


class TestProgramMisuse:
    def test_redistribute_unknown_format(self):
        m = Machine(4)
        prog = IrregularProgram(m)
        prog.decomposition("d", 8)
        prog.distribute("d", "block")
        with pytest.raises(ValueError, match="unknown distribution spec"):
            prog.redistribute("d", "nonexistent_fmt")

    def test_redistribute_size_mismatch(self):
        m = Machine(4)
        prog = IrregularProgram(m)
        prog.decomposition("d", 8)
        prog.distribute("d", "block")
        prog.decomposition("e", 12)
        prog.distribute("e", "block")
        # build a distfmt for the wrong size via a GeoCoL on e's arrays
        prog.array("w", "e", values=np.ones(12))
        prog.construct("G", 12, load="w")
        prog.set_distribution("fmt", "G", "LOAD")
        with pytest.raises(ValueError, match="!= decomposition"):
            prog.redistribute("d", "fmt")

    def test_forall_with_undeclared_array(self):
        m = Machine(4)
        prog = IrregularProgram(m)
        with pytest.raises(KeyError, match="unbound array"):
            prog.forall(simple_loop(8))

    def test_negative_sweeps(self):
        m = Machine(4)
        prog = IrregularProgram(m)
        with pytest.raises(ValueError, match="negative execution count"):
            prog.forall(simple_loop(8), n_times=-1)
