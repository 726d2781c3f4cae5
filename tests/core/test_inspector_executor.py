"""Inspector/executor correctness: simulated loops == sequential NumPy."""

import numpy as np
import pytest

from repro.core import (
    ArrayRef,
    Assign,
    ForallLoop,
    Reduce,
    run_executor,
    run_inspector,
)
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


def build(m, n_data=16, n_iter=24, seed=0, dist=None):
    """Random x/y plus random indirection arrays ia/ib/ic."""
    rng = np.random.default_rng(seed)
    dist = dist or BlockDistribution(n_data, m.n_procs)
    idist = BlockDistribution(n_iter, m.n_procs)
    arrays = {
        "x": DistArray.from_global(m, dist, rng.normal(size=n_data), name="x"),
        "y": DistArray.from_global(m, dist, np.zeros(n_data), name="y"),
        "ia": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ia"
        ),
        "ib": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ib"
        ),
        "ic": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ic"
        ),
    }
    return arrays, rng


class TestL2EdgeSweep:
    """The paper's loop L2: reductions at both edge endpoints."""

    def reference(self, x, y, e1, e2):
        out = y.copy()
        np.add.at(out, e1, x[e1] * x[e2])
        np.add.at(out, e2, x[e1] - x[e2])
        return out

    def make_loop(self, n_iter):
        x1, x2 = ArrayRef("x", "ia"), ArrayRef("x", "ib")
        return ForallLoop(
            "L2",
            n_iter,
            [
                Reduce("add", ArrayRef("y", "ia"), lambda a, b: a * b, (x1, x2), flops=2),
                Reduce("add", ArrayRef("y", "ib"), lambda a, b: a - b, (x1, x2), flops=2),
            ],
        )

    @pytest.mark.parametrize("n_procs", [1, 2, 4, 8])
    def test_matches_sequential(self, n_procs):
        m = Machine(n_procs)
        arrays, _ = build(m)
        loop = self.make_loop(24)
        want = self.reference(
            arrays["x"].to_global(),
            arrays["y"].to_global(),
            arrays["ia"].to_global(),
            arrays["ib"].to_global(),
        )
        product = run_inspector(m, loop, arrays)
        run_executor(m, product, arrays)
        assert np.allclose(arrays["y"].to_global(), want)

    def test_irregular_distribution(self, m4):
        rng = np.random.default_rng(7)
        dist = IrregularDistribution(rng.integers(0, 4, 16), 4)
        arrays, _ = build(m4, dist=dist, seed=7)
        loop = self.make_loop(24)
        want = self.reference(
            arrays["x"].to_global(),
            arrays["y"].to_global(),
            arrays["ia"].to_global(),
            arrays["ib"].to_global(),
        )
        product = run_inspector(m4, loop, arrays)
        run_executor(m4, product, arrays)
        assert np.allclose(arrays["y"].to_global(), want)

    def test_repeated_executions_accumulate(self, m4):
        arrays, _ = build(m4)
        loop = self.make_loop(24)
        product = run_inspector(m4, loop, arrays)
        run_executor(m4, product, arrays, n_times=3)
        want = arrays["y"].to_global()  # recompute reference 3x
        arrays2, _ = build(Machine(4))
        ref = arrays2["y"].to_global()
        for _ in range(3):
            ref = self.reference(
                arrays2["x"].to_global(),
                ref,
                arrays2["ia"].to_global(),
                arrays2["ib"].to_global(),
            )
        assert np.allclose(want, ref)


class TestL1SingleStatement:
    """The paper's loop L1: y(ia(i)) = x(ib(i)) + x(ic(i))."""

    def test_matches_sequential(self, m4):
        # FORALL assign semantics require single-valued targets, so ia is
        # a permutation-like injection into y (duplicate targets would be
        # order-dependent and are not legal FORALL programs)
        arrays, rng = build(m4, n_data=24, n_iter=24, seed=3)
        arrays["ia"].global_set(np.arange(24), rng.permutation(24))
        loop = ForallLoop(
            "L1",
            24,
            [
                Assign(
                    ArrayRef("y", "ia"),
                    lambda b, c: b + c,
                    (ArrayRef("x", "ib"), ArrayRef("x", "ic")),
                    flops=1,
                )
            ],
        )
        x = arrays["x"].to_global()
        ia = arrays["ia"].to_global()
        want = arrays["y"].to_global()
        want[ia] = x[arrays["ib"].to_global()] + x[arrays["ic"].to_global()]
        product = run_inspector(m4, loop, arrays)
        run_executor(m4, product, arrays)
        assert np.allclose(arrays["y"].to_global(), want)

    def test_direct_lhs(self, m4):
        """y(i) = 2*x(ib(i)) -- direct write, indirect read."""
        arrays, _ = build(m4, n_data=24, n_iter=24, seed=5)
        loop = ForallLoop(
            "Ld",
            24,
            [Assign(ArrayRef("y"), lambda b: 2 * b, (ArrayRef("x", "ib"),))],
        )
        want = 2 * arrays["x"].to_global()[arrays["ib"].to_global()]
        product = run_inspector(m4, loop, arrays)
        run_executor(m4, product, arrays)
        assert np.allclose(arrays["y"].to_global(), want)


class TestReductionOps:
    @pytest.mark.parametrize(
        "op,combine",
        [("min", np.minimum), ("max", np.maximum), ("multiply", np.multiply)],
    )
    def test_non_add_reductions(self, m4, op, combine):
        arrays, rng = build(m4, seed=11)
        init = rng.normal(size=16)
        arrays["y"].global_set(np.arange(16), init)
        loop = ForallLoop(
            "Lr",
            24,
            [Reduce(op, ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),))],
        )
        want = init.copy()
        ufunc = combine
        ufunc.at(want, arrays["ia"].to_global(), arrays["x"].to_global()[arrays["ib"].to_global()])
        product = run_inspector(m4, loop, arrays)
        run_executor(m4, product, arrays)
        assert np.allclose(arrays["y"].to_global(), want)


class TestValidationAndCosts:
    def test_missing_array(self, m4):
        arrays, _ = build(m4)
        del arrays["ib"]
        loop = ForallLoop(
            "L", 24, [Assign(ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),))]
        )
        with pytest.raises(KeyError, match="ib"):
            run_inspector(m4, loop, arrays)

    @pytest.mark.parametrize("method", ["almost_owner", "owner_computes"])
    def test_indirection_of_another_size_is_refused(self, method):
        """Position i of an indirection is iteration i.  The partitioner
        checks only the references its method votes over -- under
        owner_computes just the LHS -- so an RHS indirection longer than
        the loop used to pass inspection and crash the patch rung's
        re-vote with an IndexError.  The inspector refuses it up front,
        naming the array, before anything is charged."""
        from repro.core import IrregularProgram

        m = Machine(4)
        prog = IrregularProgram(m, iter_method=method, incremental=True)
        prog.decomposition("d", 40)
        prog.distribute("d", "block")
        prog.array("x", "d", values=np.arange(40.0))
        prog.array("y", "d", values=np.zeros(40))
        prog.array("edge", "d", values=np.arange(40)[::-1].copy(), dtype=np.int64)
        loop = ForallLoop(
            "L", 30, [Assign(ArrayRef("y"), lambda a: a, (ArrayRef("x", "edge"),))]
        )
        message = "'edge' has size 40, loop 'L' iterates 30"
        before = m.elapsed()
        with pytest.raises(ValueError, match=message):
            run_inspector(m, loop, prog.arrays, iter_method=method)
        assert m.elapsed() == before
        with pytest.raises(ValueError, match=message):
            prog.forall(loop)
        assert prog.inspector_runs == 0 and loop.name not in prog.records

    def test_stale_product_rejected(self, m4):
        arrays, rng = build(m4)
        loop = ForallLoop(
            "L", 24, [Assign(ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),))]
        )
        product = run_inspector(m4, loop, arrays)
        new = IrregularDistribution(rng.integers(0, 4, 16), 4)
        vals = arrays["x"].to_global()
        arrays["x"].rebind_flat(
            new, np.concatenate([vals[new.local_indices(p)] for p in range(4)])
        )
        with pytest.raises(ValueError, match="redistributed"):
            run_executor(m4, product, arrays)

    def test_conflicting_write_semantics_rejected(self, m4):
        arrays, _ = build(m4)
        loop = ForallLoop(
            "L",
            24,
            [
                Assign(ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),)),
                Reduce("add", ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),)),
            ],
        )
        product = run_inspector(m4, loop, arrays)
        with pytest.raises(ValueError, match="conflicting"):
            run_executor(m4, product, arrays)

    def test_executor_charges_flops_and_messages(self, m4):
        arrays, _ = build(m4)
        loop = ForallLoop(
            "L",
            24,
            [Reduce("add", ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),), flops=3)],
        )
        product = run_inspector(m4, loop, arrays)
        m4.reset()
        run_executor(m4, product, arrays)
        total_flops = m4.counters.flops.sum()
        assert total_flops >= 3 * 24  # statement flops at least
        assert m4.elapsed() > 0

    def test_overhead_factor_scales_compute(self, m4):
        arrays, _ = build(m4)
        loop = ForallLoop(
            "L",
            24,
            [Reduce("add", ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),), flops=50)],
        )
        product = run_inspector(m4, loop, arrays)

        m_plain = Machine(4)
        arrays_p, _ = build(m_plain)
        prod_p = run_inspector(m_plain, loop, arrays_p)
        m_plain.reset()
        run_executor(m_plain, prod_p, arrays_p, overhead_factor=1.0)
        t_plain = m_plain.elapsed()

        m_over = Machine(4)
        arrays_o, _ = build(m_over)
        prod_o = run_inspector(m_over, loop, arrays_o)
        m_over.reset()
        run_executor(m_over, prod_o, arrays_o, overhead_factor=1.10)
        assert m_over.elapsed() > t_plain

    def test_bad_overhead_rejected(self, m4):
        arrays, _ = build(m4)
        loop = ForallLoop(
            "L", 24, [Assign(ArrayRef("y", "ia"), lambda b: b, (ArrayRef("x", "ib"),))]
        )
        product = run_inspector(m4, loop, arrays)
        with pytest.raises(ValueError, match="overhead_factor"):
            run_executor(m4, product, arrays, overhead_factor=0.5)
