"""The paper's compiler-vs-hand claim on the second workload (MD)."""

from repro.bench import run_md_experiment


class TestMDCompilerVsHand:
    def test_within_fifteen_percent(self):
        hand = run_md_experiment(
            n_atoms=324, n_procs=8, cutoff=5.0, path="hand", iterations=20
        )
        comp = run_md_experiment(
            n_atoms=324, n_procs=8, cutoff=5.0, path="compiler", iterations=20
        )
        assert comp.total <= 1.15 * hand.total
        assert comp.total >= hand.total  # tracking is never free

    def test_reuse_shape_on_md(self):
        reuse = run_md_experiment(n_atoms=324, n_procs=8, cutoff=5.0, iterations=10)
        no = run_md_experiment(
            n_atoms=324, n_procs=8, cutoff=5.0, iterations=10, reuse=False
        )
        loop = lambda r: r.phase("inspector") + r.phase("executor")
        assert loop(no) > 2 * loop(reuse)

