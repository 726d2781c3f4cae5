"""Tests for the benchmark harness and table assembly (tiny inputs)."""

import numpy as np
import pytest

from repro.bench import (
    ExperimentResult,
    PHASE_NAMES,
    render_table,
    run_euler_experiment,
    run_md_experiment,
)
from repro.bench.harness import COMPILER_EXECUTOR_OVERHEAD
from repro.workloads import generate_mesh


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(300, seed=9)


class TestRunEulerExperiment:
    def test_phases_reported(self, mesh):
        res = run_euler_experiment(mesh, 4, partitioner="RCB", iterations=5)
        assert set(res.phases) == set(PHASE_NAMES)
        assert res.total == pytest.approx(sum(res.phases.values()))
        assert res.phase("executor") > 0

    def test_block_skips_partitioning(self, mesh):
        res = run_euler_experiment(mesh, 4, partitioner="BLOCK", iterations=5)
        assert res.phase("partition") == 0
        assert res.phase("graph_generation") == 0
        assert res.phase("remap") > 0  # the redistribution machinery ran

    def test_hand_vs_compiler_overhead(self, mesh):
        hand = run_euler_experiment(mesh, 4, path="hand", iterations=10)
        comp = run_euler_experiment(mesh, 4, path="compiler", iterations=10)
        assert comp.phase("executor") > hand.phase("executor")
        assert comp.phase("executor") <= (
            COMPILER_EXECUTOR_OVERHEAD * 1.02 * hand.phase("executor")
        )

    def test_no_reuse_multiplies_inspector(self, mesh):
        reuse = run_euler_experiment(mesh, 4, reuse=True, iterations=5)
        no = run_euler_experiment(mesh, 4, reuse=False, iterations=5)
        assert no.phase("inspector") > 4 * reuse.phase("inspector")
        assert no.meta["inspector_runs"] == 5
        assert reuse.meta["inspector_runs"] == 1

    def test_hand_path_no_reuse(self, mesh):
        res = run_euler_experiment(mesh, 4, path="hand", reuse=False, iterations=3)
        assert res.phase("inspector") > 0

    @pytest.mark.parametrize(
        "reuse, iterations, inspector, executor, messages",
        [
            (True, 5, 0.08229657142857141, 0.08219642857142871, 348),
            (False, 3, 0.24108400000000005, 0.050277857142857305, 564),
        ],
    )
    def test_hand_path_is_a_caller_of_the_ladder(
        self, mesh, reuse, iterations, inspector, executor, messages
    ):
        """The hand path inspects through ``IrregularProgram.inspect``:
        its inspections are counted (they read 0 while the harness
        called ``run_inspector`` itself) and every simulated number is
        the one the hand-threaded call produced (values pinned at the
        last commit that had it)."""
        res = run_euler_experiment(
            mesh, 4, path="hand", reuse=reuse, iterations=iterations
        )
        assert res.meta["inspector_runs"] == (1 if reuse else iterations)
        assert res.meta["reuse_hits"] == 0
        assert res.phase("inspector") == inspector
        assert res.phase("executor") == executor
        assert res.meta["messages"] == messages

    def test_rsb_on_hand_path(self, mesh):
        res = run_euler_experiment(mesh, 4, partitioner="RSB", path="hand", iterations=2)
        assert res.phase("graph_generation") > 0
        assert res.phase("partition") > 0

    def test_bad_path_rejected(self, mesh):
        with pytest.raises(ValueError, match="unknown path"):
            run_euler_experiment(mesh, 4, path="magic")

    def test_meta_counters(self, mesh):
        res = run_euler_experiment(mesh, 4, iterations=3)
        assert res.meta["messages"] > 0
        assert res.meta["bytes"] > 0
        assert res.meta["reuse_hits"] == 2


class TestRunMDExperiment:
    def test_basic(self):
        res = run_md_experiment(n_atoms=162, n_procs=4, cutoff=5.0, iterations=3)
        assert res.workload == "md162"
        assert res.phase("executor") > 0

    def test_bad_path_rejected(self):
        with pytest.raises(ValueError, match="unknown path"):
            run_md_experiment(n_atoms=162, path="x")


class TestRenderTable:
    def test_alignment_and_formatting(self):
        rows = [
            {"a": "long-label", "b": 1.23456, "c": 7},
            {"a": "x", "b": 1234.5678, "c": 8},
        ]
        text = render_table("T", rows, [("a", "A"), ("b", "B"), ("c", "C")])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text  # 3-decimal floats
        assert "1234.6" in text  # big floats get 1 decimal
        # all rows padded to equal width
        assert len(lines[2]) == len(lines[3]) == len(lines[1])

    def test_empty_rows(self):
        text = render_table("T", [], [("a", "A")])
        assert "A" in text

    def test_missing_keys_blank(self):
        text = render_table("T", [{"a": 1.0}], [("a", "A"), ("b", "B")])
        assert text.splitlines()[-1].rstrip().endswith("1.000") or "1.000" in text


class TestCLI:
    def test_cli_fig2(self, capsys):
        import sys
        from unittest import mock

        from repro.bench.__main__ import main

        # tiny run: patch the scale to keep the test fast
        with mock.patch.dict("os.environ", {"REPRO_SCALE": "small"}):
            rc = main(["fig2", "--procs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 2 phases" in out

    def test_cli_rejects_unknown_target(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["table9"])
