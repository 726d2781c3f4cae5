"""Tests for program-level options: merged communication, the runtime
record every option leaves in place, and the option surface itself."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np

import repro
from repro.core import DAD, ArrayRef, ForallLoop, IrregularProgram, Reduce
from repro.machine import Machine

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"


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


class TestRuntimeRecord:
    """The Section 3 record stamps every distributed-array write (the
    paper's implementation); there is no narrower scope to opt into."""

    def test_data_writes_are_stamped(self):
        m = Machine(4)
        prog = build(m)
        prog.forall(edge_loop(40), n_times=1)
        # y is written every sweep and stamped each time, yet the loop's
        # record only tracks the indirection DADs, so reuse is unharmed
        stamp = prog.registry.last_mod(DAD.of(prog.arrays["y"]))
        assert stamp > 0
        prog.forall(edge_loop(40), n_times=3)
        assert prog.registry.last_mod(DAD.of(prog.arrays["y"])) > stamp
        assert prog.inspector_runs == 1

    def test_indirection_writes_invalidate(self):
        m = Machine(4)
        prog = build(m)
        prog.forall(edge_loop(40), n_times=1)
        rng = np.random.default_rng(1)
        prog.set_array("end_pt1", rng.integers(0, 24, 40))
        prog.forall(edge_loop(40), n_times=1)
        assert prog.inspector_runs == 2

    def test_same_dad_interference_is_conservative(self):
        """An unrelated array sharing the indirection DAD forces
        re-inspection (tracking is per DAD, not per array)."""
        m = Machine(4)
        prog = build(m)
        prog.array("scratch", "reg2", values=np.zeros(40))
        prog.forall(edge_loop(40), n_times=1)
        prog.set_array("scratch", np.ones(40))
        prog.forall(edge_loop(40), n_times=1)
        assert prog.inspector_runs == 2


class TestOptionSurface:
    """An option stays only while something outside the tests sets it:
    adding one means adding its row, and its caller, to the README."""

    def test_init_options_match_readme_table(self):
        params = inspect.signature(IrregularProgram.__init__).parameters
        options = [name for name in params if name not in ("self", "machine")]
        assert all(params[name].default is not inspect.Parameter.empty for name in options)
        section = README.read_text().split("\n## Program options\n", 1)[1].split("\n## ", 1)[0]
        table = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        assert sorted(options) == sorted(table)
        assert len(options) == 10

    def test_no_function_takes_a_cost_table(self):
        """The CHAOS operation counts are one fixed calibration
        (``repro.chaos.costs.DEFAULT_COSTS``), read at the charge sites."""
        takers = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith(".__main__"):
                continue
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    funcs = [getattr(f, "__func__", f) for f in vars(obj).values()]
                else:
                    funcs = [obj]
                for f in funcs:
                    if inspect.isfunction(f) and "costs" in inspect.signature(f).parameters:
                        takers.append(f"{module.__name__}.{f.__qualname__}")
        assert takers == []
