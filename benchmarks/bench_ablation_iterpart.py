"""Ablation: iteration-placement rule (DESIGN.md item 3).

The paper's default places each iteration on "the processor that is the
home of the largest number of the iteration's distributed array
references" (almost-owner-computes); the classic owner-computes rule
follows the first left-hand side only.  Section 4.3's motivation is the
read-heavy case: when an iteration's reads cluster on one processor but
its write target lives elsewhere, owner-computes forces every read to be
communicated.  This ablation uses such a loop -- three reads through one
indirection, one reduction through another -- and measures ghost counts,
bytes per sweep, and executor time under both rules.

On the symmetric edge sweep (loop L2) the two rules tie by construction
(two votes per endpoint), which the last check documents.
"""

import numpy as np
from conftest import run_once

from repro.bench import render_table
from repro.core import ArrayRef, ForallLoop, Reduce, run_executor, run_inspector
from repro.distribution import BlockDistribution, DistArray
from repro.machine import Machine
from repro.workloads import generate_mesh, scale_config
from repro.workloads.euler import euler_edge_loop, setup_euler_program


def read_heavy_loop(n_iter):
    """y(ia(i)) += x(ib(i)) + x(ic(i)) * x(id(i)) -- reads outvote the write."""
    return ForallLoop(
        "read_heavy",
        n_iter,
        [
            Reduce(
                "add",
                ArrayRef("y", "ia"),
                lambda b, c, d: b + c * d,
                (ArrayRef("x", "ib"), ArrayRef("x", "ic"), ArrayRef("x", "id")),
                flops=3,
            )
        ],
    )


def run_read_heavy(rule, n=2000, n_iter=4000, procs=8, seed=0):
    rng = np.random.default_rng(seed)
    m = Machine(procs)
    dist = BlockDistribution(n, procs)
    idist = BlockDistribution(n_iter, procs)
    reads = rng.integers(0, n, n_iter)  # the three reads cluster per iteration
    arrays = {
        "x": DistArray.from_global(m, dist, rng.normal(size=n), name="x"),
        "y": DistArray.from_global(m, dist, np.zeros(n), name="y"),
        "ia": DistArray.from_global(m, idist, rng.integers(0, n, n_iter), name="ia"),
        "ib": DistArray.from_global(m, idist, reads, name="ib"),
        "ic": DistArray.from_global(
            m, idist, (reads + rng.integers(0, 3, n_iter)) % n, name="ic"
        ),
        "id": DistArray.from_global(
            m, idist, (reads + rng.integers(0, 3, n_iter)) % n, name="id"
        ),
    }
    loop = read_heavy_loop(n_iter)
    # pinned per-pattern schedules: this ablation's thresholds were tuned
    # before coalescing became the runtime default
    product = run_inspector(
        m, loop, arrays, iter_method=rule, coalesce_patterns=False
    )
    before_bytes = int(m.counters.bytes_sent.sum())
    before_t = m.elapsed()
    run_executor(m, product, arrays, n_times=10)
    return {
        "rule": rule,
        "exec_seconds": m.elapsed() - before_t,
        "bytes_per_sweep": (int(m.counters.bytes_sent.sum()) - before_bytes) / 10,
        "ghost_elements": sum(
            pat.localized.schedule.ghost_total() for pat in product.patterns.values()
        ),
    }


def test_read_heavy_loop_prefers_majority_rule(benchmark, report):
    def run():
        return [
            run_read_heavy("almost_owner"),
            run_read_heavy("owner_computes"),
        ]

    rows = run_once(benchmark, run)
    report(
        "ablation_iterpart",
        render_table(
            "Iteration-placement ablation (read-heavy loop, 10 sweeps)",
            rows,
            [
                ("rule", "Rule"),
                ("exec_seconds", "Executor(10)"),
                ("bytes_per_sweep", "Bytes/sweep"),
                ("ghost_elements", "Ghosts"),
            ],
        ),
    )
    almost, owner = rows
    # majority placement localizes the clustered reads
    assert almost["ghost_elements"] < 0.7 * owner["ghost_elements"]
    assert almost["bytes_per_sweep"] < 0.8 * owner["bytes_per_sweep"]
    assert almost["exec_seconds"] <= owner["exec_seconds"]


def test_symmetric_edge_sweep_ties(benchmark):
    """On loop L2 the two rules place iterations nearly identically (two
    references vote for each endpoint), so neither should win big."""
    scale = scale_config()
    mesh = generate_mesh(scale.mesh_small, seed=1)

    def run():
        out = {}
        for rule in ("almost_owner", "owner_computes"):
            m = Machine(8)
            prog = setup_euler_program(m, mesh, seed=0, iter_method=rule)
            loop = euler_edge_loop(mesh)
            product = run_inspector(
                m,
                loop,
                prog.arrays,
                iter_method=rule,
                ttables=prog.ttables,
                coalesce_patterns=False,
            )
            out[rule] = sum(
                pat.localized.schedule.ghost_total() for pat in product.patterns.values()
            )
        return out

    ghosts = run_once(benchmark, run)
    a, o = ghosts["almost_owner"], ghosts["owner_computes"]
    assert abs(a - o) < 0.1 * max(a, o)
