"""Rebalance campaign: incremental remap matches full rebuild bit for bit."""

import numpy as np
import pytest

from repro.workloads import generate_mesh
from repro.workloads.rebalance import drifting_weights, rebalance_moves
from repro.machine import Machine
from tests.workloads.helpers import run_rebalance_campaign, setup_rebalance_program

N_PROCS = 4
EPOCHS = 3


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(300, seed=3)


@pytest.fixture(scope="module")
def campaigns(mesh):
    full = run_rebalance_campaign(
        mesh, N_PROCS, epochs=EPOCHS, sweeps=1, incremental=False, seed=5
    )
    inc = run_rebalance_campaign(
        mesh, N_PROCS, epochs=EPOCHS, sweeps=1, incremental=True, seed=5
    )
    return full, inc


def remap_records(machine):
    return [r for r in machine.stats.phases if r.name == "remap"]


class TestRebalanceMoves:
    def test_moves_restore_balance(self, mesh):
        machine = Machine(N_PROCS)
        prog = setup_rebalance_program(machine, mesh, seed=5)
        dist = prog.decomps["reg"].distribution
        w = drifting_weights(mesh, 0, seed=5)
        move_g, move_to = rebalance_moves(dist, w, slack=0.05)
        assert move_g.size > 0
        loads = np.bincount(
            np.asarray(dist.owner(np.arange(mesh.n_nodes))),
            weights=w,
            minlength=N_PROCS,
        )
        new_owner = np.asarray(dist.owner(np.arange(mesh.n_nodes)))
        new_owner[move_g] = move_to
        new_loads = np.bincount(new_owner, weights=w, minlength=N_PROCS)
        assert new_loads.max() < loads.max()

    def test_moves_are_deterministic(self, mesh):
        machine = Machine(N_PROCS)
        prog = setup_rebalance_program(machine, mesh, seed=5)
        dist = prog.decomps["reg"].distribution
        w = drifting_weights(mesh, 1, seed=5)
        a = rebalance_moves(dist, w)
        b = rebalance_moves(dist, w)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_move_count_scales_with_imbalance_not_size(self, mesh):
        machine = Machine(N_PROCS)
        prog = setup_rebalance_program(machine, mesh, seed=5)
        dist = prog.decomps["reg"].distribution
        w = drifting_weights(mesh, 0, seed=5)
        move_g, _ = rebalance_moves(dist, w, slack=0.05)
        assert move_g.size < mesh.n_nodes // 4


class TestCampaignEquivalence:
    def test_array_contents_bit_identical(self, campaigns):
        (m_f, p_f, mv_f), (m_i, p_i, mv_i) = campaigns
        assert mv_f == mv_i
        assert all(n > 0 for n in mv_f)
        for name in p_f.arrays:
            assert np.array_equal(
                p_f.arrays[name].to_global(), p_i.arrays[name].to_global()
            ), name
            # identical flat backing too: both modes land on the same
            # repartition_stable layout, not merely the same values
            assert np.array_equal(
                p_f.arrays[name].backing_ro, p_i.arrays[name].backing_ro
            ), name

    def test_distributions_identical(self, campaigns):
        (_, p_f, _), (_, p_i, _) = campaigns
        assert (
            p_f.decomps["reg"].distribution.signature()
            == p_i.decomps["reg"].distribution.signature()
        )

    def test_non_remap_phases_equal(self, campaigns):
        # same simulated work outside the remap phase: elapsed values
        # agree to the last few ulps (the differing remap charges shift
        # the absolute clock each phase delta is computed against, so
        # exact float equality is not achievable)
        (m_f, _, _), (m_i, _, _) = campaigns
        other_f = [r for r in m_f.stats.phases if r.name != "remap"]
        other_i = [r for r in m_i.stats.phases if r.name != "remap"]
        assert len(other_f) == len(other_i)
        for ra, rb in zip(other_f, other_i):
            assert ra.name == rb.name
            assert abs(ra.elapsed - rb.elapsed) < 1e-12

    def test_incremental_remap_cheaper_every_epoch(self, campaigns, mesh):
        (m_f, _, _), (m_i, _, _) = campaigns
        rec_f, rec_i = remap_records(m_f), remap_records(m_i)
        # record 0 is the initial RCB redistribute (same path both
        # modes); the rest are the per-epoch rebalances
        assert len(rec_f) == len(rec_i) == 1 + EPOCHS
        assert rec_f[0].elapsed == rec_i[0].elapsed
        for ra, rb in zip(rec_f[1:], rec_i[1:]):
            assert rb.elapsed < ra.elapsed

    def test_remap_cost_proportional_to_delta(self, campaigns, mesh):
        (_, _, moves), (m_i, _, _) = campaigns
        rec = remap_records(m_i)[1:]
        # simulated patched-remap time per moved element should be flat
        # across epochs (within noise): cost tracks the delta
        per_move = [r.elapsed / n for r, n in zip(rec, moves)]
        assert max(per_move) < 10 * min(per_move)
