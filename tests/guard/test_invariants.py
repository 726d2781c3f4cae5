"""Invariant checkers: pass on healthy products, catch seeded corruption."""

import dataclasses

import numpy as np
import pytest

from repro.chaos.schedule import CommSchedule
from repro.guard import (
    InvariantViolation,
    check_level,
    gather_divergence,
    verify_adapt_state,
    verify_partition,
    verify_product,
    verify_schedule,
)
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program


def build(n_procs=4, incremental=True, coalesce=True, **kwargs):
    mesh = generate_mesh(300, seed=4)
    machine = Machine(n_procs)
    prog = setup_euler_program(
        machine,
        mesh,
        seed=11,
        incremental=incremental,
        coalesce_patterns=coalesce,
        **kwargs,
    )
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    loop = euler_edge_loop(mesh)
    return mesh, machine, prog, loop


def inspected(**kwargs):
    mesh, machine, prog, loop = build(**kwargs)
    prog.forall(loop, n_times=1)
    return mesh, prog, loop, prog.records[loop.name].product


class TestLevels:
    def test_valid_levels(self):
        for level in ("off", "cheap", "full"):
            assert check_level(level) == level

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="guard level"):
            check_level("paranoid")

    def test_program_env_default(self, monkeypatch):
        from repro.core.program import IrregularProgram

        monkeypatch.setenv("REPRO_GUARD", "cheap")
        assert IrregularProgram(Machine(2)).guard == "cheap"
        monkeypatch.delenv("REPRO_GUARD")
        assert IrregularProgram(Machine(2)).guard == "off"
        assert IrregularProgram(Machine(2), guard="full").guard == "full"
        with pytest.raises(ValueError, match="guard level"):
            IrregularProgram(Machine(2), guard="nope")


class TestHealthyProducts:
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_fresh_product_passes_full(self, coalesce):
        mesh, prog, loop, product = inspected(coalesce=coalesce)
        verify_product(product, prog.arrays, "full")
        prog.adapt.state_of(product, "test")
        verify_adapt_state(product, prog.arrays, "full")

    def test_patched_product_passes_full(self):
        mesh, prog, loop, product = inspected()
        rng = np.random.default_rng(0)
        edges = mesh.edges.copy()
        pick = np.sort(rng.choice(mesh.n_edges, size=20, replace=False))
        edges[1, pick] = (edges[0, pick] + 1 + rng.integers(
            0, mesh.n_nodes - 1, pick.size
        )) % mesh.n_nodes
        prog.set_array_elements("end_pt2", pick, edges[1, pick])
        prog.forall(loop, n_times=1)
        assert prog.patch_hits == 1
        product = prog.records[loop.name].product
        assert product.adapt_state is not None  # checked with the product
        verify_product(product, prog.arrays, "full")

    def test_off_level_skips_everything(self):
        # an obviously broken object passes at level off (never inspected)
        verify_schedule(object(), "off")
        verify_partition(object(), level="off")
        verify_product(object(), {}, "off")


class TestCorruptionDetected:
    def test_recv_slot_out_of_range(self):
        _, prog, _, product = inspected()
        pat = next(iter(product.patterns.values()))
        sched = pat.localized.schedule
        if not sched._unpack_pos.size:
            pytest.skip("no ghosts on this configuration")
        # in-place corruption through the array the schedule was built
        # from (it holds a read-only view): construction-time validation
        # can't see it
        sched._unpack_pos.base[0] = sched.ghost_total() + 5
        with pytest.raises(InvariantViolation, match="slot out of range"):
            verify_schedule(sched, "cheap")

    def test_non_canonical_pair_order(self):
        _, prog, _, product = inspected()
        pat = next(iter(product.patterns.values()))
        sched = pat.localized.schedule
        if sched._pair_q.size < 2:
            pytest.skip("needs at least two pairs")
        perm = np.arange(sched._pair_q.size)[::-1].copy()
        starts = np.concatenate(([0], np.cumsum(sched._pair_len)))
        order = np.concatenate(
            [np.arange(starts[i], starts[i + 1]) for i in perm]
        )
        sched = CommSchedule(
            sched.machine,
            sched.dist_signature,
            sched._pair_q[perm],
            sched._pair_p[perm],
            sched._pair_len[perm],
            sched._unpack_pos[order],
            sched._lidx,
            sched._ghost_off,
        )
        with pytest.raises(InvariantViolation, match="pair order"):
            verify_schedule(sched, "cheap")

    def test_ghost_bounds_disagree_with_schedule(self):
        """The slot layout the executor sizes its ghost scratch by is the
        schedule's: a pattern whose ghost bounds describe another one is
        refused."""
        _, prog, _, product = inspected()
        pat = next(
            p for p in product.patterns.values() if p.localized.schedule.ghost_total()
        )
        bounds = np.array(pat.localized.slots.slot_bounds)
        bounds[1:] += 1  # one slot more on processor 0
        pat.localized.slots = dataclasses.replace(pat.localized.slots, slot_bounds=bounds)
        with pytest.raises(InvariantViolation, match="slot bounds disagree"):
            verify_product(product, prog.arrays, "cheap")

    def test_partition_lost_iteration(self):
        _, prog, _, product = inspected()
        part = product.iteration_partition
        flat, _ = part.iters_flat()
        # the translation cache freezes its stored products; thaw to
        # simulate corruption of the shared storage
        flat.flags.writeable = True
        flat[0] = flat[1]  # duplicate one iteration, lose another
        verify_partition(part, level="cheap")  # structure still fine
        with pytest.raises(InvariantViolation, match="permutation"):
            verify_partition(part, level="full")

    def test_stale_distribution_signature(self):
        _, prog, loop, product = inspected()
        prog.redistribute("reg", "block")
        with pytest.raises(InvariantViolation, match="redistributed"):
            verify_product(product, prog.arrays, "cheap")

    def test_flipped_slots_caught_by_state_check(self):
        from repro.guard.faults import FaultPlan

        _, prog, loop, product = inspected()
        prog.adapt.state_of(product, "test")
        pat = next(iter(product.patterns.values()))
        assert FaultPlan._flip_schedule(pat.localized.schedule)
        with pytest.raises(InvariantViolation, match="slot map"):
            verify_adapt_state(product, prog.arrays, "cheap")

    def test_drifted_reference_counts_full_only(self):
        _, prog, loop, product = inspected()
        state = prog.adapt.state_of(product, "test")
        gstate = next(
            g for g in state.groups.values() if (g.counts > 0).any()
        )
        live = np.flatnonzero(gstate.counts > 0)
        gstate.counts[live[0]] += 1
        verify_adapt_state(product, prog.arrays, "cheap")
        with pytest.raises(InvariantViolation, match="counts drifted"):
            verify_adapt_state(product, prog.arrays, "full")


class TestContentChecks:
    def test_gather_divergence_detects_corruption(self):
        _, prog, _, product = inspected()
        key = next(k for k in product.patterns if k[0] == "x")
        pat = product.patterns[key]
        arr = prog.arrays["x"]
        sched = pat.localized.schedule
        ghosts = np.zeros(sched.ghost_total())
        sched._move_gather(arr, ghosts)  # data movement only
        assert gather_divergence(pat, arr, ghosts).size == 0
        keys = np.asarray(pat.localized.slots.keys)
        live = np.flatnonzero(keys >= 0)
        if not live.size:
            pytest.skip("no ghosts on this configuration")
        ghosts[live[0]] += 1.0
        bad = gather_divergence(pat, arr, ghosts)
        assert np.array_equal(bad, live[:1])
