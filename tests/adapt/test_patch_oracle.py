"""Randomized oracle: incremental patching equals full re-inspection.

Two identical programs run the adaptive Euler scenario in lockstep on an
RCB-partitioned (irregular) mesh; each epoch mutates <= 5% of the edge
list.  Program A patches (``incremental=True``), program B re-inspects
in full.  After every adaptation, B's freshly inspected product is the
from-scratch oracle for A's patched product:

* identical iteration partition,
* identical schedule pair structure, send offsets, and wire order,
* identical ghost key sets per processor,
* localized reference lists dereferencing to identical global targets,
* identical ghost *contents* per key from a gather through each
  product's schedule, and
* bit-identical executor results with matching simulated executor time,

while A's simulated inspector time is strictly below B's.
"""

import numpy as np
import pytest

from repro.adapt import driver as driver_mod
from repro.machine import Machine
from tests.chaos.pairs import ghost_regions
from tests.chaos import schedule_oracle as oracle
from repro.workloads import generate_mesh
from repro.workloads.euler import (
    euler_edge_loop,
    euler_sequential_reference,
    setup_euler_program,
)


def build_program(mesh, incremental, n_procs, coalesce, **kwargs):
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
    return machine, prog


def mutate(edges, n_nodes, rng, fraction):
    """Re-target ``fraction`` of the edges; returns (new_edges, positions)."""
    n_edges = edges.shape[1]
    pick = np.sort(
        rng.choice(n_edges, size=max(1, int(fraction * n_edges)), replace=False)
    )
    new = edges.copy()
    new[1, pick] = (
        new[0, pick] + 1 + rng.integers(0, n_nodes - 1, pick.size)
    ) % n_nodes
    return new, pick


def deref_targets(product, pattern_key, n_procs):
    """Global element index every localized reference points at."""
    loc = product.patterns[pattern_key].localized
    ls = np.asarray(loc.local_sizes, dtype=np.int64)
    refs = loc.refs_flat
    bounds = loc.ref_bounds
    pid = np.repeat(np.arange(n_procs, dtype=np.int64), np.diff(bounds))
    keys, kb = loc.slots.keys, loc.slots.slot_bounds
    out = np.empty(refs.size, dtype=np.int64)
    ghost = refs >= ls[pid]
    out[ghost] = keys[kb[pid[ghost]] + (refs[ghost] - ls[pid[ghost]])]
    local = ~ghost
    # local refs: recover globals through the distribution
    return out, local, pid, refs


def assert_products_equivalent(prod_a, prod_b, arrays, n_procs):
    # iteration partition
    fa, ba = prod_a.iteration_partition.iters_flat()
    fb, bb = prod_b.iteration_partition.iters_flat()
    assert np.array_equal(fa, fb) and np.array_equal(ba, bb)

    assert set(prod_a.patterns) == set(prod_b.patterns)
    for key in prod_b.patterns:
        la = prod_a.patterns[key].localized
        lb = prod_b.patterns[key].localized
        sa, sb = la.schedule, lb.schedule
        # schedule pair structure + send offsets + wire order
        assert np.array_equal(sa._pair_q, sb._pair_q), key
        assert np.array_equal(sa._pair_p, sb._pair_p), key
        assert np.array_equal(sa._pair_len, sb._pair_len), key
        assert np.array_equal(oracle.entries(sa)[2], oracle.entries(sb)[2]), key
        # ghost key sets per processor (A may carry -1 holes)
        keys_a, keys_b = oracle.ghost_flat(la), oracle.ghost_flat(lb)
        for p in range(n_procs):
            ka = keys_a[la.slots.slot_bounds[p] : la.slots.slot_bounds[p + 1]]
            kb = keys_b[lb.slots.slot_bounds[p] : lb.slots.slot_bounds[p + 1]]
            assert set(ka[ka >= 0].tolist()) == set(kb.tolist()), (key, p)
        # localized references hit identical global targets; the expected
        # target of iteration i is ind[i] (or i for direct references)
        ind = key[1]
        flat, _ = prod_b.iteration_partition.iters_flat()
        if ind is None:
            want = flat
        else:
            want = np.asarray(arrays[ind].global_view(), dtype=np.int64)[flat]
        for prod in (prod_a, prod_b):
            got, local_mask, pid, refs = deref_targets(prod, key, n_procs)
            dist = arrays[key[0]].distribution
            # verify ghost targets exactly; local targets via local_index
            assert np.array_equal(got[~local_mask], want[~local_mask]), key
            li = np.asarray(dist.local_index(want[local_mask]), dtype=np.int64)
            assert np.array_equal(refs[local_mask], li), key
            assert np.array_equal(
                np.asarray(dist.owner(want[local_mask]), dtype=np.int64),
                pid[local_mask],
            ), key


def ghost_contents_by_key(product, key, arr, n_procs):
    """Mapping arrays (proc, ghost key) -> gathered value, sorted by key:
    ``arr`` gathered through the pattern's schedule (data movement only,
    nothing charged)."""
    loc = product.patterns[key].localized
    ghosts = np.zeros(loc.schedule.ghost_total())
    loc.schedule._move_gather(arr, ghosts)
    regions = ghost_regions(loc.schedule, ghosts)
    out = {}
    all_keys = oracle.ghost_flat(loc)
    for p in range(n_procs):
        keys = all_keys[loc.slots.slot_bounds[p] : loc.slots.slot_bounds[p + 1]]
        vals = regions[p]
        live = keys >= 0
        order = np.argsort(keys[live])
        out[p] = (keys[live][order], vals[live][order])
    return out


@pytest.mark.parametrize("n_procs", [2, 4, 8])
@pytest.mark.parametrize("coalesce", [True, False])
def test_patch_oracle_randomized(n_procs, coalesce):
    mesh = generate_mesh(400, seed=9)
    rng = np.random.default_rng(1234 + n_procs + int(coalesce))
    m_a, prog_a = build_program(mesh, True, n_procs, coalesce)
    m_b, prog_b = build_program(mesh, False, n_procs, coalesce)
    loop = euler_edge_loop(mesh)
    edges = mesh.edges.copy()
    x = prog_a.arrays["x"].to_global()
    want = np.zeros(mesh.n_nodes)

    prog_a.forall(loop, n_times=1)
    prog_b.forall(loop, n_times=1)
    want = euler_sequential_reference(x, edges, n_times=1, y0=want)

    for epoch in range(4):
        edges, pick = mutate(edges, mesh.n_nodes, rng, fraction=0.05)
        if epoch == 2:
            # whole-array rewrite with mostly-unchanged values: the diff
            # discovers the real delta inside the full dirty window
            prog_a.set_array("end_pt1", edges[0])
            prog_a.set_array("end_pt2", edges[1])
            prog_b.set_array("end_pt1", edges[0])
            prog_b.set_array("end_pt2", edges[1])
        else:
            for prog in (prog_a, prog_b):
                prog.set_array_elements("end_pt1", pick, edges[0, pick])
                prog.set_array_elements("end_pt2", pick, edges[1, pick])

        ea0 = m_a.phase_time("executor")
        eb0 = m_b.phase_time("executor")
        ia0 = m_a.phase_time("inspector")
        ib0 = m_b.phase_time("inspector")
        prog_a.forall(loop, n_times=1)
        prog_b.forall(loop, n_times=1)
        want = euler_sequential_reference(x, edges, n_times=1, y0=want)

        # A patched, B re-inspected in full
        assert prog_a.patch_hits == epoch + 1
        assert prog_a.inspector_runs == 1
        assert prog_b.inspector_runs == epoch + 2

        prod_a = prog_a.records[loop.name].product
        prod_b = prog_b.records[loop.name].product
        assert_products_equivalent(prod_a, prod_b, prog_b.arrays, n_procs)

        # ghost contents per key equal after a gather
        for key in prod_b.patterns:
            if key[0] != "x":
                continue  # x is the gathered (read) pattern
            ga = ghost_contents_by_key(prod_a, key, prog_a.arrays["x"], n_procs)
            gb = ghost_contents_by_key(prod_b, key, prog_b.arrays["x"], n_procs)
            for p in range(n_procs):
                assert np.array_equal(ga[p][0], gb[p][0]), (key, p)
                assert np.array_equal(ga[p][1], gb[p][1]), (key, p)

        # simulated results: bit-identical state, matching executor time,
        # cheaper inspection
        ya = prog_a.arrays["y"].to_global()
        yb = prog_b.arrays["y"].to_global()
        assert np.array_equal(ya, yb)
        assert np.allclose(ya, want)
        ea = m_a.phase_time("executor") - ea0
        eb = m_b.phase_time("executor") - eb0
        assert np.isclose(ea, eb, rtol=1e-9, atol=0.0)
        assert (m_a.phase_time("inspector") - ia0) < (
            m_b.phase_time("inspector") - ib0
        )


def exec_refs_of(space, localized, counts):
    """Combined-space position of every localized reference, built whole
    (the executor's strips fill theirs a slice at a time); ``counts`` is
    the number of references each processor holds."""
    return localized.refs_flat + np.repeat(space.offsets[:-1], counts)


@pytest.mark.parametrize("n_procs", [2, 4])
def test_patched_exec_caches_match_fresh(n_procs):
    """The executor caches a patched product holds after its sweeps
    (a fresh holder per patched pattern, filled lazily; a sibling group
    over one layout adopts its sibling's) must be element-equal to caches
    built from scratch off the patched product -- and dropping them and
    executing again must give bit-identical results and simulated
    charges."""
    from repro.core.executor import _PatternSpace

    mesh = generate_mesh(350, seed=13)
    rng = np.random.default_rng(77 + n_procs)
    m_a, prog_a = build_program(mesh, True, n_procs, True)
    loop = euler_edge_loop(mesh)
    edges = mesh.edges.copy()
    prog_a.forall(loop, n_times=1)

    for epoch in range(3):
        edges, pick = mutate(edges, mesh.n_nodes, rng, fraction=0.04)
        prog_a.set_array_elements("end_pt1", pick, edges[0, pick])
        prog_a.set_array_elements("end_pt2", pick, edges[1, pick])
        prog_a.forall(loop, n_times=1)
        assert prog_a.patch_hits == epoch + 1

        # the patched product's second sweep keeps its executor caches
        prod = prog_a.records[loop.name].product
        y_cached = prog_a.arrays["y"].to_global().copy()
        e0 = m_a.phase_time("executor")
        prog_a.forall(loop, n_times=1)
        e_cached = m_a.phase_time("executor") - e0
        y_after_cached = prog_a.arrays["y"].to_global().copy()
        iter_flat, iter_bounds = prod.iteration_partition.iters_flat()
        for key, pat in prod.patterns.items():
            fresh = _PatternSpace(pat.localized)
            assert np.array_equal(pat.derived.exec_space.offsets, fresh.offsets), key
            assert np.array_equal(pat.derived.exec_space.local_sel, fresh.local_sel), key
            assert np.array_equal(pat.derived.exec_space.ghost_sel, fresh.ghost_sel), key
            assert pat.derived.exec_space.total == fresh.total, key
            assert np.array_equal(
                pat.derived.exec_refs, exec_refs_of(fresh, pat.localized, np.diff(iter_bounds))
            ), key

        # dropping the cached arrays and re-executing from scratch gives
        # bit-identical results and identical simulated executor charges
        for pat in prod.patterns.values():
            pat.derived.exec_space = None
            pat.derived.exec_refs = None
        prog_a.arrays["y"].set_global(y_cached)
        prog_a.machine.charge_compute_all(
            mem=prog_a.arrays["y"].distribution.local_sizes().astype(np.float64)
        )
        e1 = m_a.phase_time("executor")
        prog_a.forall(loop, n_times=1)
        e_fresh = m_a.phase_time("executor") - e1
        assert np.array_equal(
            prog_a.arrays["y"].to_global(), y_after_cached
        )
        assert np.isclose(e_cached, e_fresh, rtol=1e-12, atol=0.0)


def test_carried_exec_refs_at_segment_starts_match_fresh():
    """A patch that keeps the partition but re-targets every processor's
    first iteration: the executor refs the patched product holds after
    its second sweep, at segment starts included, equal a fresh build."""
    from repro.core.executor import _PatternSpace

    mesh = generate_mesh(350, seed=13)
    _, prog = build_program(mesh, True, 4, True)
    loop = euler_edge_loop(mesh)
    prog.forall(loop, n_times=1)
    flat, bounds = prog.records[loop.name].product.iteration_partition.iters_flat()
    firsts = np.sort(flat[bounds[:-1][np.diff(bounds) > 0]])
    e1, e2 = (prog.arrays[n].to_global() for n in ("end_pt1", "end_pt2"))
    owner = np.asarray(prog.arrays["x"].distribution.owner(np.arange(mesh.n_nodes)))
    new = np.empty_like(firsts)
    for k, i in enumerate(firsts):
        # another node of the same owner: no vote, and no home, changes
        same = np.flatnonzero(owner == owner[e2[i]])
        new[k] = same[(same != e2[i]) & (same != e1[i])][0]
    prog.set_array_elements("end_pt2", firsts, new)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1
    # one sweep keeps no positions; the second (a reuse) keeps them
    product = prog.records[loop.name].product
    assert all(pat.derived.exec_refs is None for pat in product.patterns.values())
    prog.forall(loop, n_times=1)
    assert prog.records[loop.name].product is product
    part = product.iteration_partition
    assert np.array_equal(part.flat, flat) and np.array_equal(part.bounds, bounds)
    for key, pat in prog.records[loop.name].product.patterns.items():
        assert pat.derived.exec_refs is not None, key
        fresh = _PatternSpace(pat.localized)
        assert np.array_equal(
            pat.derived.exec_refs, exec_refs_of(fresh, pat.localized, np.diff(bounds))
        ), key


def test_owner_computes_partition_method_respected():
    """Regression: re-voting must use the product's partition method --
    under owner_computes a patched partition must equal a fresh one."""
    mesh = generate_mesh(400, seed=9)
    rng = np.random.default_rng(77)
    m_a, prog_a = build_program(
        mesh, True, 4, True, iter_method="owner_computes"
    )
    m_b, prog_b = build_program(
        mesh, False, 4, True, iter_method="owner_computes"
    )
    loop = euler_edge_loop(mesh)
    edges = mesh.edges.copy()
    prog_a.forall(loop, n_times=1)
    prog_b.forall(loop, n_times=1)
    edges, pick = mutate(edges, mesh.n_nodes, rng, fraction=0.05)
    for prog in (prog_a, prog_b):
        prog.set_array_elements("end_pt1", pick, edges[0, pick])
        prog.set_array_elements("end_pt2", pick, edges[1, pick])
    prog_a.forall(loop, n_times=1)
    prog_b.forall(loop, n_times=1)
    assert prog_a.patch_hits == 1
    prod_a = prog_a.records[loop.name].product
    prod_b = prog_b.records[loop.name].product
    assert prod_a.iteration_partition.method == "owner_computes"
    assert_products_equivalent(prod_a, prod_b, prog_b.arrays, 4)
    assert np.array_equal(
        prog_a.arrays["y"].to_global(), prog_b.arrays["y"].to_global()
    )


def test_patch_grows_ghosts_from_empty_group():
    """Regression: a group with zero ghosts at inspection (fully local
    references) must survive a patch that introduces its first ghosts."""
    from repro.core import ArrayRef, ForallLoop, IrregularProgram, Reduce

    n = 32
    m = Machine(4)
    prog = IrregularProgram(m, incremental=True)
    prog.decomposition("d", n)
    prog.distribute("d", "block")
    rng = np.random.default_rng(5)
    prog.array("x", "d", values=rng.normal(size=n))
    prog.array("y", "d", values=np.zeros(n))
    # identity indirection: every reference is iteration-local
    prog.array("ia", "d", values=np.arange(n), dtype=np.int64)
    loop = ForallLoop(
        "sweep",
        n,
        [Reduce("add", ArrayRef("y", "ia"), lambda a: 2.0 * a, (ArrayRef("x", "ia"),))],
    )
    prog.forall(loop, n_times=1)
    product = prog.records[loop.name].product
    assert all(
        pat.localized.schedule.ghost_total() == 0
        for pat in product.patterns.values()
    )
    # retarget a few entries to remote elements: first ghosts ever
    pos = np.array([0, 1, 2], dtype=np.int64)
    vals = (pos + n // 2) % n
    prog.set_array_elements("ia", pos, vals)
    prog.forall(loop, n_times=1)
    assert prog.patch_hits == 1 and prog.inspector_runs == 1
    ia = prog.arrays["ia"].to_global()
    x = prog.arrays["x"].to_global()
    # reference: first sweep through the identity, second through ia
    want = np.zeros(n)
    np.add.at(want, np.arange(n), 2.0 * x)
    np.add.at(want, ia, 2.0 * x[ia])
    assert np.allclose(prog.arrays["y"].to_global(), want)


class TestFallbacks:
    def build(self, incremental=True, **kwargs):
        mesh = generate_mesh(300, seed=4)
        m, prog = build_program(mesh, incremental, 4, True, **kwargs)
        return mesh, m, prog

    def test_regionless_write_falls_back_to_full(self):
        mesh, m, prog = self.build()
        loop = euler_edge_loop(mesh)
        prog.forall(loop, n_times=1)
        # a write stamped the paper's way (no region info) on the
        # indirection DAD: patching must refuse
        from repro.core.dad import DAD

        prog.registry.record_block_write([DAD.of(prog.arrays["end_pt1"])])
        prog.forall(loop, n_times=1)
        assert prog.patch_hits == 0
        assert prog.inspector_runs == 2

    def test_redistribute_falls_back_to_full(self):
        mesh, m, prog = self.build()
        loop = euler_edge_loop(mesh)
        prog.forall(loop, n_times=1)
        prog.redistribute("reg", "block")  # every node DAD changes
        prog.forall(loop, n_times=1)
        assert prog.patch_hits == 0
        assert prog.inspector_runs == 2

    def test_threshold_falls_back_to_full(self, monkeypatch):
        monkeypatch.setattr(driver_mod, "MAX_CHANGE_FRACTION", 0.001)
        mesh, m, prog = self.build()
        loop = euler_edge_loop(mesh)
        prog.forall(loop, n_times=1)
        rng = np.random.default_rng(0)
        edges, pick = mutate(mesh.edges, mesh.n_nodes, rng, fraction=0.2)
        prog.set_array_elements("end_pt2", pick, edges[1, pick])
        prog.forall(loop, n_times=1)
        assert prog.patch_hits == 0
        assert prog.inspector_runs == 2

    def test_noop_rewrite_is_patched_for_free(self):
        """Rewriting identical values: the diff finds nothing, the saved
        product is kept, and no full inspection happens."""
        mesh, m, prog = self.build()
        loop = euler_edge_loop(mesh)
        prog.forall(loop, n_times=1)
        before = prog.records[loop.name].product
        prog.set_array("end_pt1", mesh.edges[0])  # same values
        prog.forall(loop, n_times=1)
        assert prog.inspector_runs == 1
        assert prog.patch_hits == 1
        assert prog.records[loop.name].product is before

    def test_incremental_requires_tracking(self):
        from repro.core.program import IrregularProgram

        with pytest.raises(ValueError, match="track"):
            IrregularProgram(Machine(2), track=False, incremental=True)
