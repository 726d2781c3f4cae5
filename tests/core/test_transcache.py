"""Persistent translation cache: warm == cold, charges bit-identical.

Two oracles, both randomized over machine widths / distributions /
loop shapes:

* **product oracle** -- a warm (cache-hit) re-inspection's product is
  element-equal to the cold one: same iteration partition, same
  localized references, same ghost key sets, same wire order;
* **charge oracle** -- simulated machine counters after any sequence of
  inspections are bit-identical with the cache on and off (a replay
  applies the charges the cold run planned, one update per call).

Plus one invalidation test per mutation path: ``set_array_elements``,
executor-style writes through local views, ``redistribute`` and the
incremental-patch flow.  Each must bump the relevant content version
so the next inspection misses (and is again correct).
"""

import numpy as np
import pytest

from repro.chaos.transcache import ChargeLog, TranslationCache
from repro.core import ArrayRef, ForallLoop, Reduce, run_executor, run_inspector
from repro.core.program import IrregularProgram
from repro.distribution import BlockDistribution, CyclicDistribution, DistArray
from repro.distribution.irregular import IrregularDistribution
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from tests.chaos.schedule_oracle import entries
from tests.machine.traffic import byte_matrix, messages, spy_exchanges


def counters_equal(m1: Machine, m2: Machine) -> bool:
    return all(
        np.array_equal(getattr(m1.counters, f), getattr(m2.counters, f))
        for f in COUNTER_FIELDS
    )


def random_setup(n_procs: int, seed: int, dist_kind: str = "block"):
    """Random x/y + two random indirections on a fresh machine."""
    rng = np.random.default_rng(seed)
    n_data = int(rng.integers(10, 60))
    n_iter = int(rng.integers(5, 80))
    m = Machine(n_procs)
    if dist_kind == "block":
        dist = BlockDistribution(n_data, n_procs)
    elif dist_kind == "cyclic":
        dist = CyclicDistribution(n_data, n_procs)
    else:
        dist = IrregularDistribution(
            rng.integers(0, n_procs, n_data), n_procs
        )
    idist = BlockDistribution(n_iter, n_procs)
    arrays = {
        "x": DistArray.from_global(m, dist, rng.normal(size=n_data), name="x"),
        "y": DistArray.from_global(m, dist, np.zeros(n_data), name="y"),
        "ia": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ia"
        ),
        "ib": DistArray.from_global(
            m, idist, rng.integers(0, n_data, n_iter), name="ib"
        ),
    }
    x1, x2 = ArrayRef("x", "ia"), ArrayRef("x", "ib")
    loop = ForallLoop(
        "L",
        n_iter,
        [
            Reduce("add", ArrayRef("y", "ia"), lambda a, b: a * b, (x1, x2), flops=2),
            Reduce("add", ArrayRef("y", "ib"), lambda a, b: a - b, (x1, x2), flops=2),
        ],
    )
    return m, arrays, loop


def assert_products_equal(a, b):
    """Element-equality of two InspectorProducts (same machine width)."""
    fa, ba = a.iteration_partition.iters_flat()
    fb, bb = b.iteration_partition.iters_flat()
    assert np.array_equal(fa, fb) and np.array_equal(ba, bb)
    assert set(a.patterns) == set(b.patterns)
    for key, pa in a.patterns.items():
        pb = b.patterns[key]
        la, lb = pa.localized, pb.localized
        for name in ("refs_flat", "ref_bounds"):
            assert np.array_equal(getattr(la, name), getattr(lb, name))
        for name in ("slot_bounds", "keys", "owners", "lidx"):
            assert np.array_equal(getattr(la.slots, name), getattr(lb.slots, name))
        for ea, eb in zip(entries(la.schedule), entries(lb.schedule)):
            assert np.array_equal(ea, eb)


class TestWarmVsColdOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dist_kind", ["block", "cyclic", "irregular"])
    def test_warm_product_element_equal(self, seed, dist_kind):
        n_procs = int(np.random.default_rng(seed).choice([2, 4, 8]))
        m, arrays, loop = random_setup(n_procs, seed, dist_kind)
        cache = TranslationCache()
        cold = run_inspector(m, loop, arrays, cache=cache)
        assert cache.misses > 0
        before = cache.hits
        warm = run_inspector(m, loop, arrays, cache=cache)
        assert cache.hits > before
        assert_products_equal(cold, warm)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dist_kind", ["block", "irregular"])
    def test_charges_bit_identical_with_and_without(self, seed, dist_kind):
        n_procs = int(np.random.default_rng(seed + 99).choice([2, 4, 8]))
        m1, arrays1, loop = random_setup(n_procs, seed, dist_kind)
        m2, arrays2, _ = random_setup(n_procs, seed, dist_kind)
        cache = TranslationCache()
        for _ in range(3):
            p1 = run_inspector(m1, loop, arrays1, cache=cache)
            p2 = run_inspector(m2, loop, arrays2, cache=None)
            run_executor(m1, p1, arrays1)
            run_executor(m2, p2, arrays2)
        assert cache.hits > 0
        assert m1.elapsed() == m2.elapsed()
        assert counters_equal(m1, m2)

    def test_warm_executor_results_match(self):
        m, arrays, loop = random_setup(4, seed=3)
        cache = TranslationCache()
        p = run_inspector(m, loop, arrays, cache=cache)
        run_executor(m, p, arrays)
        want = arrays["y"].to_global()
        p2 = run_inspector(m, loop, arrays, cache=cache)
        run_executor(m, p2, arrays)
        # second sweep adds the same contributions again
        assert np.allclose(arrays["y"].to_global(), 2 * want)

    def test_sibling_arrays_share_localize_entry(self):
        # x(ia)/y(ia) over one distribution: the localize slot excludes
        # the data array's name, so the second pattern hits even within
        # a single cold inspection
        m, arrays, loop = random_setup(4, seed=11)
        cache = TranslationCache()
        run_inspector(m, loop, arrays, cache=cache, coalesce_patterns=False)
        assert cache.kind_hits.get("localize", 0) > 0


class TestChargeLog:
    @staticmethod
    def issue(sink):
        sink.charge_compute_all(iops=np.array([1.0, 2.0, 3.0, 4.0]))
        sink.exchange(
            src=np.array([0, 3, 1]), dst=np.array([2, 3, 0]), nbytes=np.array([64, 24, 0])
        )
        sink.barrier()
        sink.charge_compute(1, flops=7.0)

    def test_forwards_and_replays_identically(self):
        m1, m2 = Machine(4), Machine(4)
        log = ChargeLog(m1)
        self.issue(log)
        self.issue(m2)
        # forwarding: m1 charged immediately, exactly like direct calls
        assert m1.elapsed() > 0
        assert counters_equal(m1, m2)
        # each replay == issuing the same calls again
        for _ in range(2):
            log.replay(m1)
            self.issue(m2)
            assert m1.elapsed() == m2.elapsed()
            assert counters_equal(m1, m2)

    def test_tape_holds_plans_not_arguments(self):
        # compiled at record time: a replay re-plans nothing
        m = Machine(4)
        log = ChargeLog(m)
        self.issue(log)
        assert [name for name, _ in log.tape] == [
            "charge_planned_compute",
            "charge_exchange",
            "barrier",
            "charge_compute",
        ]
        m.plan_exchange = m.plan_compute_all = None  # any re-plan would raise
        log.replay(m)

    def test_replay_on_another_machine_is_a_typed_failure(self):
        m1, m2 = Machine(4), Machine(4)
        log = ChargeLog(m1)
        self.issue(log)
        with pytest.raises(ValueError, match="machine it was recorded on"):
            log.replay(m2)
        assert m2.elapsed() == 0.0 and not m2.counters.iops.any()


class TestReplayEqualsColdInCombination:
    """k warm re-inspections (compiled tape replay + schedule-held
    exchange charges) against k cold ones with the cache off, across
    ``incremental`` x ``merge_communication``: clocks, every counter and
    every phase record bitwise equal, and a spy on the machine's
    ``charge_exchange`` choke point sees the same messages either way."""

    K = 4

    def run(self, mode, incremental, merge):
        """-> (program, exchange spy, bytes sent by the K inspections)"""
        prog, loop, _ = TestInvalidation().build_prog(
            n_procs=8,
            n_data=64,
            n_iter=120,
            seed=21,
            incremental=incremental,
            merge_communication=merge,
            translation_cache=mode,
        )
        with spy_exchanges(prog.machine) as spy:
            for _ in range(self.K):
                prog.forall(loop, reuse=False)
            inspect_bytes = int(messages(spy)[2].sum())
            prog.forall(loop)  # reuse hit: executor gathers + scatters only
        return prog, spy, inspect_bytes

    @pytest.mark.parametrize("merge", [False, True], ids=["unmerged", "merged"])
    @pytest.mark.parametrize("incremental", [False, True], ids=["full", "incremental"])
    def test_counters_and_phase_records_bitwise(self, incremental, merge):
        on, _, _ = self.run("on", incremental, merge)
        off, _, _ = self.run("off", incremental, merge)
        assert off.translation_cache is None
        assert on.translation_cache.hits >= self.K - 1
        m_on, m_off = on.machine, off.machine
        for f in COUNTER_FIELDS:
            a, b = getattr(m_on.counters, f), getattr(m_off.counters, f)
            assert a.tobytes() == b.tobytes(), f
        assert len(m_on.stats.phases) == len(m_off.stats.phases) > 0
        for p_on, p_off in zip(m_on.stats.phases, m_off.stats.phases):
            assert p_on.name == p_off.name
            assert p_on.elapsed == p_off.elapsed, p_on.name
            for f in COUNTER_FIELDS:
                a, b = getattr(p_on.arrays, f), getattr(p_off.arrays, f)
                assert a.tobytes() == b.tobytes(), (p_on.name, f)
        assert np.array_equal(on.arrays["y"].to_global(), off.arrays["y"].to_global())

    @pytest.mark.parametrize("merge", [False, True], ids=["unmerged", "merged"])
    @pytest.mark.parametrize("incremental", [False, True], ids=["full", "incremental"])
    def test_message_trace_sees_replayed_and_schedule_held_traffic(
        self, incremental, merge
    ):
        on, warm, warm_inspect = self.run("on", incremental, merge)
        off, cold, cold_inspect = self.run("off", incremental, merge)
        assert on.translation_cache.hits >= self.K - 1
        warm_bytes, cold_bytes = messages(warm)[2], messages(cold)[2]
        assert warm_bytes.size == cold_bytes.size > 0
        assert warm_bytes.sum() == cold_bytes.sum()
        assert np.array_equal(byte_matrix(warm, 8), byte_matrix(cold, 8))
        # the last sweep reused its product: what it added is the
        # executor's gather + scatter traffic alone
        assert warm_inspect == cold_inspect
        assert warm_bytes.sum() - warm_inspect > 0
        # and the spied charges agree with the machine's own byte counters
        assert warm_bytes.sum() == on.machine.counters.bytes_sent.sum()


class TestInvalidation:
    """Every mutation path must produce a cache miss and a correct
    re-inspection (programs run the cache by default)."""

    def build_prog(self, n_procs=4, n_data=24, n_iter=30, seed=5, **kw):
        rng = np.random.default_rng(seed)
        m = Machine(n_procs)
        prog = IrregularProgram(m, **kw)
        prog.decomposition("d", n_data)
        prog.decomposition("d2", n_iter)
        prog.distribute("d", "block")
        prog.distribute("d2", "block")
        prog.array("x", "d", values=rng.normal(size=n_data))
        prog.array("y", "d", values=np.zeros(n_data))
        prog.array("ia", "d2", values=rng.integers(0, n_data, n_iter), dtype=np.int64)
        prog.array("ib", "d2", values=rng.integers(0, n_data, n_iter), dtype=np.int64)
        x1, x2 = ArrayRef("x", "ia"), ArrayRef("x", "ib")
        loop = ForallLoop(
            "L",
            n_iter,
            [
                Reduce("add", ArrayRef("y", "ia"), lambda a, b: a + b, (x1, x2), flops=1),
                Reduce("add", ArrayRef("y", "ib"), lambda a, b: a * b, (x1, x2), flops=1),
            ],
        )
        return prog, loop, rng

    def reference(self, prog, y0=None):
        x = prog.arrays["x"].to_global()
        ia = prog.arrays["ia"].to_global()
        ib = prog.arrays["ib"].to_global()
        y = np.zeros_like(x) if y0 is None else y0.copy()
        np.add.at(y, ia, x[ia] + x[ib])
        np.add.at(y, ib, x[ia] * x[ib])
        return y

    def test_translation_cache_off_opt_out(self):
        prog, _, _ = self.build_prog(translation_cache="off")
        assert prog.translation_cache is None
        with pytest.raises(ValueError, match="translation_cache"):
            self.build_prog(translation_cache="maybe")

    def test_set_array_elements_invalidates(self):
        prog, loop, rng = self.build_prog()
        prog.forall(loop, reuse=False)
        cache = prog.translation_cache
        misses0 = cache.misses
        prog.forall(loop, reuse=False)  # unchanged: pure hits
        assert cache.misses == misses0
        n_data = prog.arrays["x"].size
        prog.set_array_elements("ia", [2, 7], rng.integers(0, n_data, 2))
        prog.set_array("y", np.zeros(n_data))
        prog.forall(loop, reuse=False)
        assert cache.misses > misses0  # indirection content changed
        assert np.allclose(prog.arrays["y"].to_global(), self.reference(prog))

    def test_view_write_invalidates(self):
        prog, loop, rng = self.build_prog()
        prog.forall(loop, reuse=False)
        cache = prog.translation_cache
        misses0 = cache.misses
        # executor-style write through a local view bumps the version
        ia = prog.arrays["ia"]
        n_data = prog.arrays["x"].size
        v0 = ia.version
        ia.local(0)[0] = int(rng.integers(0, n_data))
        assert ia.version > v0
        prog.set_array("y", np.zeros(n_data))
        prog.forall(loop, reuse=False)
        assert cache.misses > misses0
        assert np.allclose(prog.arrays["y"].to_global(), self.reference(prog))

    def test_redistribute_invalidates(self):
        prog, loop, rng = self.build_prog()
        prog.forall(loop, reuse=False)
        cache = prog.translation_cache
        misses0 = cache.misses
        n_data = prog.arrays["x"].size
        owner_map = rng.integers(0, prog.machine.n_procs, n_data)
        prog.redistribute("d", IrregularDistribution(owner_map, prog.machine.n_procs))
        prog.set_array("y", np.zeros(n_data))
        prog.forall(loop, reuse=False)
        assert cache.misses > misses0  # distribution signature changed
        assert np.allclose(prog.arrays["y"].to_global(), self.reference(prog))

    def test_patched_schedules_bit_identical(self):
        # incremental patching with the shared cache == without any cache
        results = []
        for mode in ("on", "off"):
            prog, loop, rng = self.build_prog(
                seed=9, incremental=True, translation_cache=mode
            )
            prog.forall(loop)
            n_data = prog.arrays["x"].size
            mut = np.random.default_rng(17)
            for _ in range(3):
                prog.set_array_elements(
                    "ia", mut.integers(0, 30, 3), mut.integers(0, n_data, 3)
                )
                prog.forall(loop)
            results.append(
                (prog.machine.elapsed(), prog.patch_hits, prog.arrays["y"].to_global())
            )
        (e1, h1, y1), (e2, h2, y2) = results
        assert h1 > 0  # the patch path actually ran
        assert e1 == e2 and h1 == h2
        assert np.array_equal(y1, y2)

    def test_cache_is_bounded_per_slot(self):
        # repeated mutation replaces entries in place instead of growing
        prog, loop, rng = self.build_prog()
        cache = prog.translation_cache
        prog.forall(loop, reuse=False)
        size0 = len(cache)
        n_data = prog.arrays["x"].size
        for _ in range(5):
            prog.set_array_elements("ia", [1], rng.integers(0, n_data, 1))
            prog.forall(loop, reuse=False)
        assert len(cache) == size0
        stats = cache.stats()
        assert stats["entries"] == size0
        assert stats["hits"] == cache.hits and stats["misses"] == cache.misses


def test_a_miss_evicts_the_slots_other_version_with_unchanged_stats():
    """A miss deletes the slot's entry of another version at once and
    counts the invalidation there; the ``put`` that follows every runtime
    miss then stores the new entry.  Scripted so, the counters equal
    those of replacing the entry at the ``put``, and no slot ever holds
    an entry of a version its last probe did not ask for."""
    from repro.core.cachekey import ContentKey

    cache = TranslationCache()
    loc, part = ("localize", "L", ("ia",)), ("partition", "L", 30)
    v1, v2 = (("block",), ContentKey(1, 0)), (("block",), ContentKey(1, 1))
    cache.put(loc, v1, "loc-1")
    cache.put(part, v1, "part-1")
    assert cache.get(loc, v1) == "loc-1" and cache.get(part, v1) == "part-1"
    for slot, entry in ((part, "part-2"), (loc, "loc-2")):
        assert cache.get(slot, v2) is None
        assert slot not in cache._slots, "a miss left the superseded entry"
        cache.put(slot, v2, entry)
    assert cache.get(("localize", "M", ()), v1) is None  # an empty slot: nothing evicted
    assert cache.get(loc, v2) == "loc-2"
    cache.prune({1: 1})  # every held entry names the live content
    assert cache.stats() == {
        "hits": 3,
        "misses": 3,
        "invalidations": 2,
        "entries": 2,
        "by_kind": {
            "localize": {"hits": 2, "misses": 2, "invalidations": 1, "entries": 1},
            "partition": {"hits": 1, "misses": 1, "invalidations": 1, "entries": 1},
        },
    }
    cache.prune({1: 2})
    assert len(cache) == 0 and cache.invalidations == 4


class TestDerivedHolders:
    """Host-derived per-pattern arrays hang off the localize entry: built
    once per (slot, version, index), frozen, shared by every product the
    entry serves, and never written by a patch."""

    def test_products_of_one_entry_share_frozen_holders(self):
        m, arrays, loop = random_setup(4, seed=3)
        cache = TranslationCache()
        cold = run_inspector(m, loop, arrays, cache=cache)
        builds = cache.derived_builds
        # coalesced (ia, ib) groups: x's and y's share one entry, so the
        # second array's members are holder hits inside the cold run
        assert builds == 2 and cache.derived_hits == 2
        warm = run_inspector(m, loop, arrays, cache=cache)
        assert cache.derived_builds == builds and cache.derived_hits == 6
        assert cache.stats()["by_kind"]["derived"] == {"hits": 6, "builds": 2}
        for key, pat in cold.patterns.items():
            held = pat.derived
            assert warm.patterns[key].derived is held
            assert cold.patterns[("y", key[1])].derived is held
            assert pat.localized.refs_flat is held.refs_flat
            assert not held.refs_flat.flags.writeable
            assert not held.ref_bounds.flags.writeable
        # the executor keeps the shared holder's space and positions from
        # its second sweep on -- the warm product's sweep counts, it is
        # the same holder -- and both products see the same frozen arrays
        run_executor(m, cold, arrays)
        for key, pat in warm.patterns.items():
            assert pat.derived.ran and pat.derived.exec_refs is None
            assert pat.derived.exec_space is None
        run_executor(m, warm, arrays)
        for key, pat in warm.patterns.items():
            assert pat.derived.exec_refs is cold.patterns[key].derived.exec_refs
            assert pat.derived.exec_space is cold.patterns[key].derived.exec_space
            assert not pat.derived.exec_refs.flags.writeable
            for arr in (
                pat.derived.exec_space.offsets,
                pat.derived.exec_space.local_sel,
                pat.derived.exec_space.ghost_sel,
            ):
                assert not arr.flags.writeable

    def test_uncached_products_do_not_share(self):
        m, arrays, loop = random_setup(4, seed=3)
        a = run_inspector(m, loop, arrays, cache=None)
        b = run_inspector(m, loop, arrays, cache=None)
        for key in a.patterns:
            assert a.patterns[key].derived is not b.patterns[key].derived
            assert np.array_equal(
                a.patterns[key].derived.refs_flat, b.patterns[key].derived.refs_flat
            )

    def test_split_members_match_per_pattern_localize(self):
        # the flat split of a coalesced product dereferences, member by
        # member, to the same global targets a per-pattern inspection does
        m, arrays, loop = random_setup(8, seed=5, dist_kind="irregular")
        prod = run_inspector(m, loop, arrays, cache=TranslationCache())
        flat, bounds = prod.iteration_partition.iters_flat()
        pid = np.repeat(np.arange(8), np.diff(bounds))
        dist = arrays["x"].distribution
        for (array, index), pat in prod.patterns.items():
            loc = pat.localized
            assert np.array_equal(loc.ref_bounds, bounds)
            want = np.asarray(arrays[index].global_view(), dtype=np.int64)[flat]
            ls = np.asarray(loc.local_sizes, dtype=np.int64)
            ghost = loc.refs_flat >= ls[pid]
            got = np.empty_like(want)
            got[ghost] = loc.slots.keys[
                loc.slots.slot_bounds[pid[ghost]] + loc.refs_flat[ghost] - ls[pid[ghost]]
            ]
            local = ~ghost
            assert np.array_equal(dist.owner(want[local]), pid[local])
            assert np.array_equal(
                dist.local_index(want[local]), loc.refs_flat[local]
            )
            assert np.array_equal(got[ghost], want[ghost])

    def test_patching_one_product_leaves_holder_and_entry_untouched(self):
        prog, loop, rng = TestInvalidation().build_prog(seed=9, incremental=True)
        cache = prog.translation_cache
        prog.forall(loop, reuse=False)
        first = prog.records[loop.name].product
        prog.forall(loop, reuse=False)
        second = prog.records[loop.name].product
        assert second is not first
        entries = [e for _, e in cache._slots.values() if hasattr(e, "derived")]
        frozen = {}
        for key, pat in first.patterns.items():
            held = pat.derived
            assert second.patterns[key].derived is held
            assert any(held in e.derived.values() for e in entries)
            frozen[key] = (
                held,
                held.exec_space,
                held.exec_refs,
                held.refs_flat.copy(),
                held.exec_refs.copy(),
                held.exec_space.offsets.copy(),
                held.exec_space.ghost_sel.copy(),
            )
        entry_refs = [(e, e.refs_flat.copy(), e.slots.keys.copy()) for e in entries]

        # patch the second product (tracked write + reuse-checked sweep)
        n_data = prog.arrays["x"].size
        prog.set_array_elements("ia", [1, 4, 9], (np.arange(3) * 7 + 2) % n_data)
        prog.forall(loop)
        assert prog.patch_hits == 1
        patched = prog.records[loop.name].product
        assert patched is not second
        rewritten = 0
        for key, (held, space, refs, refs_flat, exec_refs, offsets, gsel) in frozen.items():
            assert first.patterns[key].derived is held
            assert held.exec_space is space and held.exec_refs is refs
            assert np.array_equal(held.refs_flat, refs_flat)
            assert np.array_equal(held.exec_refs, exec_refs)
            assert np.array_equal(space.offsets, offsets)
            assert np.array_equal(space.ghost_sel, gsel)
            assert not held.exec_refs.flags.writeable
            rewritten += patched.patterns[key].derived is not held
        assert rewritten > 0  # the patch really rebuilt some pattern
        for entry, refs_flat, ghost_flat in entry_refs:
            assert np.array_equal(entry.refs_flat, refs_flat)
            assert np.array_equal(entry.slots.keys, ghost_flat)
        # the shared holder still drives a correct sweep: re-inspecting
        # the *patched* content misses, the patched product is unharmed
        y0 = prog.arrays["y"].to_global()
        prog.forall(loop)  # reuse hit on the patched product
        want = TestInvalidation().reference(prog, y0=y0)
        assert np.allclose(prog.arrays["y"].to_global(), want)
