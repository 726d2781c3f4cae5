"""Translation-cache pruning: exactly the entries no inspection can read.

A content key ``(uid, version)`` never repeats once its array is written,
so an entry whose version names a superseded one can never be served
again.  ``TranslationCache.prune(live)`` drops exactly those entries
(and only those); ``IrregularProgram.inspect`` calls it on every
resolution that leaves the reuse-hit path.  Hits, misses, charges and
results must be what an unpruned cache gives.
"""

import itertools

import numpy as np
import pytest

from repro.chaos.transcache import TranslationCache
from repro.core import ArrayRef, ForallLoop, Reduce
from repro.core.cachekey import ContentKey, content_key
from repro.core.program import IrregularProgram
from repro.distribution.irregular import IrregularDistribution
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS

SIG = ("block", 24, 4)  # a distribution signature: no content key in it


class TestContentKey:
    def test_compares_and_hashes_like_the_plain_tuple(self):
        key = ContentKey(7, 3)
        assert key == (7, 3) and hash(key) == hash((7, 3))
        assert {(7, 3): "entry"}[key] == "entry"
        assert (key.uid, key.version) == (7, 3)

    def test_content_key_names_the_current_version(self):
        prog = IrregularProgram(Machine(2))
        prog.decomposition("d", 6)
        prog.distribute("d", "block")
        arr = prog.array("a", "d", values=np.arange(6), dtype=np.int64)
        key = content_key(arr)
        assert isinstance(key, ContentKey) and key == (arr.uid, arr.version)
        prog.set_array_elements("a", [0], [5])
        assert content_key(arr) == (arr.uid, key.version + 1)


class TestPruneUnit:
    @pytest.mark.parametrize("seed", range(6))
    def test_drops_iff_a_content_key_was_superseded(self, seed):
        rng = np.random.default_rng(seed)
        cache = TranslationCache()
        versions = {}
        for i in range(12):
            keys = tuple(
                ContentKey(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
                for _ in range(int(rng.integers(0, 3)))
            )
            # nest the keys the way localize / partition versions do
            version = (SIG, tuple(("ind", k, SIG) for k in keys), ("part", keys))
            slot = ("localize" if i % 2 else "partition", "L", i)
            cache.put(slot, version, object())
            versions[slot] = keys
        live = {uid: int(rng.integers(0, 3)) for uid in range(4) if rng.random() < 0.8}
        keep = {
            slot
            for slot, keys in versions.items()
            if all(live.get(k.uid) == k.version for k in keys)
        }
        cache.prune(live)
        assert set(cache._slots) == keep
        dropped = len(versions) - len(keep)
        stats = cache.stats()
        assert stats["invalidations"] == dropped and stats["entries"] == len(keep)
        for kind, counts in stats["by_kind"].items():
            lost = sum(1 for s in versions if s[0] == kind and s not in keep)
            assert counts["invalidations"] == lost

    def test_entries_keyed_on_signatures_only_are_kept(self):
        cache = TranslationCache()
        cache.put(("partition", "L"), (("direct", SIG),), "part")
        cache.put(("localize", "L"), (SIG, ("direct",), ((), ())), "loc")
        cache.prune({})
        assert len(cache) == 2 and cache.invalidations == 0

    def test_no_dead_entry_changes_nothing(self):
        cache = TranslationCache()
        slot = ("localize", "L", ("ia",))
        assert cache.get(slot, (SIG, (ContentKey(1, 0),))) is None
        cache.put(slot, (SIG, (ContentKey(1, 0),)), "e0")
        cache.put(slot, (SIG, (ContentKey(1, 1),)), "e1")  # one replacement
        assert cache.get(slot, (SIG, (ContentKey(1, 1),))) == "e1"
        before = cache.stats()
        cache.prune({1: 1, 2: 9})
        assert cache.stats() == before
        assert cache.get(slot, (SIG, (ContentKey(1, 1),))) == "e1"

    def test_a_pruned_slot_refilled_counts_one_invalidation(self):
        # pruning first and refilling later counts what a replacement did
        cache = TranslationCache()
        slot = ("localize", "L", ("ia",))
        cache.put(slot, (SIG, (ContentKey(1, 0),)), "e0")
        cache.prune({1: 1})
        assert len(cache) == 0
        cache.put(slot, (SIG, (ContentKey(1, 1),)), "e1")
        assert cache.invalidations == 1 and len(cache) == 1

    def test_a_missing_array_drops_its_entries(self):
        cache = TranslationCache()
        cache.put(("partition", "L"), (("ind", ContentKey(5, 2), SIG),), "p")
        cache.prune({6: 0})
        assert len(cache) == 0 and cache.invalidations == 1

    def test_replacing_an_entry_with_a_signature_version_forgets_its_keys(self):
        cache = TranslationCache()
        slot = ("partition", "L")
        cache.put(slot, (("ind", ContentKey(5, 2), SIG),), "p0")
        cache.put(slot, (("direct", SIG),), "p1")
        cache.prune({})
        assert len(cache) == 1


def build_prog(seed=5, n_procs=4, n_data=24, n_iter=30, **kw):
    """x/y over ``d``, two indirections over ``d2``; loop ``LA`` reads
    through ``ia`` only, ``LB`` through ``ib`` only, ``LD`` directly."""
    rng = np.random.default_rng(seed)
    prog = IrregularProgram(Machine(n_procs), **kw)
    prog.decomposition("d", n_data)
    prog.decomposition("d2", n_iter)
    prog.distribute("d", "block")
    prog.distribute("d2", "block")
    prog.array("x", "d", values=rng.normal(size=n_data))
    prog.array("y", "d", values=np.zeros(n_data))
    prog.array("ia", "d2", values=rng.integers(0, n_data, n_iter), dtype=np.int64)
    prog.array("ib", "d2", values=rng.integers(0, n_data, n_iter), dtype=np.int64)
    loops = {
        name: ForallLoop(
            name,
            n_iter,
            [Reduce("add", ArrayRef("y", ix), lambda a: a, (ArrayRef("x", ix),), flops=1)],
        )
        for name, ix in (("LA", "ia"), ("LB", "ib"))
    }
    loops["LD"] = ForallLoop(
        "LD",
        n_data,
        [Reduce("add", ArrayRef("y", None), lambda a: 2 * a, (ArrayRef("x", None),), flops=1)],
    )
    return prog, loops, rng


def slots_of(cache, loop_name):
    return {slot for slot in cache._slots if slot[1] == loop_name}


def spy_prune(monkeypatch, cache):
    """Record (entries, invalidations) before and after every prune."""
    seen = []
    prune = cache.prune

    def spied(live):
        before = (dict(cache._slots), cache.invalidations)
        prune(live)
        seen.append((before, (dict(cache._slots), cache.invalidations)))

    monkeypatch.setattr(cache, "prune", spied)
    return seen


class TestPruneInProgram:
    def test_a_write_drops_exactly_the_entries_keyed_on_it(self):
        prog, loops, rng = build_prog()
        for loop in loops.values():
            prog.forall(loop)
        cache = prog.translation_cache
        held = {name: slots_of(cache, name) for name in loops}
        assert all(held.values())
        la_entries = {s: cache._slots[s] for s in held["LA"]}
        prog.set_array_elements("ib", [3], rng.integers(0, 24, 1))
        prog.inspect(loops["LA"], reuse=False)  # off the reuse path: prunes
        assert prog.last_resolution["cache_misses"] == 0
        assert slots_of(cache, "LB") == set()
        for name in ("LA", "LD"):
            assert slots_of(cache, name) == held[name]
        assert all(cache._slots[s] is e for s, e in la_entries.items())
        # LB's entries went: one invalidation each, and LB re-inspects cold
        assert cache.invalidations == len(held["LB"])
        prog.forall(loops["LB"])
        assert prog.last_resolution["cache_misses"] == len(held["LB"])
        assert slots_of(cache, "LB") == held["LB"]

    def test_data_write_and_redistribute_leave_entries(self, monkeypatch):
        prog, loops, rng = build_prog()
        for loop in loops.values():
            prog.forall(loop)
        cache = prog.translation_cache
        seen = spy_prune(monkeypatch, cache)
        prog.set_array_elements("x", [0, 5], [1.5, -2.0])
        prog.set_array("y", np.zeros(24))
        for loop in loops.values():
            prog.inspect(loop, reuse=False)
            assert prog.last_resolution["cache_misses"] == 0  # still warm
        owners = rng.integers(0, 4, 24)
        prog.redistribute("d", IrregularDistribution(owners, 4))
        prog.forall(loops["LA"])  # condition 1 fails: prune, then the full rung
        assert prog.last_resolution["rung"] == "full"
        assert len(seen) == 4
        for before, after in seen:
            assert before[0].keys() == after[0].keys() and before[1] == after[1]

    def test_warm_hits_on_an_unchanged_pattern_still_hit(self):
        prog, loops, _ = build_prog()
        loop = loops["LA"]
        prog.forall(loop, reuse=False)
        cold = prog.last_resolution
        probes = cold["cache_hits"] + cold["cache_misses"]
        assert cold["cache_misses"] > 0  # y(ia) hits x(ia)'s entry inside it
        for _ in range(3):
            prog.forall(loop, reuse=False)
            warm = prog.last_resolution
            assert warm["cache_misses"] == 0 and warm["cache_hits"] == probes

    @pytest.mark.parametrize("incremental", [False, True], ids=["full", "incremental"])
    def test_hits_charges_and_results_match_an_unpruned_cache(
        self, monkeypatch, incremental
    ):
        """A mixed history -- indirection writes, data writes, remaps to a
        new distribution and back -- with pruning on and pruning off."""

        def run():
            prog, loops, rng = build_prog(seed=8, incremental=incremental)
            owners = np.random.default_rng(3).integers(0, 4, 24)
            block = prog.decomps["d"].distribution
            for step in range(8):
                if step % 4 == 1:
                    prog.set_array_elements("ia", rng.integers(0, 30, 2), rng.integers(0, 24, 2))
                elif step % 4 == 2:
                    prog.set_array_elements("x", [step], [float(step)])
                elif step == 3:
                    prog.redistribute("d", IrregularDistribution(owners, 4))
                elif step == 7:
                    prog.redistribute("d", block)
                for loop in loops.values():
                    prog.forall(loop, reuse=step % 2 == 0)
            return prog

        pruned = run()
        monkeypatch.setattr(TranslationCache, "prune", lambda self, live: None)
        kept = run()
        a, b = pruned.translation_cache, kept.translation_cache
        assert (a.hits, a.misses) == (b.hits, b.misses)
        assert a.stats()["by_kind"].keys() == b.stats()["by_kind"].keys()
        assert len(a) <= len(b)
        assert pruned.machine.elapsed() == kept.machine.elapsed()
        for f in COUNTER_FIELDS:
            ca, cb = getattr(pruned.machine.counters, f), getattr(kept.machine.counters, f)
            assert ca.tobytes() == cb.tobytes(), f
        assert np.array_equal(pruned.arrays["y"].to_global(), kept.arrays["y"].to_global())
        rungs = [e.payload["rung"] for e in pruned.events.category("product.resolved")]
        assert rungs == [e.payload["rung"] for e in kept.events.category("product.resolved")]


def test_direct_loops_never_lose_entries():
    """Entries keyed only on distribution signatures outlive every write."""
    prog, loops, rng = build_prog()
    prog.forall(loops["LD"])
    cache = prog.translation_cache
    held = slots_of(cache, "LD")
    for name, step in itertools.product(("x", "y", "ia", "ib"), range(2)):
        prog.set_array_elements(name, [step], [step])
        prog.inspect(loops["LD"], reuse=False)
        assert prog.last_resolution["cache_misses"] == 0
    assert slots_of(cache, "LD") == held and cache.invalidations == 0
