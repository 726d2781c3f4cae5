"""An adaptive run frees its cold product once nothing can read it.

After the first indirection write, the step-0 translation-cache entries
are keyed on superseded content: no inspection can read them again.  The
first patch step must leave them collectable.  The edge arrays sit on a
BLOCK template, so the cold inspection reads their backing and never
assembles (copies) a global view of them at all.  Weakrefs make this
deterministic (no memory thresholds), and a run with pruning disabled
gives the same results and simulated numbers.
"""

import gc
import weakref

import numpy as np

from repro import AdaptiveExecutor
from repro.chaos.transcache import TranslationCache
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.workloads import generate_mesh
from repro.workloads.adaptive import apply_adaptation, build_refinement_schedule
from repro.workloads.euler import euler_edge_loop, setup_euler_program

EDGE_ARRAYS = ("end_pt1", "end_pt2")


def campaign(n_patches=3, probe=None):
    """Full inspection then ``n_patches`` churn steps on a tiny mesh;
    ``probe(prog)`` runs after the full inspection."""
    mesh = generate_mesh(300, seed=4, cache=False)
    prog = setup_euler_program(Machine(4), mesh, seed=11, incremental=True, guard="cheap")
    exe = AdaptiveExecutor(prog, euler_edge_loop(mesh))
    schedule = build_refinement_schedule(mesh, 0.05, n_patches, seed=2)
    modes = [exe.step()]
    out = probe(prog) if probe is not None else None
    for update in schedule.updates:
        apply_adaptation(prog, update)
        modes.append(exe.step())
    return prog, modes, out


def cold_refs(prog):
    """Weakrefs to the step-0 localize entries and their localized
    references; the cold step built no global view of the edge arrays,
    and its one sweep kept no executor space or positions."""
    cache = prog.translation_cache
    entries = [entry for slot, (_, entry) in cache._slots.items() if slot[0] == "localize"]
    holders = [h for e in entries for h in e.derived.values()]
    assert entries and all(h.ran for h in holders)
    assert all(h.exec_space is None and h.exec_refs is None for h in holders)
    assert all(prog.arrays[name]._global_cache is None for name in EDGE_ARRAYS)
    return {
        "entries": [weakref.ref(e) for e in entries],
        "refs": [weakref.ref(e.refs_flat) for e in entries],
    }


def test_first_patch_releases_the_cold_product():
    prog, modes, refs = campaign(n_patches=1, probe=cold_refs)
    assert modes == ["full", "patch"]
    gc.collect()
    for what, held in refs.items():
        assert all(r() is None for r in held), what
    # every entry of the loop was keyed on edge-array content
    assert len(prog.translation_cache) == 0


def test_results_and_simulated_numbers_match_an_unpruned_run(monkeypatch):
    pruned, modes, _ = campaign()
    monkeypatch.setattr(TranslationCache, "prune", lambda self, live: None)
    kept, kept_modes, _ = campaign()
    assert modes == kept_modes == ["full", "patch", "patch", "patch"]
    assert len(pruned.translation_cache) == 0 < len(kept.translation_cache)
    a, b = pruned.translation_cache, kept.translation_cache
    assert (a.hits, a.misses) == (b.hits, b.misses)
    assert pruned.machine.elapsed() == kept.machine.elapsed()
    for f in COUNTER_FIELDS:
        ca, cb = getattr(pruned.machine.counters, f), getattr(kept.machine.counters, f)
        assert ca.tobytes() == cb.tobytes(), f
    for name in ("y", *EDGE_ARRAYS):
        assert np.array_equal(pruned.arrays[name].to_global(), kept.arrays[name].to_global())
