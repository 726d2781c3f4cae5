"""The adapt snapshots, kept as the reference the diff's old values are
checked against.

The patch rung used to keep a private copy of every indirection array a
loop reads through: ``build_adapt_state`` copied each one's global view
at inspection, ``patch_product`` rewrote the changed positions after
every patch, a checkpoint saved the copies, and the driver diffed the
dirty positions against them.  The diff now reads each old value off the
saved product (``repro.adapt.diff.old_targets``).  :class:`SnapshotOracle`
keeps the deleted bookkeeping, hooked into the incremental inspector,
and checks every diff against it:

* every ``old_targets`` call returns the snapshot's values at the dirty
  positions it was asked about;
* every ``changed`` set handed to ``patch_product`` is exactly the
  positions where the snapshot differs from the array, over the whole
  array (not just the dirty windows).

It also counts what the campaign exercised (patches, positions checked,
patches that moved iterations, holes an added ghost reused), so a test
can assert its scenario really reached the case it is named after.
"""

import numpy as np

import repro.adapt.driver as driver
from tests.chaos.schedule_oracle import ghost_flat


def reused_holes(old, new) -> int:
    """Ghost slots that were holes in ``old`` and are live in ``new``
    (slot positions are stable per processor; regions only grow)."""
    n = 0
    for key, pat in new.patterns.items():
        lo, ln = old.patterns[key].localized, pat.localized
        ob, nb = lo.slots.slot_bounds, ln.slots.slot_bounds
        old_keys, new_keys = ghost_flat(lo), ghost_flat(ln)
        for p in range(ob.size - 1):
            was = old_keys[ob[p] : ob[p + 1]]
            now = new_keys[nb[p] : nb[p] + was.size]
            n += int(((was < 0) & (now >= 0)).sum())
    return n


class SnapshotOracle:
    """Per program (keyed by its ``arrays`` dict) and loop: the values
    each indirection array held when the loop's saved product was built."""

    def __init__(self, monkeypatch):
        self.snapshots: dict[tuple[int, str], dict[str, np.ndarray]] = {}
        self.checked = 0  # dirty positions whose old value was compared
        self.patches = 0
        self.moved = 0  # patches that changed the iteration partition
        self.reused = 0  # holes taken by a never-seen ghost key
        self._install(monkeypatch)

    def take(self, arrays, loop) -> None:
        """Snapshot ``loop``'s indirection arrays now (after an inspection)."""
        self.snapshots[id(arrays), loop.name] = {
            name: np.asarray(arrays[name].to_global(), dtype=np.int64).copy()
            for name in loop.indirection_arrays()
        }

    def adopt(self, src_arrays, dst_arrays, loop) -> None:
        """What a checkpoint used to carry: ``dst`` resumes ``src``'s
        snapshots of ``loop`` (copied, as restore copied them)."""
        self.snapshots[id(dst_arrays), loop.name] = {
            name: snap.copy()
            for name, snap in self.snapshots[id(src_arrays), loop.name].items()
        }

    def _install(self, monkeypatch) -> None:
        real_after = driver.IncrementalInspector.after_inspect
        real_old = driver.old_targets
        real_patch = driver.patch_product

        def after_inspect(inc, loop, record):
            real_after(inc, loop, record)
            self.take(inc.arrays, loop)

        def old_targets(product, arrays, name, pos):
            got = real_old(product, arrays, name, pos)
            want = self.snapshots[id(arrays), product.loop.name][name][pos]
            assert np.array_equal(got, want), (product.loop.name, name)
            self.checked += int(pos.size)
            return got

        def patch_product(machine, product, arrays, changed, ttables):
            snap = self.snapshots[id(arrays), product.loop.name]
            for name, chg in changed.items():
                want = np.flatnonzero(snap[name] != arrays[name].to_global())
                assert np.array_equal(chg, want), (product.loop.name, name)
            out = real_patch(machine, product, arrays, changed, ttables)
            # the deleted in-place update: the changed positions only
            for name, pos in changed.items():
                snap[name][pos] = arrays[name].global_get(pos)
            self.patches += 1
            self.moved += out.iteration_partition is not product.iteration_partition
            self.reused += reused_holes(product, out)
            return out

        monkeypatch.setattr(driver.IncrementalInspector, "after_inspect", after_inspect)
        monkeypatch.setattr(driver, "old_targets", old_targets)
        monkeypatch.setattr(driver, "patch_product", patch_product)
