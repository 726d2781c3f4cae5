"""Derive-once index arrays, segment-reduce verify, sort-based range cover.

The patch step used to re-derive whole-product index arrays in every
consumer and range-check products element by element.  Each replacement
is pinned here to the naive form it replaced, kept as the oracle:

* ``kernels.first_segment_outside`` (behind ``_verify_refs``,
  ``verify_schedule`` and the ``CommSchedule`` constructor)
                                   vs  the element-wise range test
* ``IterationPartition.inverse`` / ``proc_of_position``
                                   vs  scatter / ``np.repeat`` built here
* a schedule's slot order          the unpack positions themselves
* groups over one layout           verified once per distinct input objects
* ``kernels.sorted_unique`` / ``ranges_from_positions``
                                   vs  ``np.unique``
* one patch step at ``guard="cheap"`` with ``np.unique`` forbidden
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AdaptiveExecutor
from repro.chaos.kernels import first_segment_outside, sorted_unique
from repro.chaos.schedule import CommSchedule
from repro.core.iteration import IterationPartition, partition_from_home
from repro.core.timestamps import merge_ranges, ranges_from_positions
from repro.guard import InvariantViolation, load_checkpoint, save_checkpoint, verify_schedule
from repro.guard.invariants import _verify_refs
from repro.machine import Machine
from repro.workloads import generate_mesh
from repro.workloads.euler import euler_edge_loop, setup_euler_program
from tests.chaos.schedule_oracle import entries


# ----------------------------------------------------------------------
# (a) segment-reduce range checks == the element-wise oracle
# ----------------------------------------------------------------------
def elementwise_first_bad(values, bounds, limit):
    """The check as it was written: one limit per element, three
    per-element temporaries; returns the offending segment or None."""
    seg = np.repeat(np.arange(limit.size), np.diff(bounds))
    bad = (values < 0) | (values >= limit[seg])
    return int(seg[np.flatnonzero(bad)[0]]) if bad.any() else None


@st.composite
def segment_cases(draw):
    """CSR segments (empty ones included, also first and last) filled
    with in-range values, then up to three planted violations: a value
    below zero or exactly at its segment's limit, anywhere -- first and
    last segment, first and last element -- or none at all."""
    n_seg = draw(st.integers(1, 9))
    counts = np.array(draw(st.lists(st.integers(0, 6), min_size=n_seg, max_size=n_seg)))
    bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    limit = np.array(draw(st.lists(st.integers(1, 8), min_size=n_seg, max_size=n_seg)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seg = np.repeat(np.arange(n_seg), counts)
    values = rng.integers(0, limit[seg]) if seg.size else np.empty(0, dtype=np.int64)
    for _ in range(draw(st.integers(0, 3)) if seg.size else 0):
        i = draw(st.sampled_from([0, seg.size - 1, int(rng.integers(seg.size))]))
        values[i] = draw(st.sampled_from([-1, -7, int(limit[seg[i]]), int(limit[seg[i]]) + 3]))
    return values.astype(np.int64), bounds, limit.astype(np.int64)


def refs_pattern(values, bounds, limit):
    """A stand-in pattern whose combined space is ``limit`` per processor
    (all of it local; the ghost regions are empty)."""
    loc = SimpleNamespace(
        ref_bounds=bounds,
        refs_flat=values,
        local_sizes=limit.tolist(),
        slots=SimpleNamespace(slot_bounds=np.zeros(limit.size + 1, dtype=np.int64)),
    )
    return SimpleNamespace(array="x", index="e", localized=loc)


class TestSegmentReduceVerify:
    @settings(max_examples=300, deadline=None)
    @given(segment_cases())
    def test_kernel_and_verify_refs_match_elementwise(self, case):
        values, bounds, limit = case
        want = elementwise_first_bad(values, bounds, limit)
        assert first_segment_outside(values, bounds, limit) == want
        pat = refs_pattern(values, bounds, limit)
        if want is None:
            _verify_refs(pat, bounds, "cheap")
        else:
            with pytest.raises(InvariantViolation, match="combined local\\+ghost"):
                _verify_refs(pat, bounds, "cheap")

    @settings(max_examples=150, deadline=None)
    @given(segment_cases())
    def test_schedule_bounds_checks_match_elementwise(self, case):
        """Pairs are the segments and the requester's ghost region the
        range of its slots: the constructor and ``verify_schedule`` (given
        a slot corrupted after construction) reject exactly what the
        element-wise test rejects, naming the requester."""
        recv, bounds, sizes = case
        live = np.flatnonzero(np.diff(bounds))  # schedules store live pairs only
        want = elementwise_first_bad(recv, bounds, sizes)
        # segment s is the pair (owner s + 1, requester s) of a machine
        # wider than there are segments
        ghost_sizes = np.ones(16, dtype=np.int64)
        ghost_sizes[: sizes.size] = sizes
        slot_bounds = np.concatenate(([0], np.cumsum(ghost_sizes)))
        first = slot_bounds[np.repeat(np.arange(sizes.size), np.diff(bounds))]

        def make(order):
            return CommSchedule(
                Machine(16), ("sig",), live + 1, live, np.diff(bounds)[live],
                order, np.zeros(int(slot_bounds[-1]), dtype=np.int64), slot_bounds,
            )

        if want is None:
            make(first + recv)
        else:
            with pytest.raises(ValueError, match=rf"pair \({want + 1}, {want}\): slot out of range"):
                make(first + recv)
        # a healthy schedule corrupted in place: only the verifier sees it
        healthy = np.where((recv < 0) | (recv >= np.repeat(sizes, np.diff(bounds))), 0, recv)
        given = first + healthy
        sched = make(given)
        given[:] = first + recv  # through the array the schedule holds a view of
        if want is None:
            # (recv repeats slots, which a later check of verify_schedule
            # rejects: stop at the bounds check's verdict)
            try:
                verify_schedule(sched, "cheap")
            except InvariantViolation as exc:
                assert "slot out of range" not in str(exc)
        else:
            with pytest.raises(InvariantViolation, match="slot out of range") as err:
                verify_schedule(sched, "cheap")
            assert str(err.value).endswith(f"for requester {want}")

    def test_reference_list_must_cover_its_bounds(self):
        bounds = np.array([0, 2, 4])
        pat = refs_pattern(np.zeros(5, dtype=np.int64), bounds, np.array([3, 3]))
        with pytest.raises(InvariantViolation, match="does not cover"):
            _verify_refs(pat, bounds, "cheap")


# ----------------------------------------------------------------------
# (b) the partition's derived index arrays
# ----------------------------------------------------------------------
class TestPartitionIndexArrays:
    @pytest.mark.parametrize("n_procs", [1, 3, 8])
    def test_equal_naive_frozen_and_built_once(self, n_procs):
        home = np.random.default_rng(n_procs).integers(0, n_procs, size=200)
        home[home == n_procs - 1] = 0 if n_procs > 2 else home[0]  # an empty processor
        part = partition_from_home(home, n_procs, "almost_owner")
        flat, bounds = part.iters_flat()
        naive_inv = np.empty(home.size, dtype=np.int64)
        naive_inv[flat] = np.arange(home.size)
        naive_pid = np.repeat(np.arange(n_procs), np.diff(bounds))
        got = part.inverse()
        np.testing.assert_array_equal(got, naive_inv)
        assert got.dtype == np.int64 and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0
        assert part.inverse() is part.inverse()
        # the per-position processor ids are built per call: no partition
        # keeps an array the executor never reads
        pid = part.proc_of_position()
        np.testing.assert_array_equal(pid, naive_pid)
        assert pid.dtype == np.int64 and part.proc_of_position() is not pid
        np.testing.assert_array_equal(part.owner_of(), home)
        assert part.owner_of().flags.writeable  # a fresh map per call, as before

    def test_empty_partition(self):
        part = IterationPartition(
            0, "almost_owner", flat=np.empty(0, dtype=np.int64), bounds=np.zeros(5, dtype=np.int64)
        )
        assert part.inverse().size == part.proc_of_position().size == 0

    def test_patched_partition_equals_a_fresh_one(self):
        mesh, prog, loop, exe = adaptive_campaign()
        for step in range(2):
            churn(prog, mesh, step)
            assert exe.step() == "patch"
        part = prog.records[loop.name].product.iteration_partition
        # a patched product is born with its adapt state
        state = prog.records[loop.name].product.adapt_state
        fresh = partition_from_home(state.home, prog.machine.n_procs, part.method)
        np.testing.assert_array_equal(part.flat, fresh.flat)
        np.testing.assert_array_equal(part.inverse(), fresh.inverse())
        np.testing.assert_array_equal(part.proc_of_position(), fresh.proc_of_position())


# ----------------------------------------------------------------------
# (c) one schedule per layout, shared by sibling groups, never saved
# ----------------------------------------------------------------------
def adaptive_campaign(n_procs=4, n_nodes=300):
    mesh = generate_mesh(n_nodes, seed=4)
    prog = setup_euler_program(Machine(n_procs), mesh, seed=11, incremental=True, guard="cheap")
    prog.construct("G", mesh.n_nodes, geometry=["xc", "yc", "zc"])
    prog.set_distribution("fmt", "G", "RCB")
    prog.redistribute("reg", "fmt")
    loop = euler_edge_loop(mesh)
    exe = AdaptiveExecutor(prog, loop)
    assert exe.step() == "full"
    return mesh, prog, loop, exe


def churn(prog, mesh, step, size=25):
    rng = np.random.default_rng(1000 + step)
    pick = np.sort(rng.choice(mesh.n_edges, size=size, replace=False))
    e1 = np.asarray(prog.arrays["end_pt1"].global_view(), dtype=np.int64)
    new = (e1[pick] + 1 + rng.integers(0, mesh.n_nodes - 1, pick.size)) % mesh.n_nodes
    prog.set_array_elements("end_pt2", pick, new)


class TestScheduleLayout:
    """A schedule keeps its pairs, its slot order (the unpack positions)
    and the pack positions, reads send offsets off its slot state, and
    sibling groups over one layout hold the one schedule object."""

    def patched(self):
        mesh, prog, loop, exe = adaptive_campaign()
        churn(prog, mesh, 0)
        assert exe.step() == "patch"
        product = prog.records[loop.name].product
        scheds = {id(p.localized.schedule): p.localized.schedule for p in product.patterns.values()}
        # the x group and the y group: two groups, one schedule
        assert len(product.groups) == 2 and len(scheds) == 1
        return prog, exe, next(iter(scheds.values()))

    def test_siblings_share_one_schedule(self):
        prog, exe, a = self.patched()
        # the patch step executed it: the pack positions are resolved once
        assert a._pack_pos is not None
        slots = prog.records[exe.loop.name].product.patterns["x", "end_pt1"].localized.slots
        assert a._lidx is slots.lidx and a._ghost_off.base is slots.slot_bounds
        q, p, send, recv = entries(a)
        np.testing.assert_array_equal(a._unpack_pos, slots.slot_bounds[p] + recv)
        np.testing.assert_array_equal(slots.owners[a._unpack_pos], q)
        for arr in (a._unpack_pos, a._pack_pos):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_two_arrays_of_the_element_count(self):
        _, _, a = self.patched()
        E = a._n_elements
        assert E > 1
        # (``_lidx`` is the slot state's own array, one offset per slot)
        held = [
            name for name, v in vars(a).items()
            if isinstance(v, np.ndarray) and v.size == E and name != "_lidx"
        ]
        assert sorted(held) == ["_pack_pos", "_unpack_pos"]

    def test_a_fresh_layout_holds_five_arrays_of_its_ghost_count(self):
        """Keys, owners, offsets, the slot order and the pack positions:
        a schedule copies nothing of its slot state."""
        mesh, prog, loop, exe = adaptive_campaign()
        loc = prog.records[loop.name].product.patterns["x", "end_pt1"].localized
        S = loc.slots.keys.size
        assert S > 1 and loc.schedule._pack_pos is not None
        objs = [loc.slots, loc.schedule]
        held = {
            id(v.base if v.base is not None else v)
            for o in objs for v in vars(o).values()
            if isinstance(v, np.ndarray) and v.size == S
        }
        assert len(held) == 5

    def test_positions_absent_from_checkpoint_payloads(self, tmp_path):
        """A file holds no schedule, so none of its derived positions: a
        group stores its slot state, and the restore reads the siblings'
        one schedule off it and derives its positions afresh."""
        prog, exe, live = self.patched()
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, prog, driver=exe)
        (rec,) = load_checkpoint(path)["records"].values()
        for group in rec["product"]["groups"]:
            assert set(group) == {
                "array", "indexes", "local_sizes", "slot_bounds", "keys", "owners",
                "lidx", "counts", "refs_flat",
            }
        mesh = generate_mesh(300, seed=4)
        resumed = setup_euler_program(Machine(4), mesh, seed=11, incremental=True, guard="cheap")
        loop = euler_edge_loop(mesh)
        AdaptiveExecutor.resume(path, resumed, loop)
        product = resumed.records[loop.name].product
        (got,) = {id(p.localized.schedule): p.localized.schedule
                  for p in product.patterns.values()}.values()
        for f in ("_pair_q", "_pair_p", "_pair_len", "_unpack_pos"):
            np.testing.assert_array_equal(getattr(got, f), getattr(live, f))
        for a, b in zip(entries(got), entries(live)):
            np.testing.assert_array_equal(a, b)
        assert got.ghost_sizes == live.ghost_sizes and got._pack_pos is None


class TestSharedLayoutVerifiedOnce:
    """After a patch the y group holds the x group's very objects; the
    verifier gives one verdict per distinct set of input objects -- and
    must still see anything that differs in y's own view."""

    def patched(self):
        mesh, prog, loop, exe = adaptive_campaign()
        churn(prog, mesh, 0)
        assert exe.step() == "patch"
        return prog, prog.records[loop.name].product  # born with its adapt state

    def test_shared_inputs_checked_once_own_inputs_always(self, monkeypatch):
        from repro.guard import invariants

        prog, product = self.patched()
        calls = {"_verify_refs": 0, "verify_schedule": 0}
        for name in calls:
            real = getattr(invariants, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(invariants, name, spy)
        invariants.verify_product(product, prog.arrays, "cheap")
        # four patterns over two distinct reference lists, two groups
        # over one schedule
        assert calls == {"_verify_refs": 2, "verify_schedule": 1}

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_corruption_in_ys_own_view_is_caught(self, level):
        prog, product = self.patched()
        from repro.guard import verify_product

        verify_product(product, prog.arrays, level)
        y = product.patterns["y", "end_pt1"]
        # a reference out of the combined space in y's own view of the list
        bad = y.localized.refs_flat.copy()
        bad[-1] = 10**9
        y.localized.refs_flat = bad
        with pytest.raises(InvariantViolation, match=r"combined local\+ghost"):
            verify_product(product, prog.arrays, level)

    def test_a_retargeted_reference_in_ys_own_view_is_caught_at_full(self):
        from repro.guard import verify_product

        prog, product = self.patched()
        y = product.patterns["y", "end_pt1"]
        loc = y.localized
        # processor 0's first local reference moved onto its first ghost
        # slot: still in range, but that slot's reference count drifts
        p0 = int(np.flatnonzero(np.diff(loc.slots.slot_bounds) > 0)[0])
        start, stop = int(loc.ref_bounds[p0]), int(loc.ref_bounds[p0 + 1])
        local = loc.local_sizes[p0]
        i = start + int(np.flatnonzero(loc.refs_flat[start:stop] < local)[0])
        bad = loc.refs_flat.copy()
        bad[i] = local
        loc.refs_flat = bad
        verify_product(product, prog.arrays, "cheap")
        with pytest.raises(InvariantViolation, match="reference counts drifted"):
            verify_product(product, prog.arrays, "full")

    @pytest.mark.parametrize("level", ["cheap", "full"])
    def test_a_flipped_shared_schedule_is_caught(self, level):
        from repro.guard import FaultPlan, verify_product

        prog, product = self.patched()
        y = product.patterns["y", "end_pt1"]
        # the shared schedule desynchronised from the slot map (what
        # flip_slots injects): both groups hold it
        assert y.localized.schedule is product.patterns["x", "end_pt1"].localized.schedule
        assert FaultPlan._flip_schedule(y.localized.schedule)
        with pytest.raises(InvariantViolation):
            verify_product(product, prog.arrays, level)


# ----------------------------------------------------------------------
# (d) range cover and sorted_unique vs the np.unique-based reference
# ----------------------------------------------------------------------
def unique_based_cover(positions):
    """``ranges_from_positions`` as it was, on ``np.unique``."""
    pos = np.asarray(positions)
    if pos.size and not np.issubdtype(pos.dtype, np.integer):
        raise ValueError(f"positions must be integers, got dtype {pos.dtype}")
    pos = np.unique(pos.astype(np.int64, copy=False))
    if not pos.size:
        return np.empty((0, 2), dtype=np.int64)
    if (pos < 0).any():
        raise ValueError("positions must be non-negative")
    breaks = np.flatnonzero(np.diff(pos) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, pos.size - 1)
    return np.stack([pos[starts], pos[ends] + 1], axis=1)


class TestRangeCover:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-3, 60), max_size=40),
        st.sampled_from(["as drawn", "sorted", "reversed"]),
        st.sampled_from([np.int64, np.int32, np.uint8]),
    )
    def test_equals_unique_based_reference(self, values, order, dtype):
        if dtype is np.uint8:
            values = [abs(v) for v in values]
        if order != "as drawn":
            values = sorted(values, reverse=order == "reversed")
        pos = np.array(values, dtype=dtype)  # duplicates, empty, negatives all occur
        want_unique = np.unique(pos)
        got_unique = sorted_unique(pos)
        assert got_unique.dtype == want_unique.dtype
        np.testing.assert_array_equal(got_unique, want_unique)
        try:
            want = unique_based_cover(pos)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                ranges_from_positions(pos)
            return
        got = ranges_from_positions(pos)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        # a cover is already merged: merging it again is the identity
        np.testing.assert_array_equal(merge_ranges(got), got)

    def test_input_is_not_modified_or_aliased(self):
        pos = np.array([5, 3, 3, 9])
        out = sorted_unique(pos)
        assert pos.tolist() == [5, 3, 3, 9]
        sorted_in = np.array([1, 2, 3])
        assert not np.shares_memory(sorted_unique(sorted_in), sorted_in)
        assert out.tolist() == [3, 5, 9]

    def test_non_integer_and_list_input(self):
        with pytest.raises(ValueError, match="positions must be integers"):
            ranges_from_positions(np.array([1.5, 2.0]))
        assert ranges_from_positions([4, 2, 3, 9]).tolist() == [[2, 5], [9, 10]]
        assert ranges_from_positions(np.array([[7, 8], [1, 8]])).tolist() == [[1, 2], [7, 9]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6)), max_size=12))
    def test_merge_ranges_fast_path_equals_general_path(self, spans):
        """Already-merged input returns early; that must be what the
        sort-and-fold path computes (a dict-free brute-force union)."""
        ranges = np.array([(lo, lo + n) for lo, n in spans], dtype=np.int64).reshape(-1, 2)
        covered = np.zeros(48, dtype=bool)
        for lo, hi in ranges:
            covered[lo:hi] = True
        want = unique_based_cover(np.flatnonzero(covered))
        np.testing.assert_array_equal(merge_ranges(ranges), want)
        np.testing.assert_array_equal(merge_ranges(want), want)


# ----------------------------------------------------------------------
# (e) nothing on a patch step calls np.unique
# ----------------------------------------------------------------------
def test_patch_step_never_calls_np_unique(monkeypatch):
    mesh, prog, loop, exe = adaptive_campaign()
    churn(prog, mesh, 0)
    assert exe.step() == "patch"  # lazy state built, caches warm

    def forbidden(*args, **kwargs):
        raise AssertionError("np.unique called on the patch step")

    monkeypatch.setattr(np, "unique", forbidden)
    churn(prog, mesh, 1)
    assert exe.step() == "patch"
    assert not [r for r in prog.adapt.fallback_log if r["stage"] in ("patch", "verify")]
