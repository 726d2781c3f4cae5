"""Array remapping: move data between distributions (Phase C of Figure 2).

"A communication schedule is built and used to redistribute the arrays
from the default to the new distribution" (Section 4.1.2).  The schedule
is built once per redistribution and applied to every array aligned with
the decomposition -- remapping x, y and the coordinate arrays of a mesh
shares one :class:`RemapSchedule`.

Like ``CommSchedule``, the move set is flat (CSR) and has no other
form: one (src proc, dst proc, count) triple per communicating pair plus
concatenated old/new local-offset arrays, resolved once to *flat
backing positions* against the old/new distributions.  ``apply`` is a
single gather + scatter fancy-index over the arrays' contiguous backing
storage and pure bincount/ufunc charging -- no Python loop over move
pairs or processors.  A full build and a patch from a repartitioning
delta differ only in which elements they group (all of them / the
touched ones, the rest carried); everything after the grouping is one
code path.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.costs import DEFAULT_COSTS
from repro.distribution.base import Distribution
from repro.distribution.distarray import DistArray
from repro.machine.machine import Machine, get_or_plan


def _group_elements(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of element positions by key.

    Returns ``(uniq_keys, order, bounds)``: ``order[bounds[i]:bounds[i+1]]``
    are the positions with key ``uniq_keys[i]``, in original order.
    """
    if not keys.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.zeros(1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    bounds = np.concatenate(([0], boundaries, [keys.size]))
    return sorted_keys[bounds[:-1]], order, bounds


class RemapSchedule:
    """Moves every element from its old owner/offset to its new one.

    The flattened form: ``pair_p[i]``/``pair_q[i]``/``pair_counts[i]``
    describe the i-th communicating pair; ``src_index``/``dst_index``
    hold all pairs' local offsets concatenated in pair order (the
    destination side is kept only as flat backing positions).
    """

    def __init__(
        self,
        machine: Machine,
        old_signature: tuple,
        new_dist: Distribution,
        pair_p: np.ndarray,
        pair_q: np.ndarray,
        pair_counts: np.ndarray,
        src_index: np.ndarray,
        dst_index: np.ndarray,
        carry_p: np.ndarray | None = None,
        carry_index: np.ndarray | None = None,
    ):
        self.machine = machine
        self.old_signature = old_signature
        self.new_dist = new_dist
        self.pair_p = pair_p
        self.pair_q = pair_q
        self.pair_counts = pair_counts
        self.src_index = src_index
        # flat backing positions: the destination side is known now (the
        # new distribution is in hand); the source side is resolved on
        # first apply() from the array's current (old) distribution
        elem_p = np.repeat(pair_p, pair_counts)
        elem_q = np.repeat(pair_q, pair_counts)
        self._elem_p = elem_p
        self._dst_pos = new_dist.flat_offsets()[elem_q] + dst_index
        self._src_pos: np.ndarray | None = None
        # carried elements keep their exact (owner, local offset): no
        # simulated cost -- the data never leaves its slot on the real
        # machine, only the simulator's flat backing layout shifts.  A
        # full schedule covers every element via pairs and carries none.
        self.carry_p = carry_p
        self.carry_index = carry_index
        if carry_p is not None and carry_p.size:
            self._carry_dst_pos = new_dist.flat_offsets()[carry_p] + carry_index
        else:
            self._carry_dst_pos = None
        self._carry_src_pos: np.ndarray | None = None
        # the per-application charges, planned on first use and shared
        # by every array the schedule is applied to: ``("move",
        # itemsize)`` -> the move ExchangeCharge, ``"pack"`` -> the
        # (pack, unpack) ComputeCharges
        self._charges: dict = {}

    def element_count(self) -> int:
        """Elements that change processor (self-moves excluded)."""
        cross = self.pair_p != self.pair_q
        return int(self.pair_counts[cross].sum())

    def apply(self, arr: DistArray) -> None:
        """Move one array's data and rebind it to the new distribution."""
        if arr.machine is not self.machine:
            raise ValueError("remap schedule and array live on different machines")
        if arr.distribution.signature() != self.old_signature:
            raise ValueError(
                f"remap schedule is stale: built for {self.old_signature}, "
                f"array {arr.name!r} has {arr.distribution.signature()}"
            )
        m = self.machine
        n = m.n_procs

        # gather every moved value and scatter it to its new flat
        # position in two fancy-indexes over the backing arrays
        if self._src_pos is None:
            self._src_pos = (
                arr.distribution.flat_offsets()[self._elem_p] + self.src_index
            )
        new_data = np.empty(self.new_dist.size, dtype=arr.dtype)
        if self._carry_dst_pos is not None:
            if self._carry_src_pos is None:
                self._carry_src_pos = (
                    arr.distribution.flat_offsets()[self.carry_p] + self.carry_index
                )
            new_data[self._carry_dst_pos] = arr.backing_ro[self._carry_src_pos]
        wire = arr.backing_ro[self._src_pos]
        keep = None
        if m.faults is not None:
            # fault injection hook: may corrupt/duplicate moved elements
            # (returns a perturbed copy) or drop some (keep mask); the
            # charged message volume below is untouched either way
            wire, keep = m.faults.on_remap_wire(wire)
        if keep is None:
            new_data[self._dst_pos] = wire
        else:
            # dropped moves never arrive: their destination slots keep
            # the allocation's stale (zero) fill
            new_data[self._dst_pos[~keep]] = 0
            new_data[self._dst_pos[keep]] = wire[keep]

        def plan_pack():
            words = DEFAULT_COSTS.pack_unpack_mem * self.pair_counts
            return [
                m.plan_compute_all(mem=np.bincount(side, weights=words, minlength=n))
                for side in (self.pair_p, self.pair_q)
            ]

        def plan_move():
            return m.plan_exchange(
                src=self.pair_p, dst=self.pair_q, nbytes=self.pair_counts * arr.itemsize
            )

        pack, unpack = get_or_plan(self._charges, "pack", plan_pack)
        m.charge_planned_compute(pack)
        m.charge_exchange(get_or_plan(self._charges, ("move", arr.itemsize), plan_move))
        m.charge_planned_compute(unpack)
        arr.rebind_flat(self.new_dist, new_data)


def _translate_moves(
    machine: Machine, old_dist: Distribution, new_dist: Distribution, elems: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(old owner, new owner, old offset, new offset)`` of the global
    indices ``elems``, once the two distributions are known to be
    remappable on ``machine``."""
    if old_dist.size != new_dist.size:
        raise ValueError(
            f"cannot remap between sizes {old_dist.size} and {new_dist.size}"
        )
    if old_dist.n_procs != machine.n_procs or new_dist.n_procs != machine.n_procs:
        raise ValueError("distributions must span the machine")
    if not elems.size:
        return elems, elems, elems, elems
    return tuple(
        np.asarray(translate(elems), dtype=np.int64)
        for translate in (
            old_dist.owner,
            new_dist.owner,
            old_dist.local_index,
            new_dist.local_index,
        )
    )


def _assemble(
    machine: Machine,
    old_dist: Distribution,
    new_dist: Distribution,
    moves: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    carry_p: np.ndarray | None = None,
    carry_index: np.ndarray | None = None,
) -> RemapSchedule:
    """Group ``moves`` into pairs, charge the construction, build.

    Charges the per-element remap bookkeeping at the old owner plus the
    move-list exchange (each element's (gidx, new offset) pair travels
    to the new owner as schedule metadata) over the cross pairs.
    """
    n = machine.n_procs
    old_owner, new_owner, old_lidx, new_lidx = moves
    # one stable sort groups the elements by (old owner, new owner); pair
    # ids, counts, and the flattened offset lists fall out without any
    # per-pair Python loop
    pair_keys, order, bounds = _group_elements(old_owner * n + new_owner)
    pair_p = pair_keys // n
    pair_q = pair_keys % n
    pair_counts = np.diff(bounds)

    per_proc = np.bincount(pair_p, weights=pair_counts, minlength=n)
    machine.charge_compute_all(iops=DEFAULT_COSTS.remap_build * per_proc)
    cross = pair_p != pair_q
    machine.exchange(
        src=pair_p[cross],
        dst=pair_q[cross],
        nbytes=pair_counts[cross] * 2 * DEFAULT_COSTS.index_bytes,
    )
    machine.barrier()
    return RemapSchedule(
        machine,
        old_dist.signature(),
        new_dist,
        pair_p,
        pair_q,
        pair_counts,
        old_lidx[order],
        new_lidx[order],
        carry_p,
        carry_index,
    )


def build_remap_schedule(
    machine: Machine,
    old_dist: Distribution,
    new_dist: Distribution,
) -> RemapSchedule:
    """Build the schedule that moves data from ``old_dist`` to ``new_dist``.

    Charges the per-element schedule-construction work (new translation
    table entries, move-list assembly) plus the exchange of move lists.
    """
    g = np.arange(old_dist.size, dtype=np.int64)
    moves = _translate_moves(machine, old_dist, new_dist, g)
    return _assemble(machine, old_dist, new_dist, moves)


def patch_remap_schedule(
    machine: Machine,
    old_dist: Distribution,
    new_dist: Distribution,
    plan,
) -> RemapSchedule:
    """Build a remap schedule from a repartitioning delta alone.

    ``plan`` is the :class:`~repro.distribution.irregular.RebalancePlan`
    that produced ``new_dist`` from ``old_dist`` (via
    ``repartition_stable``): ``moved`` elements change processor and pay
    network; ``repacked`` elements slide within their processor's memory
    (self pairs, pack/unpack only); every other element keeps its exact
    (owner, local offset) and is *carried* -- zero simulated cost, one
    host fancy-index.  Schedule-construction charges are sized by the
    delta, not the array: ``remap_build`` per moved/repacked element and
    a move-list exchange over the cross pairs only, mirroring
    :func:`build_remap_schedule` shrunk to the touched set.
    """
    touched = np.concatenate([plan.moved, plan.repacked])
    moves = _translate_moves(machine, old_dist, new_dist, touched)
    if plan.repacked.size and not np.array_equal(
        moves[0][plan.moved.size :], moves[1][plan.moved.size :]
    ):
        raise ValueError("repacked elements must keep their processor")

    carry_mask = np.ones(old_dist.size, dtype=bool)
    carry_mask[touched] = False
    carry_g = np.flatnonzero(carry_mask)
    sched = _assemble(
        machine,
        old_dist,
        new_dist,
        moves,
        carry_p=np.asarray(old_dist.owner(carry_g), dtype=np.int64),
        carry_index=np.asarray(old_dist.local_index(carry_g), dtype=np.int64),
    )
    if machine.faults is not None:
        # fault injection hook: may desynchronize the patched schedule's
        # destination map (the remap analogue of flip_slots)
        machine.faults.on_patched_remap(sched)
    return sched


def _common_layout(arrays: list[DistArray]) -> DistArray:
    """The first of ``arrays``, once all are known to share one machine
    and one distribution (so one schedule serves them all)."""
    if not arrays:
        raise ValueError("no arrays to remap")
    first = arrays[0]
    for arr in arrays[1:]:
        if arr.distribution.signature() != first.distribution.signature():
            raise ValueError(
                f"arrays {first.name!r} and {arr.name!r} have different "
                "distributions; remap them separately"
            )
        if arr.machine is not first.machine:
            raise ValueError("arrays live on different machines")
    return first


def remap_arrays_incremental(
    arrays: list[DistArray],
    new_dist: Distribution,
    plan,
) -> RemapSchedule:
    """Like :func:`remap_arrays`, with the schedule patched from a
    :class:`~repro.distribution.irregular.RebalancePlan` delta instead
    of rebuilt over every element."""
    first = _common_layout(arrays)
    sched = patch_remap_schedule(first.machine, first.distribution, new_dist, plan)
    for arr in arrays:
        sched.apply(arr)
    return sched


def remap_arrays(arrays: list[DistArray], new_dist: Distribution) -> RemapSchedule:
    """Remap several same-distribution arrays sharing one schedule.

    This is what REDISTRIBUTE does to every array aligned with a
    decomposition: the schedule is built once, applied per array.
    """
    first = _common_layout(arrays)
    sched = build_remap_schedule(first.machine, first.distribution, new_dist)
    for arr in arrays:
        sched.apply(arr)
    return sched
