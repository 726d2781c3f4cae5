"""Stacked-group differential: ``localize`` over a member-major stream.

A coalesced pattern group reaches ``localize`` as one ``FlatRefs`` whose
members (one reference list per pattern, all laid out by one ``bounds``)
are stacked back to back; a plain per-processor list is the one-member
case of the same body.  Everything the product holds -- ghost lists,
schedule entries, every member's localized references, the recorded
charge tape, the machine counters -- is checked here against a
dict-and-loop reference that never sees a stream: it walks
``members[k][p]`` Python lists and charges a second machine call by
call, the way ``tests/chaos/pairs.py`` spells out a schedule.

The second half pins what ``run_inspector`` builds on top: the numbers a
coalesced three-pattern group charged under the parent commit's
interleaved (processor-major, member-minor) stream, and the sharing
structure of the member arrays.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chaos.costs import DEFAULT_COSTS
from repro.chaos.flatrefs import FlatRefs
from repro.chaos.localize import localize
from repro.chaos.transcache import ChargeLog, TranslationCache
from repro.chaos.ttable import build_translation_table
from repro.core import ArrayRef, ForallLoop, Reduce, run_executor, run_inspector
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.distribution.irregular import ExplicitDistribution
from repro.machine import Machine
from repro.machine.machine import ComputeCharge, ExchangeCharge
from repro.machine.stats import COUNTER_FIELDS
from tests.chaos.pairs import segment
from tests.chaos.schedule_oracle import entries as schedule_entries
from tests.core.test_miss_path_kernels import COMPUTE_VECTORS, EXCHANGE_VECTORS, digest

N_PROCS = 8  # the default hypercube wants a power of two
SIZE = 31  # elements of the data array: 8 does not divide it
EMPTY_PROCS = (1, 4)  # processors holding zero iterations


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_dist(kind: str, rng):
    if kind == "block":
        return BlockDistribution(SIZE, N_PROCS)
    # processor 3 owns nothing: an empty local segment in the middle
    owners = rng.choice([0, 1, 2, 4, 5, 6, 7], size=SIZE)
    if kind == "irregular":
        return IrregularDistribution(owners, N_PROCS)
    local = np.empty(SIZE, dtype=np.int64)
    for p in range(N_PROCS):
        mine = np.flatnonzero(owners == p)
        local[mine] = rng.permutation(mine.size)
    return ExplicitDistribution(owners, local, N_PROCS)


def make_members(dist, k: int, shape: str, rng) -> list[list[list[int]]]:
    """``members[j][p]``: the globals processor ``p`` references through
    the group's ``j``-th pattern.  Every member has the same length on a
    given processor (all are gathers over one iteration partition)."""
    owner = np.asarray(dist.owner(np.arange(SIZE)))
    pools = []
    for p in range(N_PROCS):
        if shape == "all_local":
            pools.append(np.flatnonzero(owner == p))
        elif shape == "all_off":
            pools.append(np.flatnonzero(owner != p))
        else:
            pools.append(np.arange(SIZE))
    sizes = [
        0 if p in EMPTY_PROCS or not pools[p].size else int(rng.integers(1, 9))
        for p in range(N_PROCS)
    ]
    members = [
        [rng.choice(pools[p], size=sizes[p]).tolist() if sizes[p] else [] for p in range(N_PROCS)]
        for _ in range(k)
    ]
    if shape == "twin" and k > 1:
        members[-1] = [list(refs) for refs in members[0]]  # the same indirection twice
    return members


def stack(members) -> FlatRefs:
    sizes = [len(refs) for refs in members[0]]
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    values = np.array(
        [g for member in members for refs in member for g in refs], dtype=np.int64
    )
    return FlatRefs(values, bounds, len(members))


# ----------------------------------------------------------------------
# the dict-and-loop reference
# ----------------------------------------------------------------------
def ints(seq) -> np.ndarray:
    return np.array(list(seq), dtype=np.int64)


def naive_localize(sink, variant, dist, members, costs=DEFAULT_COSTS):
    """Localize ``members`` with Python containers only, charging ``sink``
    one call per phase; returns ``(ghosts, entries, localized)``."""
    n = dist.n_procs
    everything = np.arange(dist.size)
    owner = [int(o) for o in dist.owner(everything)]
    lidx = [int(i) for i in dist.local_index(everything)]
    local_size = [int(s) for s in dist.local_sizes()]
    n_refs = [sum(len(m[p]) for m in members) for p in range(n)]

    # 1. the translation table's dereference
    if variant == "distributed":
        chunk = -(-dist.size // n)  # pages are block-distributed
        asked: dict[tuple[int, int], int] = {}
        for member in members:
            for p in range(n):
                for g in member[p]:
                    asked[(p, g // chunk)] = asked.get((p, g // chunk), 0) + 1
        cross = sorted(pq for pq in asked if pq[0] != pq[1])
        counts = [asked[pq] for pq in cross]
        sink.exchange(
            src=ints(p for p, _ in cross),
            dst=ints(q for _, q in cross),
            nbytes=ints(c * costs.index_bytes for c in counts),
        )
        probes = [sum(asked.get((p, q), 0) for p in range(n)) for q in range(n)]
        sink.charge_compute_all(
            iops=np.array([costs.translate_remote * float(c) for c in probes])
        )
        sink.exchange(
            src=ints(q for _, q in cross),
            dst=ints(p for p, _ in cross),
            nbytes=ints(c * 2 * costs.index_bytes for c in counts),
        )
        sink.barrier()
    else:
        per_ref = getattr(costs, f"translate_{variant}")
        sink.charge_compute_all(iops=np.array([per_ref * float(c) for c in n_refs]))

    # 2. per processor: dedup the off-processor globals, sorted = slot order
    ghosts = [
        sorted({g for m in members for g in m[p] if owner[g] != p}) for p in range(n)
    ]
    slot = [{g: s for s, g in enumerate(gl)} for gl in ghosts]
    n_off = [sum(owner[g] != p for m in members for g in m[p]) for p in range(n)]
    sink.charge_compute_all(
        iops=np.array(
            [
                costs.hash_lookup * float(n_refs[p])
                + costs.hash_insert * float(len(ghosts[p]))
                + costs.schedule_build * float(len(ghosts[p]))
                + costs.buffer_assign * float(len(ghosts[p]))
                + costs.hash_lookup * float(n_off[p])
                for p in range(n)
            ]
        )
    )

    # 3. request exchange, requester-major / owner-minor; owners record
    wanted: dict[tuple[int, int], list[int]] = {}
    for p in range(n):
        for g in ghosts[p]:
            wanted.setdefault((p, owner[g]), []).append(g)
    pairs = sorted(wanted)
    sink.exchange(
        src=ints(p for p, _ in pairs),
        dst=ints(q for _, q in pairs),
        nbytes=ints(len(wanted[pq]) * costs.index_bytes for pq in pairs),
    )
    record = [0.0] * n
    for p, q in pairs:
        record[q] += len(wanted[(p, q)])
    sink.charge_compute_all(iops=np.array([costs.schedule_build * r for r in record]))
    sink.barrier()

    entries = [
        (q, p, lidx[g], slot[p][g]) for p, q in pairs for g in wanted[(p, q)]
    ]
    localized = [
        [
            [lidx[g] if owner[g] == p else local_size[p] + slot[p][g] for g in m[p]]
            for p in range(n)
        ]
        for m in members
    ]
    return ghosts, entries, localized


def tape_rows(tape):
    """A charge tape as comparable rows: method name + every planned vector."""
    rows = []
    for method, args in tape:
        row = [method]
        for arg in args:
            if isinstance(arg, ExchangeCharge):
                row += [np.asarray(getattr(arg, f)).tolist() for f in EXCHANGE_VECTORS]
            elif isinstance(arg, ComputeCharge):
                row += [np.asarray(getattr(arg, f)).tolist() for f in COMPUTE_VECTORS]
            else:
                row.append(arg)
        rows.append(row)
    return rows


def counters(machine) -> dict:
    return {f: getattr(machine.counters, f).tolist() for f in COUNTER_FIELDS}


# ----------------------------------------------------------------------
# localize: stacked stream == reference
# ----------------------------------------------------------------------
VARIANTS = {
    "block": ("regular", "replicated", "distributed"),
    "irregular": ("replicated", "distributed"),
    "explicit": ("replicated", "distributed"),
}
CASES = [
    (kind, variant, k, shape)
    for kind, variants in VARIANTS.items()
    for variant in variants
    for k in (1, 2, 3)
    for shape in ("random", "twin", "all_local", "all_off")
    if not (shape == "twin" and k == 1)
]


@pytest.mark.parametrize("kind, variant, k, shape", CASES)
def test_stacked_localize_matches_the_dict_and_loop_reference(kind, variant, k, shape):
    rng = np.random.default_rng([len(kind), len(variant), k, len(shape)])
    dist = make_dist(kind, rng)
    members = make_members(dist, k, shape, rng)
    assert any(members[0]), "the case must reference something"

    ref_machine = Machine(N_PROCS)
    build_translation_table(ref_machine, dist, variant=variant)
    ref_sink = ChargeLog(ref_machine)
    ghosts, entries, localized = naive_localize(ref_sink, variant, dist, members)

    machine = Machine(N_PROCS)
    table = build_translation_table(machine, dist, variant=variant)
    res = localize(
        machine,
        table,
        stack(members),
        cache=TranslationCache(),
        cache_key=(("slot",), ("version",)),
    )

    # ghost lists and their CSR bounds
    assert res.slots.slot_bounds.tolist() == np.cumsum([0] + [len(g) for g in ghosts]).tolist()
    assert res.slots.keys.tolist() == [g for gl in ghosts for g in gl]
    assert res.schedule.ghost_sizes == [len(g) for g in ghosts]
    assert res.local_sizes == dist.local_sizes().tolist()
    # who sends which local offset to whose ghost slot, in wire order
    assert list(zip(*(a.tolist() for a in schedule_entries(res.schedule)))) == entries
    # every member's localized references: against the reference, and
    # decoded back through [local segment | ghost buffer] to the globals
    n_refs = int(res.ref_bounds[-1])
    assert res.refs_flat.size == k * n_refs
    for j, member in enumerate(members):
        view = res.refs_flat[j * n_refs : (j + 1) * n_refs]
        for p in range(N_PROCS):
            got = segment(view, res.ref_bounds, p).tolist()
            assert got == localized[j][p]
            combined = dist.local_indices(p).tolist() + ghosts[p]
            assert [combined[v] for v in got] == member[p]
    # the charge tape, call by call and vector by vector, and the counters
    assert tape_rows(res.charges.tape) == tape_rows(ref_sink.tape)
    assert counters(machine) == counters(ref_machine)

    # uncached, the same; one member may come as lists
    bare = Machine(N_PROCS)
    again = localize(
        bare,
        build_translation_table(bare, dist, variant=variant),
        stack(members) if k > 1 else [np.array(r) for r in members[0]],
    )
    assert again.refs_flat.tolist() == res.refs_flat.tolist()
    assert again.slots.keys.tolist() == res.slots.keys.tolist()
    assert counters(bare) == counters(machine)


@pytest.mark.parametrize("variant", ["replicated", "distributed"])
@pytest.mark.parametrize(
    "values, bounds, members, message",
    [
        (range(4), [0, 1, 2, 3, 4, 4, 4, 5, 6], 1, "4 reference values for 1 member"),
        (range(7), [0, 1, 2, 3, 4, 4, 4, 5, 6], 2, "7 reference values for 2 member"),
        (range(6), [0, 4, 2, 3, 5, 5, 5, 5, 6], 1, "never decrease"),
        (range(6), [1, 1, 2, 3, 5, 5, 5, 5, 6], 1, "start at 0"),
        (range(0), [], 1, "start at 0"),
    ],
)
def test_malformed_stream_is_refused_before_any_charge(
    variant, values, bounds, members, message
):
    rng = np.random.default_rng(0)
    machine = Machine(N_PROCS)
    table = build_translation_table(machine, make_dist("irregular", rng), variant=variant)
    before = counters(machine)
    refs = FlatRefs(np.array(values), np.array(bounds), members)
    with pytest.raises(ValueError, match=message):
        localize(machine, table, refs)
    assert counters(machine) == before


# ----------------------------------------------------------------------
# run_inspector on top: parent-pinned numbers and the sharing structure
# ----------------------------------------------------------------------
N_ITER = 23  # 8 does not divide it either

#: what the parent commit (interleaved group stream) charged for
#: ``three_pattern_case`` -- inspector + one sweep, ``coalesce_patterns``
#: on -- recorded there with ``test_miss_path_kernels.digest``
PARENT = {
    "elapsed": "0.01643613809523809",
    "counters": "26ce6f1244c0ca3d",
    "y": "770f1c007dd1f399",
}


def three_pattern_case(machine, n_iter=N_ITER):
    rng = np.random.default_rng(7)
    dist = make_dist("irregular", rng)
    idist = BlockDistribution(n_iter, N_PROCS)
    arrays = {
        "x": DistArray.from_global(machine, dist, rng.normal(size=SIZE), name="x"),
        "y": DistArray.from_global(machine, dist, np.zeros(SIZE), name="y"),
    }
    for name in ("ia", "ib", "ic"):
        arrays[name] = DistArray.from_global(
            machine, idist, rng.integers(0, SIZE, n_iter), name=name
        )
    reads = tuple(ArrayRef("x", ix) for ix in ("ia", "ib", "ic"))
    loop = ForallLoop(
        "three",
        n_iter,
        [
            Reduce("add", ArrayRef("y", ix), lambda a, b, c: a * b - c, reads, flops=2)
            for ix in ("ia", "ib", "ic")
        ],
    )
    return loop, arrays


def test_three_pattern_group_charges_what_the_interleaved_stream_charged():
    machine = Machine(N_PROCS)
    loop, arrays = three_pattern_case(machine)
    product = run_inspector(machine, loop, arrays, coalesce_patterns=True)
    run_executor(machine, product, arrays)
    got = {
        "elapsed": repr(machine.elapsed()),
        "counters": digest(getattr(machine.counters, f) for f in COUNTER_FIELDS),
        "y": digest([arrays["y"].to_global()]),
    }
    assert got == PARENT


def test_group_members_are_views_of_one_array_and_siblings_share_holders():
    n_iter = 40_003  # big enough that a reference list dwarfs the Python objects
    machine = Machine(N_PROCS)
    loop, arrays = three_pattern_case(machine, n_iter)
    cache = TranslationCache()
    product = run_inspector(machine, loop, arrays, cache=cache)
    indexes = ("ia", "ib", "ic")
    refs = [product.pattern("x", ix).localized.refs_flat for ix in indexes]
    base = refs[0].base
    assert base is not None and base.size == 3 * n_iter and not base.flags.writeable
    for j, member in enumerate(refs):
        assert member.base is base and not member.flags.writeable
        assert np.shares_memory(member, base[j * n_iter : (j + 1) * n_iter])
        assert member.size == n_iter
        for other in refs[j + 1 :]:
            assert not np.shares_memory(member, other)
    # x(ia(i)) and y(ia(i)) are one cache entry: one holder, one array,
    # one schedule, and still two groups
    for ix in indexes:
        px, py = product.pattern("x", ix), product.pattern("y", ix)
        assert px.derived is py.derived
        assert px.localized.refs_flat is py.localized.refs_flat
        assert px.localized.schedule is py.localized.schedule
    assert product.groups == (("x", indexes), ("y", indexes))

    # a warm re-inspection serves the same views and allocates nothing
    # the size of a reference list (it never builds the stream)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        warm = run_inspector(machine, loop, arrays, cache=cache)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    for ix in indexes:
        assert warm.pattern("x", ix).localized.refs_flat is product.pattern(
            "x", ix
        ).localized.refs_flat
    assert cache.stats()["by_kind"]["localize"]["misses"] == 1
    assert peak < n_iter * 8  # one member's worth of int64
