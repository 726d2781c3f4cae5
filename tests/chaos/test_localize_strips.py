"""Strip invariance of the cold ``localize``.

``localize`` runs its translate / off-mask / dedup / rewrite / slot
state body once per processor strip (``repro.chaos.strips``), on the
strip pool, and merges the strips in processor order.  Whatever the
strip count and the thread count, every field of the
:class:`LocalizeResult` -- its slot state and the schedule's entries
included -- and every
charge (the recorded tape when cached, the counters and clocks always)
must be bit-identical to one strip over the whole stream, for every
table kind, one or two stacked members, with and without processors that
hold no references, and for every input form: a materialised stream, the
inspector's gathered one, and per-processor lists.  A bad reference
in any strip is refused with the ``IndexError`` of the first bad value
in stream order, and a malformed stream with ``ValueError``, before
anything is charged.  The slot state's owners and offsets are the
distribution's for its keys.
"""

import re
import sys
import threading

import numpy as np
import pytest

import repro.chaos.strips as strips
from repro.chaos.flatrefs import FlatRefs
from repro.chaos.localize import localize
from repro.chaos.transcache import TranslationCache
from repro.chaos.ttable import build_translation_table
from repro.distribution import BlockDistribution, IrregularDistribution
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.obs import Tracer
from tests.chaos.schedule_oracle import entries
from tests.chaos.test_stacked_group import tape_rows

N_PROCS = 8
SIZE = 97  # elements of the data array: 8 does not divide it
N_ITER = 90  # <= SIZE, so a direct member (the positions) is in range
EMPTY_PROCS = (2, 5)  # processors holding no iterations
#: a strip target no stream here reaches: one strip, the whole stream
ONE = 1 << 30
#: the smallest target: a strip per processor
MANY = 1
#: the runtime's own target (one strip for streams this small)
DEFAULT = strips.STRIP_ITERS
#: (strip target, pool on): the baseline first
RUNS = [
    (ONE, False), (DEFAULT, False), (MANY, False), (MANY, True), (DEFAULT, True), (ONE, True),
]


@pytest.fixture
def pool(monkeypatch):
    """``use(on)`` switches between a fresh two-worker pool and no pool
    (one usable CPU), whatever the host's CPUs."""

    def use(on: bool) -> None:
        if strips._StripPool._executor is not None:
            strips._StripPool._executor.shutdown(wait=True)
        strips._StripPool.forget()
        monkeypatch.setattr(strips, "_usable_cpus", lambda: 3 if on else 1)

    yield use
    use(False)
    strips._StripPool.forget()


def make_dist(variant: str, rng):
    if variant == "regular":
        return BlockDistribution(SIZE, N_PROCS)
    return IrregularDistribution(rng.integers(0, N_PROCS, size=SIZE), N_PROCS)


def make_stream(rng, members: int, gaps: bool = True):
    """An iteration partition (positions, bounds) and one index array per
    member; with two members the second is the direct one (``x(i)``: the
    positions themselves).  With ``gaps``, the ``EMPTY_PROCS`` hold no
    iterations."""
    home = rng.integers(0, N_PROCS, size=N_ITER)
    if gaps:
        home[np.isin(home, EMPTY_PROCS)] = 0
    positions = np.argsort(home, kind="stable").astype(np.int64)
    bounds = np.zeros(N_PROCS + 1, dtype=np.int64)
    np.cumsum(np.bincount(home, minlength=N_PROCS), out=bounds[1:])
    sources = [rng.integers(0, SIZE, size=N_ITER)] + [None] * (members - 1)
    return positions, bounds, sources


def materialise(positions, sources):
    return np.concatenate([positions if s is None else s[positions] for s in sources])


def refs_for(form, positions, bounds, sources):
    if form == "gathered":
        return FlatRefs.gathered(sources, positions, bounds)
    values = materialise(positions, sources)
    if form == "flat":
        return FlatRefs(values, bounds, len(sources))
    return [values[bounds[p] : bounds[p + 1]] for p in range(N_PROCS)]


def outcome(machine, res) -> dict:
    """Every field of a result, its slot state, its schedule's entries and
    the machine's charges, as comparable values."""
    arrays = [res.refs_flat, res.ref_bounds] + [
        getattr(res.slots, name) for name in ("slot_bounds", "keys", "owners", "lidx")
    ]
    got = {"arrays": [a.tobytes() for a in arrays], "dtypes": [a.dtype.str for a in arrays]}
    got["local_sizes"] = res.local_sizes
    got["ghost_sizes"] = res.schedule.ghost_sizes
    got["entries"] = [a.tolist() for a in entries(res.schedule)]
    got["tape"] = None if res.charges is None else tape_rows(res.charges.tape)
    got["counters"] = {f: getattr(machine.counters, f).tobytes() for f in COUNTER_FIELDS}
    got["clocks"] = [machine.clock(p) for p in range(N_PROCS)] + [machine.elapsed()]
    return got


def run(monkeypatch, pool, target, on, variant, dist, refs, cached):
    monkeypatch.setattr(strips, "STRIP_ITERS", target)
    pool(on)
    machine = Machine(N_PROCS)
    table = build_translation_table(machine, dist, variant=variant)
    kwargs = dict(cache=TranslationCache(), cache_key=(("s",), ("v",))) if cached else {}
    res = localize(machine, table, refs, **kwargs)
    keys = res.slots.keys
    np.testing.assert_array_equal(res.slots.owners, dist.owner(keys))
    np.testing.assert_array_equal(res.slots.lidx, dist.local_index(keys))
    return outcome(machine, res)


CASES = [
    (variant, members, gaps, form, cached)
    for variant in ("regular", "replicated", "distributed")
    for members in (1, 2)
    for gaps in (False, True)
    for form in ("flat", "gathered", "lists")
    for cached in (False, True)
    if not (form == "lists" and members > 1)
]


@pytest.mark.parametrize("variant, members, gaps, form, cached", CASES)
def test_every_strip_split_is_bit_identical_to_one_strip(
    pool, monkeypatch, variant, members, gaps, form, cached
):
    rng = np.random.default_rng([members, len(variant), len(form)])
    dist = make_dist(variant, rng)
    stream = make_stream(rng, members, gaps)
    results = [
        run(monkeypatch, pool, target, on, variant, dist,
            refs_for(form, *stream), cached)
        for target, on in RUNS
    ]
    assert results[0]["entries"][0], "the case must need ghosts"
    for got in results[1:]:
        assert got == results[0]


def test_many_strips_under_rapid_thread_switching(pool, monkeypatch):
    """Three workers plus the dispatcher, switching threads every
    microsecond: a strip run twice, skipped or writing another strip's
    localized references would change a bit of the result."""
    rng = np.random.default_rng(3)
    dist = make_dist("distributed", rng)
    stream = make_stream(rng, 2)
    want = run(monkeypatch, pool, ONE, False, "distributed", dist,
               refs_for("gathered", *stream), True)
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(True)
    monkeypatch.setattr(strips, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            machine = Machine(N_PROCS)
            table = build_translation_table(machine, dist, variant="distributed")
            res = localize(machine, table, refs_for("gathered", *stream),
                           cache=TranslationCache(), cache_key=(("s",), ("v",)))
            assert outcome(machine, res) == want
    finally:
        sys.setswitchinterval(interval)
    assert strips._StripPool._workers == strips.MAX_STRIP_WORKERS


@pytest.mark.parametrize("variant", ["regular", "distributed"])
def test_materialised_and_gathered_streams_give_one_result(pool, monkeypatch, variant):
    rng = np.random.default_rng(9)
    dist = make_dist(variant, rng)
    stream = make_stream(rng, 2)
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(True)
    flat, gathered = (
        outcome_of(variant, dist, refs_for(form, *stream)) for form in ("flat", "gathered")
    )
    assert flat == gathered


def outcome_of(variant, dist, refs):
    machine = Machine(N_PROCS)
    table = build_translation_table(machine, dist, variant=variant)
    return outcome(machine, localize(machine, table, refs))


def test_strips_leave_a_gathered_streams_sources_alone(pool, monkeypatch):
    rng = np.random.default_rng(2)
    positions, bounds, sources = make_stream(rng, 2)
    kept = [positions.copy(), sources[0].copy()]
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(True)
    outcome_of("distributed", make_dist("distributed", rng),
               FlatRefs.gathered(sources, positions, bounds))
    np.testing.assert_array_equal(positions, kept[0])
    np.testing.assert_array_equal(sources[0], kept[1])


# ----------------------------------------------------------------------
# refusals, before any charge
# ----------------------------------------------------------------------
def counters(machine) -> dict:
    return {f: getattr(machine.counters, f).tolist() for f in COUNTER_FIELDS}


#: (member, processor, value) of each planted bad reference, and the one
#: the error must name: the first in stream order (member-major)
BAD_CASES = [
    ([(0, 6, SIZE)], SIZE),
    ([(1, 0, -3), (0, 7, SIZE + 4)], SIZE + 4),  # member 0 first, though in a later strip
    ([(1, 1, SIZE + 1), (1, 6, -1)], SIZE + 1),
    ([(0, 3, -2), (0, 1, SIZE + 9), (1, 0, -7)], SIZE + 9),
]


@pytest.mark.parametrize("variant", ["regular", "replicated", "distributed"])
@pytest.mark.parametrize("form", ["flat", "gathered"])
@pytest.mark.parametrize("planted, named", BAD_CASES)
def test_out_of_range_reference_names_the_first_in_stream_order(
    pool, monkeypatch, variant, form, planted, named
):
    rng = np.random.default_rng(5)
    dist = make_dist(variant, rng)
    positions, bounds, _ = make_stream(rng, 2)
    sources = [rng.integers(0, SIZE, size=N_ITER) for _ in range(2)]
    for member, p, value in planted:
        # the processor's first reference in that member
        assert bounds[p + 1] > bounds[p]
        sources[member][positions[bounds[p]]] = value
    message = f"global index {named} out of range [0, {SIZE})"
    for target, on in RUNS:
        monkeypatch.setattr(strips, "STRIP_ITERS", target)
        pool(on)
        machine = Machine(N_PROCS)
        table = build_translation_table(machine, dist, variant=variant)
        before = counters(machine)
        refs = refs_for(form, positions, bounds, sources)
        with pytest.raises(IndexError, match=re.escape(message)):
            localize(machine, table, refs)
        assert counters(machine) == before


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda v, b: FlatRefs(v[:-1], b, 2), "for 2 member"),
        (lambda v, b: FlatRefs(v, b[::-1], 2), "never decrease"),
        (lambda v, b: FlatRefs.gathered([None, None], v, b[::-1]), "never decrease"),
        (lambda v, b: FlatRefs.gathered([None, None], v[: b[-1] - 1], b), "gather positions"),
        (lambda v, b: FlatRefs.gathered([v[:5], None], np.arange(b[-1]), b), "holds 5 values"),
    ],
)
def test_malformed_stream_is_refused_before_any_charge(pool, monkeypatch, make, message):
    rng = np.random.default_rng(6)
    dist = make_dist("distributed", rng)
    positions, bounds, sources = make_stream(rng, 2)
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(True)
    machine = Machine(N_PROCS)
    table = build_translation_table(machine, dist, variant="distributed")
    before = counters(machine)
    with pytest.raises(ValueError, match=message):
        localize(machine, table, make(materialise(positions, sources), bounds))
    assert counters(machine) == before


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_strip_spans_nest_under_the_strips_span(pool, monkeypatch):
    rng = np.random.default_rng(8)
    positions, bounds, sources = make_stream(rng, 2)
    monkeypatch.setattr(strips, "STRIP_ITERS", MANY)
    pool(True)
    machine = Machine(N_PROCS)
    machine.obs = Tracer()
    table = build_translation_table(machine, make_dist("distributed", rng), variant="distributed")
    localize(machine, table, FlatRefs.gathered(sources, positions, bounds))
    (outer,) = [s for s in machine.obs.spans if s.name == "localize.strips"]
    spans = sorted(
        (s for s in machine.obs.spans if s.name == "localize.strip"),
        key=lambda s: s.attrs["first_proc"],
    )
    # a strip per processor holding references (an empty one joins the next)
    assert len(spans) == outer.attrs["n_strips"] == N_PROCS - len(EMPTY_PROCS)
    assert {s.parent for s in spans} == {outer.id}
    cuts = [s.attrs["first_proc"] for s in spans] + [N_PROCS]
    assert [s.attrs["n_procs"] for s in spans] == np.diff(cuts).tolist()
    assert [s.attrs["n_refs"] for s in spans] == (2 * np.diff(bounds[cuts])).tolist()
    assert outer.attrs["n_refs"] == 2 * N_ITER


def test_one_strip_starts_no_thread():
    strips._StripPool.forget()
    threads = threading.active_count()
    rng = np.random.default_rng(1)
    outcome_of("distributed", make_dist("distributed", rng),
               refs_for("gathered", *make_stream(rng, 2)))
    assert strips._StripPool._executor is None
    assert threading.active_count() == threads
