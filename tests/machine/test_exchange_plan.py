"""The plan / charge seam of ``Machine.exchange``.

``exchange`` is ``charge_exchange(plan_exchange(...))``; whoever charges
the same traffic repeatedly (charge tapes, schedules) keeps the plan.
These tests pin the seam differentially, on hypothesis-generated traffic
with empty lists, zero-byte entries, self messages and repeated pairs:

* one-shot ``exchange`` == plan-then-charge == a scalar ``Machine.send``
  loop, compared **bitwise** on every counter array;
* one plan applied k times == k ``exchange`` calls;
* every validation error is raised at plan time, before a counter moves;
* a charge is refused by any machine it was not planned against, and its
  vectors cannot be written through.

Bitwise agreement with the ``send`` loop needs a cost model whose times
are dyadic rationals: ``exchange`` folds each processor's sends and
receives separately while a send loop interleaves them, and only exact
float sums are association-free.  Under the iPSC/860 calibration the
send loop is held to bitwise integer counters and 1e-12 on the float
ones; ``exchange`` vs plan-then-charge is bitwise under both models.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import Machine
from repro.machine.costmodel import CostModel, IPSC860
from repro.machine.machine import ExchangeCharge
from repro.machine.stats import COUNTER_FIELDS, INT_COUNTER_FIELDS

#: every term a negative power of two: sums of message/copy times over
#: the generated traffic are exact in float64
DYADIC = CostModel(
    alpha=2.0**-10,
    beta=2.0**-20,
    hop_cost=2.0**-12,
    flop_time=2.0**-14,
    iop_time=2.0**-15,
    mem_time=2.0**-16,
    name="dyadic",
)


@st.composite
def traffic(draw):
    """``(n_procs, src, dst, nbytes)`` with the awkward cases made likely."""
    n = draw(st.sampled_from([1, 2, 8, 64]))
    proc = st.integers(0, n - 1)
    size = st.one_of(st.just(0), st.integers(1, 4096))  # zero-byte entries
    msgs = draw(
        st.lists(
            st.one_of(
                st.tuples(proc, proc, size),
                proc.flatmap(lambda p: st.tuples(st.just(p), st.just(p), size)),  # self
            ),
            max_size=40,
        )
    )
    if msgs and draw(st.booleans()):
        msgs += msgs[: draw(st.integers(1, len(msgs)))]  # repeated pairs
    cols = list(zip(*msgs)) if msgs else ([], [], [])
    return n, *(np.array(c, dtype=np.int64) for c in cols)


def counters(m: Machine) -> dict[str, np.ndarray]:
    return {f: getattr(m.counters, f).copy() for f in COUNTER_FIELDS}


def assert_bitwise(a: Machine, b: Machine) -> None:
    for f in COUNTER_FIELDS:
        x, y = getattr(a.counters, f), getattr(b.counters, f)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f


def send_loop(m: Machine, src, dst, nbytes) -> None:
    for s, d, nb in zip(src.tolist(), dst.tolist(), nbytes.tolist()):
        if nb:  # exchange posts no empty messages
            m.send(s, d, nb)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(traffic(), st.sampled_from([IPSC860, DYADIC]))
    def test_exchange_equals_plan_then_charge_equals_send_loop(self, t, cost):
        n, src, dst, nbytes = t
        a, b, c = (Machine(n, cost_model=cost) for _ in range(3))
        a.exchange(src=src, dst=dst, nbytes=nbytes)
        charge = b.plan_exchange(src=src, dst=dst, nbytes=nbytes)
        assert not any(v.any() for v in counters(b).values())  # planning is free
        b.charge_exchange(charge)
        send_loop(c, src, dst, nbytes)
        assert_bitwise(a, b)
        if cost is DYADIC:
            assert_bitwise(a, c)
        else:
            for f in COUNTER_FIELDS:
                x, y = getattr(a.counters, f), getattr(c.counters, f)
                if f in INT_COUNTER_FIELDS:
                    assert np.array_equal(x, y), f
                else:
                    np.testing.assert_allclose(x, y, rtol=1e-12, atol=0, err_msg=f)

    @settings(max_examples=60, deadline=None)
    @given(traffic(), st.integers(1, 4))
    def test_one_plan_applied_k_times_equals_k_exchanges(self, t, k):
        n, src, dst, nbytes = t
        a, b = Machine(n), Machine(n)
        # non-zero, processor-dependent starting counters
        for m in (a, b):
            m.charge_compute_all(flops=np.arange(n) * 3.0, mem=1.0)
        charge = b.plan_exchange(src=src, dst=dst, nbytes=nbytes)
        for _ in range(k):
            a.exchange(src=src, dst=dst, nbytes=nbytes)
            b.charge_exchange(charge)
        assert_bitwise(a, b)

    @settings(max_examples=60, deadline=None)
    @given(traffic())
    def test_charge_keeps_the_filtered_traffic(self, t):
        n, src, dst, nbytes = t
        charge = Machine(n).plan_exchange(src=src, dst=dst, nbytes=nbytes)
        live = nbytes != 0
        assert np.array_equal(charge.src, src[live])
        assert np.array_equal(charge.dst, dst[live])
        assert np.array_equal(charge.nbytes, nbytes[live])
        cross = live & (src != dst)
        assert charge.n_messages == int(cross.sum())
        assert charge.n_bytes == int(nbytes[cross].sum())
        assert int(charge.messages_sent.sum()) == charge.n_messages
        assert int(charge.bytes_received.sum()) == charge.n_bytes


class TestPlanTimeValidation:
    """Same checks, same messages as ``exchange`` -- raised by the plan."""

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(src=[0, 4], dst=[1, 1], nbytes=[8, 8]), r"processor id 4 out of range \[0, 4\)"),
            (dict(src=[0, 1], dst=[1, -1], nbytes=[8, 8]), r"processor id -1 out of range \[0, 4\)"),
            (dict(src=[0, 1], dst=[1, 2], nbytes=[8, -3]), "negative message size -3"),
            (dict(src=[0, 1], dst=[1], nbytes=[8, 8]), "must have matching shapes"),
            (dict(src=[0], dst=[1], nbytes=[8, 8]), "must have matching shapes"),
        ],
    )
    def test_errors_raised_before_any_counter_moves(self, kw, match):
        for call in ("plan_exchange", "exchange"):
            m = Machine(4)
            with pytest.raises(ValueError, match=match):
                getattr(m, call)(**kw)
            assert not any(v.any() for v in counters(m).values())

    def test_empty_and_all_zero_traffic_touch_nothing(self):
        m = Machine(4)
        m.charge_compute_all(flops=5.0)
        before = counters(m)
        empty = np.empty(0, dtype=np.int64)
        m.charge_exchange(m.plan_exchange(src=empty, dst=empty, nbytes=empty))
        m.charge_exchange(m.plan_exchange(src=[0, 1], dst=[1, 2], nbytes=[0, 0]))
        for f, v in before.items():
            assert v.tobytes() == getattr(m.counters, f).tobytes(), f


class TestChargeIsBoundAndFrozen:
    def plan(self, m: Machine) -> ExchangeCharge:
        return m.plan_exchange(src=[0, 1, 2], dst=[1, 0, 2], nbytes=[64, 8, 16])

    @pytest.mark.parametrize(
        "other",
        [
            lambda: Machine(8),
            lambda: Machine(4, topology="full"),
            lambda: Machine(4, cost_model=DYADIC),
            lambda: Machine(4),  # same shape, still another machine's topology
        ],
        ids=["n_procs", "topology", "cost", "twin-machine"],
    )
    def test_wrong_machine_is_a_typed_failure(self, other):
        charge = self.plan(Machine(4))
        m = other()
        with pytest.raises(ValueError, match="does not belong to this machine"):
            m.charge_exchange(charge)
        assert not any(v.any() for v in counters(m).values())

    def test_wrong_machine_compute_charge_refused(self):
        charge = Machine(4).plan_compute_all(iops=3.0)
        for m in (Machine(8), Machine(4, cost_model=DYADIC)):
            with pytest.raises(ValueError, match="compute charge planned for"):
                m.charge_planned_compute(charge)
            assert not m.counters.iops.any()

    def test_vectors_are_read_only(self):
        charge = self.plan(Machine(4))
        for name in (
            "clock_add",
            "mem_add",
            "messages_sent",
            "bytes_sent",
            "messages_received",
            "bytes_received",
            "msg_time",
        ):
            vec = getattr(charge, name)
            assert not vec.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1
        with pytest.raises(AttributeError):
            charge.msg_time = np.zeros(4)
        dt = Machine(4).plan_compute_all(flops=[1.0, 2.0, 3.0, 4.0]).dt
        with pytest.raises(ValueError, match="read-only"):
            dt[0] = 1.0

    def test_planning_leaves_the_callers_arrays_writeable(self):
        src, dst, nb = (np.array(a, dtype=np.int64) for a in ([0, 1], [1, 0], [8, 8]))
        charge = Machine(2).plan_exchange(src=src, dst=dst, nbytes=nb)
        assert charge.src is src  # held by reference, not copied ...
        src[0] = 1  # ... and not frozen under the caller


class TestOneImplementation:
    def test_exchange_goes_through_the_choke_point(self):
        # a hook on charge_exchange sees one-shot exchanges too
        m = Machine(4)
        seen = []
        orig = m.charge_exchange
        m.charge_exchange = lambda charge, **kw: (seen.append((charge, kw)), orig(charge, **kw))
        m.exchange(src=[0], dst=[1], nbytes=[8])
        assert len(seen) == 1 and seen[0][1] == {"planned": False}
        assert m.counters.messages_sent[0] == 1
