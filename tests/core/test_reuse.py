"""Tests for the conservative schedule-reuse check (Section 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ArrayRef,
    Assign,
    DAD,
    ForallLoop,
    InspectorRecord,
    ModificationRegistry,
    Reduce,
    can_reuse,
)
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.machine import Machine


def make_record(arrays, registry, data=("x", "y"), ind=("ia",)):
    return InspectorRecord(
        loop_name="L",
        data_dads={a: DAD.of(arrays[a]) for a in data},
        ind_dads={a: DAD.of(arrays[a]) for a in ind},
        ind_last_mod={a: registry.last_mod(DAD.of(arrays[a])) for a in ind},
        product=object(),
    )


@pytest.fixture
def setup():
    m = Machine(4)
    arrays = {
        "x": DistArray(m, BlockDistribution(16, 4), name="x"),
        "y": DistArray(m, BlockDistribution(16, 4), name="y"),
        "ia": DistArray(m, BlockDistribution(24, 4), dtype=np.int64, name="ia"),
    }
    return m, arrays, ModificationRegistry()


class TestConditions:
    def test_reusable_when_nothing_changed(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        decision = can_reuse(rec, arrays, reg)
        assert decision.reusable

    def test_condition1_data_array_redistributed(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        new = IrregularDistribution(np.arange(16) % 4, 4)
        arrays["x"].rebind_flat(new, np.zeros(new.size))
        decision = can_reuse(rec, arrays, reg)
        assert not decision.reusable
        assert "condition 1" in decision.reason and "'x'" in decision.reason

    def test_condition2_indirection_array_redistributed(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        new = IrregularDistribution(np.arange(24) % 4, 4)
        arrays["ia"].rebind_flat(new, np.zeros(new.size, dtype=np.int64))
        decision = can_reuse(rec, arrays, reg)
        assert not decision.reusable
        assert "condition 2" in decision.reason

    def test_condition3_indirection_array_written(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        reg.record_block_write([DAD.of(arrays["ia"])])
        decision = can_reuse(rec, arrays, reg)
        assert not decision.reusable
        assert "condition 3" in decision.reason

    def test_data_array_write_does_not_invalidate(self, setup):
        """Writing a *data* array (y updated every sweep) must NOT force
        re-inspection -- only indirection arrays matter for condition 3."""
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        for _ in range(100):
            reg.record_block_write([DAD.of(arrays["y"])])
        assert can_reuse(rec, arrays, reg).reusable

    def test_conservative_same_dad_write_invalidates(self, setup):
        """Writing any array sharing the indirection array's DAD
        invalidates -- the documented conservatism."""
        m, arrays, reg = setup
        other = DistArray(m, BlockDistribution(24, 4), dtype=np.int64, name="other")
        rec = make_record(arrays, reg)
        reg.record_block_write([DAD.of(other)])  # same (block, 24, 4) DAD
        assert not can_reuse(rec, arrays, reg).reusable

    def test_unbound_array_raises(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        del arrays["ia"]
        with pytest.raises(KeyError, match="ia"):
            can_reuse(rec, arrays, reg)

    def test_write_then_matching_record_is_reusable(self, setup):
        """A record taken *after* writes sees the current stamps."""
        m, arrays, reg = setup
        reg.record_block_write([DAD.of(arrays["ia"])])
        rec = make_record(arrays, reg)  # records last_mod == 1
        assert can_reuse(rec, arrays, reg).reusable
        reg.record_block_write([DAD.of(arrays["ia"])])
        assert not can_reuse(rec, arrays, reg).reusable


class TestDecisionFields:
    """Every ReuseDecision branch carries structured condition/array
    fields (the incremental inspector routes on them)."""

    def test_success_branch(self, setup):
        m, arrays, reg = setup
        decision = can_reuse(make_record(arrays, reg), arrays, reg)
        assert decision.reusable
        assert decision.reason == "all conditions hold"
        assert decision.condition is None and decision.array is None

    def test_condition1_fields(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        new = IrregularDistribution(np.arange(16) % 4, 4)
        arrays["x"].rebind_flat(new, np.zeros(new.size))
        decision = can_reuse(rec, arrays, reg)
        assert (decision.condition, decision.array) == (1, "x")
        assert "condition 1" in decision.reason

    def test_condition2_fields(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        new = IrregularDistribution(np.arange(24) % 4, 4)
        arrays["ia"].rebind_flat(new, np.zeros(new.size, dtype=np.int64))
        decision = can_reuse(rec, arrays, reg)
        assert (decision.condition, decision.array) == (2, "ia")
        assert "condition 2" in decision.reason

    def test_condition3_fields(self, setup):
        m, arrays, reg = setup
        rec = make_record(arrays, reg)
        reg.record_block_write([DAD.of(arrays["ia"])])
        decision = can_reuse(rec, arrays, reg)
        assert (decision.condition, decision.array) == (3, "ia")
        assert "condition 3" in decision.reason
        assert not bool(decision)

    def test_condition3_names_first_failing_indirection(self, setup):
        """With several indirections, the first failing one (record
        insertion order) is reported."""
        m, arrays, reg = setup
        arrays["ib"] = DistArray(
            m, BlockDistribution(32, 4), dtype=np.int64, name="ib"
        )
        rec = make_record(arrays, reg, ind=("ia", "ib"))
        reg.record_block_write([DAD.of(arrays["ib"])])
        decision = can_reuse(rec, arrays, reg)
        assert (decision.condition, decision.array) == (3, "ib")


@given(trace=st.lists(st.sampled_from(["write_ia", "write_y", "remap_x", "remap_ia"]), max_size=8))
@settings(max_examples=80, deadline=None)
def test_reuse_is_conservative_on_random_traces(trace):
    """Safety property: after ANY event trace, reuse is permitted only if
    no indirection array was possibly modified or redistributed and no
    data array was redistributed.  (The check may be stricter than this
    -- conservative -- but never looser.)"""
    m = Machine(2)
    arrays = {
        "x": DistArray(m, BlockDistribution(10, 2), name="x"),
        "y": DistArray(m, BlockDistribution(10, 2), name="y"),
        "ia": DistArray(m, BlockDistribution(12, 2), dtype=np.int64, name="ia"),
    }
    reg = ModificationRegistry()
    rec = make_record(arrays, reg)

    unsafe = False
    for ev in trace:
        if ev == "write_ia":
            reg.record_block_write([DAD.of(arrays["ia"])])
            unsafe = True
        elif ev == "write_y":
            reg.record_block_write([DAD.of(arrays["y"])])
        elif ev == "remap_x":
            new = IrregularDistribution(np.arange(10) % 2, 2)
            arrays["x"].rebind_flat(new, np.zeros(new.size))
            reg.record_remap(DAD.of(arrays["x"]))
            unsafe = True
        elif ev == "remap_ia":
            new = IrregularDistribution((np.arange(12) + 1) % 2, 2)
            arrays["ia"].rebind_flat(new, np.zeros(new.size, dtype=np.int64))
            reg.record_remap(DAD.of(arrays["ia"]))
            unsafe = True

    decision = can_reuse(rec, arrays, reg)
    if unsafe:
        assert not decision.reusable, f"unsafely reused after {trace}"
