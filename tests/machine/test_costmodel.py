"""Tests for the alpha-beta cost model."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.costmodel import CostModel, IPSC860


class TestMessageTime:
    def test_zero_bytes_costs_alpha(self):
        m = CostModel(alpha=1e-4, beta=1e-6, hop_cost=0.0)
        assert m.message_time(0) == pytest.approx(1e-4)

    def test_linear_in_bytes(self):
        m = CostModel(alpha=0.0, beta=2e-6, hop_cost=0.0)
        assert m.message_time(1000) == pytest.approx(2e-3)

    def test_hop_surcharge(self):
        m = CostModel(alpha=1e-4, beta=0.0, hop_cost=1e-5)
        one = m.message_time(0, hops=1)
        four = m.message_time(0, hops=4)
        assert four - one == pytest.approx(3e-5)

    def test_zero_hops_same_as_one(self):
        m = IPSC860
        assert m.message_time(64, hops=0) == m.message_time(64, hops=1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="negative message size"):
            IPSC860.message_time(-1)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError, match="negative hop count"):
            IPSC860.message_time(8, hops=-2)


class TestComputeTime:
    def test_flops(self):
        m = CostModel(flop_time=1e-6)
        assert m.compute_time(flops=1000) == pytest.approx(1e-3)

    def test_mixed(self):
        m = CostModel(flop_time=1e-6, iop_time=1e-7, mem_time=1e-8)
        t = m.compute_time(flops=10, iops=10, mem=10)
        assert t == pytest.approx(10e-6 + 10e-7 + 10e-8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IPSC860.compute_time(flops=-1)


class TestPresets:
    def test_ipsc860_calibration(self):
        # ~100us startup, ~2.8 MB/s bandwidth: an 8KB message ~ 3ms
        t = IPSC860.message_time(8192)
        assert 2e-3 < t < 4e-3

    def test_invalid_field_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostModel(alpha=-1.0)


class TestScaled:
    def test_scaling_one_field(self):
        m = IPSC860.scaled(alpha=10.0)
        assert m.alpha == pytest.approx(IPSC860.alpha * 10)
        assert m.beta == IPSC860.beta

    def test_name_not_scalable(self):
        with pytest.raises(ValueError, match="name"):
            IPSC860.scaled(name=2.0)

    def test_scaled_is_new_object(self):
        m = IPSC860.scaled(beta=0.5)
        assert m is not IPSC860
        assert IPSC860.beta == CostModel().beta  # original untouched


@given(
    nbytes=st.integers(min_value=0, max_value=10**9),
    hops=st.integers(min_value=0, max_value=10),
)
def test_message_time_monotone(nbytes, hops):
    m = IPSC860
    assert m.message_time(nbytes, hops) <= m.message_time(nbytes + 1, hops)
    assert m.message_time(nbytes, hops) <= m.message_time(nbytes, hops + 1)
    assert m.message_time(nbytes, hops) >= m.alpha
