"""Tests for interconnect topologies."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.machine.topology import (
    FullyConnectedTopology,
    HypercubeTopology,
    make_topology,
)


class TestHypercube:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            HypercubeTopology(6)

    def test_dim(self):
        # a d-cube's diameter is d hops, reached from 0 only at the
        # opposite corner
        for n_procs, dim in ((1, 0), (2, 1), (32, 5)):
            t = HypercubeTopology(n_procs)
            hops = [t.hops(0, q) for q in range(n_procs)]
            assert max(hops) == dim
            assert hops.index(dim) == n_procs - 1

    def test_hops_is_hamming_distance(self):
        t = HypercubeTopology(16)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 1) == 1
        assert t.hops(0, 15) == 4
        assert t.hops(0b1010, 0b0101) == 4

    def test_symmetry(self):
        t = HypercubeTopology(8)
        for a in range(8):
            for b in range(8):
                assert t.hops(a, b) == t.hops(b, a)

    def test_out_of_range(self):
        t = HypercubeTopology(4)
        with pytest.raises(ValueError, match="out of range"):
            t.hops(0, 4)
        with pytest.raises(ValueError, match="out of range"):
            t.hops(-1, 0)


class TestFullyConnected:
    def test_all_one_hop(self):
        t = FullyConnectedTopology(5)
        assert t.hops(2, 2) == 0
        assert t.hops(0, 4) == 1


@pytest.mark.parametrize(
    "name, n_procs",
    [("hypercube", p) for p in (1, 2, 8, 32)] + [("full", p) for p in (1, 3, 7, 12)],
)
class TestEveryTopology:
    """What the machine's exchange path relies on, for every name
    ``make_topology`` accepts, at every pair of processors."""

    @staticmethod
    def all_pairs(n_procs):
        return np.divmod(np.arange(n_procs * n_procs), n_procs)

    def test_hops_array_matches_scalar_hops(self, name, n_procs):
        t = make_topology(name, n_procs)
        src, dst = self.all_pairs(n_procs)
        expected = [t.hops(int(s), int(d)) for s, d in zip(src, dst)]
        assert t.hops_array(src, dst).tolist() == expected

    def test_hops_array_range_checked(self, name, n_procs):
        t = make_topology(name, n_procs)
        with pytest.raises(ValueError, match="out of range"):
            t.hops_array(np.array([0]), np.array([n_procs]))


class TestFactory:
    @pytest.mark.parametrize("name", ["hypercube", "full"])
    def test_known(self, name):
        t = make_topology(name, 4)
        assert t.n_procs == 4

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("torus", 4)

    def test_zero_procs(self):
        with pytest.raises(ValueError, match="at least one"):
            make_topology("full", 0)


@given(
    dim=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_hypercube_triangle_inequality(dim, data):
    n = 2**dim
    t = HypercubeTopology(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
    assert (t.hops(a, b) == 0) == (a == b)
