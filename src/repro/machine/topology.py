"""Interconnect topologies for the simulated machine.

A topology answers one question for the cost model: how many hops does a
message from processor ``src`` to processor ``dst`` traverse?  The iPSC/860
is a binary hypercube, so that is the default everywhere in the
reproduction.  A fully-connected topology gives the idealized
1-hop-everywhere model, and is the one that accepts a processor count
that is not a power of two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def _popcount(x: np.ndarray) -> np.ndarray:
        return np.bitwise_count(x).astype(np.int64)

else:  # NumPy 1.x fallback: sum set bits per byte through a 256-entry table

    _POPCOUNT8 = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.int64
    )

    def _popcount(x: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(x, dtype=np.int64).view(np.uint8)
        return _POPCOUNT8[b].reshape(x.size, 8).sum(axis=1)


class Topology(ABC):
    """Abstract interconnect: hop counts between pairs of processors."""

    def __init__(self, n_procs: int):
        if n_procs < 1:
            raise ValueError(f"need at least one processor, got {n_procs}")
        self.n_procs = int(n_procs)

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between processors ``src`` and ``dst``."""

    def hops_array(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized hop counts for parallel ``src``/``dst`` id arrays.

        Coerces and range-checks once, then delegates to
        :meth:`_hops_kernel`; concrete topologies override the kernel
        with closed-form array math so the machine's exchange path never
        iterates pairs in Python.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self._check_array(src, dst)
        return self._hops_kernel(src, dst)

    def _hops_kernel(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Hop counts for validated int64 arrays (generic scalar loop)."""
        return np.fromiter(
            (self.hops(int(s), int(d)) for s, d in zip(src, dst)),
            dtype=np.int64,
            count=src.size,
        )

    def _check(self, *procs: int) -> None:
        for p in procs:
            if not 0 <= p < self.n_procs:
                raise ValueError(
                    f"processor id {p} out of range [0, {self.n_procs})"
                )

    def _check_array(self, *proc_arrays: np.ndarray) -> None:
        for arr in proc_arrays:
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_procs):
                bad = arr[(arr < 0) | (arr >= self.n_procs)][0]
                raise ValueError(
                    f"processor id {int(bad)} out of range [0, {self.n_procs})"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_procs={self.n_procs})"


class HypercubeTopology(Topology):
    """Binary hypercube: the iPSC/860 interconnect.

    Processor ids are node labels; the hop count between two nodes is the
    Hamming distance of their ids.  The processor count must be a power of
    two, as on the real machine.
    """

    def __init__(self, n_procs: int):
        super().__init__(n_procs)
        if n_procs & (n_procs - 1):
            raise ValueError(
                f"hypercube needs a power-of-two processor count, got {n_procs}"
            )

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return (src ^ dst).bit_count()

    def _hops_kernel(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return _popcount(src ^ dst)


class FullyConnectedTopology(Topology):
    """Every pair one hop apart: the idealized 'flat' network."""

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return 0 if src == dst else 1

    def _hops_kernel(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return (src != dst).astype(np.int64)


_TOPOLOGIES = {
    "hypercube": HypercubeTopology,
    "full": FullyConnectedTopology,
}


def make_topology(name: str, n_procs: int) -> Topology:
    """Construct a topology by name: hypercube | full."""
    try:
        cls = _TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(_TOPOLOGIES)}"
        ) from None
    return cls(n_procs)
