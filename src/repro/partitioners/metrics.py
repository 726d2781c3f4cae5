"""Partition quality metrics: edge cut and load imbalance.

These are what the executor-time differences in the paper's Table 2 come
from: BLOCK on a randomly numbered mesh cuts most edges; RCB cuts what
crosses its planes; RSB cuts least.  The benches report them next to the
simulated times so the causality is visible.
"""

from __future__ import annotations

import numpy as np


def _check(edges: np.ndarray, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    owners = np.ascontiguousarray(owners, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[0] != 2:
        raise ValueError(f"edges must have shape (2, E), got {edges.shape}")
    if edges.size and edges.max() >= owners.size:
        raise ValueError("edge endpoint out of range of owner map")
    return edges, owners


def edge_cut(edges: np.ndarray, owners: np.ndarray) -> int:
    """Number of edges whose endpoints live on different processors."""
    edges, owners = _check(edges, owners)
    if edges.size == 0:
        return 0
    return int((owners[edges[0]] != owners[edges[1]]).sum())


def load_imbalance(owners: np.ndarray, n_parts: int, weights=None) -> float:
    """max part load / mean part load (1.0 = perfectly balanced).

    Empty overall load returns 1.0.
    """
    owners = np.ascontiguousarray(owners, dtype=np.int64)
    if n_parts < 1:
        raise ValueError(f"need at least one part, got {n_parts}")
    if weights is None:
        loads = np.bincount(owners, minlength=n_parts).astype(np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != owners.shape:
            raise ValueError("weights and owners must have the same shape")
        loads = np.bincount(owners, weights=weights, minlength=n_parts)
    mean = loads.sum() / n_parts
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)
