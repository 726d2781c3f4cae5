"""Recursive spectral bisection (Simon 1991).

The connectivity-based partitioner of the paper's Table 2: recursively
split the graph at the weighted median of the Fiedler vector (the
eigenvector of the graph Laplacian's second-smallest eigenvalue).

Numerically, the Fiedler vector comes from a dense eigensolve for small
subgraphs and LOBPCG (with the constant vector deflated) for large ones,
falling back to dense when the iteration struggles.  The *modeled*
parallel cost reflects what Simon's Lanczos-based implementation paid on
the iPSC/860: many matrix-vector products plus growing
reorthogonalization work and two global reductions per iteration --
which is why the paper's RSB partitioning time (258 s) towers over RCB's
(1.6 s) while its executor time is the best.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

import numpy as np

from repro.partitioners.base import (
    PartitionProblem,
    PartitionResult,
    Partitioner,
    register_partitioner,
)
from repro.partitioners.weighted import weighted_median_split

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

#: modeled Lanczos iterations per bisection (i860-era, full reorth)
LANCZOS_ITERS = 150
#: dense-solve threshold for the actual Fiedler computation
_DENSE_N = 128


def _laplacian(n: int, edges: np.ndarray) -> sp.csr_matrix:
    import scipy.sparse as sp

    u, v = edges
    data = np.ones(2 * edges.shape[1])
    adj = sp.coo_matrix(
        (data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    ).tocsr()
    # collapse duplicate edges to weight 1 to keep the spectrum tame
    adj.data[:] = 1.0
    adj.sum_duplicates()
    adj.data[:] = np.minimum(adj.data, 1.0)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(deg) - adj


def fiedler_vector(n: int, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fiedler vector of the graph on ``n`` vertices with ``(2, E)`` edges.

    Deterministic given ``rng``'s state.  Subgraphs too small or too
    stubborn for LOBPCG are solved densely.
    """
    if n < 1:
        return np.empty(0)
    if n <= 2 or edges.size == 0:
        return np.arange(n, dtype=np.float64)
    L = _laplacian(n, np.ascontiguousarray(edges, dtype=np.int64))
    if n <= _DENSE_N:
        return _dense_fiedler(L.toarray())
    from scipy.sparse.linalg import eigsh, lobpcg

    ones = np.ones((n, 1)) / np.sqrt(n)
    x = rng.standard_normal((n, 1))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals, vecs = lobpcg(
                L.tocsr(),
                x,
                Y=ones,
                largest=False,
                tol=1e-5,
                maxiter=min(4 * int(np.sqrt(n)) + 50, 500),
            )
        vec = vecs[:, 0]
        if np.all(np.isfinite(vec)) and np.ptp(vec) > 0:
            return vec
    except (np.linalg.LinAlgError, ValueError):
        pass  # LOBPCG broke down (e.g. a singular Rayleigh-Ritz step): solve below
    if n <= 4000:
        return _dense_fiedler(L.toarray())
    # last resort: shifted power-ish refinement of a random vector is
    # useless; use eigsh which is slow but robust
    vals, vecs = eigsh(
        L.tocsc().asfptype(), k=2, which="SM", v0=rng.standard_normal(n)
    )
    order = np.argsort(vals)
    return vecs[:, order[1]]


def _dense_fiedler(L: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(L)
    return vecs[:, 1]


@register_partitioner("RSB")
class RSBPartitioner(Partitioner):
    """Connectivity-based partitioner; needs LINK, honours LOAD."""

    needs_edges = True

    def __init__(self, seed: int = 0):
        self.seed = seed

    def partition(self, problem: PartitionProblem, n_parts: int) -> PartitionResult:
        self.validate(problem, n_parts)
        n = problem.n_vertices
        owners = np.zeros(n, dtype=np.int64)
        weights = problem.effective_weights()
        edges = problem.edges if problem.edges is not None else np.empty((2, 0), np.int64)
        rng = np.random.default_rng(self.seed)

        flops = 0.0
        iops = 0.0
        rounds = 0
        comm_bytes = 0.0

        in_left = np.zeros(n, dtype=bool)  # scratch
        work = [(np.arange(n, dtype=np.int64), edges, 0, n_parts)]
        while work:
            next_work = []
            level_iters = 0
            for idx, sub_edges, part0, parts in work:
                if parts == 1 or idx.size == 0:
                    owners[idx] = part0
                    continue
                left_parts = (parts + 1) // 2
                frac = left_parts / parts
                mask = self._bisect(idx, sub_edges, weights, frac, rng)
                # split the edge list between the sides
                in_left[idx] = mask
                if sub_edges.size:
                    u, v = sub_edges
                    both_left = in_left[u] & in_left[v]
                    both_right = ~in_left[u] & ~in_left[v]
                    left_edges = sub_edges[:, both_left]
                    right_edges = sub_edges[:, both_right]
                else:
                    left_edges = right_edges = sub_edges
                in_left[idx] = False
                next_work.append((idx[mask], left_edges, part0, left_parts))
                next_work.append(
                    (idx[~mask], right_edges, part0 + left_parts, parts - left_parts)
                )
                # modeled Lanczos cost for this subgraph
                m_sub = sub_edges.shape[1]
                iters = min(LANCZOS_ITERS, max(idx.size, 1))
                flops += iters * (4.0 * m_sub + 8.0 * idx.size)
                flops += 0.5 * iters * iters * idx.size  # full reorthogonalization
                iops += 6.0 * m_sub  # edge-list split / bucketing
                level_iters = max(level_iters, iters)
                comm_bytes += 0.5 * 32.0 * idx.size
            # subgraphs at one level run concurrently; their Lanczos
            # reductions synchronize the whole machine per iteration
            rounds += 2 * level_iters
            work = next_work

        return PartitionResult(
            owner_map=owners,
            n_parts=n_parts,
            flops=flops,
            iops=iops,
            sync_rounds=rounds,
            comm_bytes=comm_bytes,
        )

    def _bisect(
        self,
        idx: np.ndarray,
        sub_edges: np.ndarray,
        weights: np.ndarray,
        frac: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Boolean left-side mask for one bisection of ``idx``."""
        n_sub = idx.size
        # relabel edges to local ids
        if sub_edges.size:
            lookup = np.zeros(int(idx.max()) + 1, dtype=np.int64)
            lookup[idx] = np.arange(n_sub)
            local_edges = lookup[sub_edges]
        else:
            local_edges = np.empty((2, 0), dtype=np.int64)

        if local_edges.size:
            import scipy.sparse as sp
            import scipy.sparse.csgraph as csgraph

            adj = sp.coo_matrix(
                (
                    np.ones(local_edges.shape[1]),
                    (local_edges[0], local_edges[1]),
                ),
                shape=(n_sub, n_sub),
            )
            n_comp, labels = csgraph.connected_components(adj, directed=False)
        else:
            n_comp, labels = n_sub, np.arange(n_sub)

        if n_comp > 1:
            # greedy weighted assignment of whole components
            comp_w = np.bincount(labels, weights=weights[idx], minlength=n_comp)
            order = np.argsort(-comp_w, kind="stable")
            total = comp_w.sum()
            target_left = frac * total
            left_w = 0.0
            left_comps = np.zeros(n_comp, dtype=bool)
            for c in order:
                if left_w < target_left:
                    left_comps[c] = True
                    left_w += comp_w[c]
            mask = left_comps[labels]
            # degenerate: everything on one side -> fall back to a plain split
            if mask.all() or not mask.any():
                mask = weighted_median_split(
                    np.arange(n_sub, dtype=np.float64), weights[idx], frac
                )
            return mask

        vec = fiedler_vector(n_sub, local_edges, rng)
        return weighted_median_split(vec, weights[idx], frac)
