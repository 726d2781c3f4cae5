"""The level-at-a-time RCB against the per-sub-domain recursion.

``recursive_rcb`` is the textbook form, kept here as the oracle: one
``weighted_median_split`` -- a fresh stable sort of the sub-domain's
coordinate along its widest axis -- per sub-domain per level.
``RCBPartitioner`` presorts each axis once and splits a whole level at
a time; it must return the same owner map, the same modeled charges
and the same ``info``, ties and degenerate weights included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioners import PartitionProblem, get_partitioner, weighted_median_split
from repro.partitioners.rcb import MEDIAN_PROBES, PROBE_IOPS, RECORD_BYTES
from repro.workloads.mesh import generate_mesh
from tests.workloads.helpers import degree


def recursive_rcb(problem, n_parts):
    """Owner map, flops, iops, sync rounds, comm bytes and info of RCB."""
    n = problem.n_vertices
    owners = np.zeros(n, dtype=np.int64)
    coords, weights = problem.coords, problem.effective_weights()
    flops = iops = comm_bytes = 0.0
    rounds = levels = 0
    work = [(np.arange(n, dtype=np.int64), 0, n_parts)]
    while work:
        next_work, level_vertices = [], 0
        for idx, part0, parts in work:
            if parts == 1 or idx.size == 0:
                owners[idx] = part0
                continue
            left_parts = (parts + 1) // 2
            sub = coords[:, idx]
            axis = int(np.argmax(sub.max(axis=1) - sub.min(axis=1)))
            mask = weighted_median_split(sub[axis], weights[idx], left_parts / parts)
            next_work.append((idx[mask], part0, left_parts))
            next_work.append((idx[~mask], part0 + left_parts, parts - left_parts))
            level_vertices += idx.size
        if level_vertices:
            levels += 1
            flops += 2.0 * level_vertices
            iops += MEDIAN_PROBES * PROBE_IOPS * level_vertices
            rounds += MEDIAN_PROBES
            comm_bytes += 0.5 * RECORD_BYTES * level_vertices
        work = next_work
    return owners, flops, iops, rounds, comm_bytes, {"levels": levels}


def assert_matches_recursion(problem, n_parts):
    res = get_partitioner("RCB").partition(problem, n_parts)
    owners, *charges = recursive_rcb(problem, n_parts)
    assert np.array_equal(res.owner_map, owners)
    # exact: the same float sums in the same order
    assert [res.flops, res.iops, res.sync_rounds, res.comm_bytes, res.info] == charges


#: few distinct values, so coordinates tie often; both signed zeros
TIED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])


@st.composite
def problems(draw):
    ndim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    value = st.one_of(TIED, st.floats(-100, 100, allow_subnormal=False))
    coords = np.array(draw(st.lists(value, min_size=ndim * n, max_size=ndim * n)))
    kind = draw(st.sampled_from(["unit", "zero", "equal", "integer", "float"]))
    if kind == "unit":
        weights = None
    elif kind == "zero":
        weights = np.zeros(n)
    elif kind == "equal":
        weights = np.full(n, draw(st.sampled_from([1e-300, 0.1, 7.0])))
    else:
        element = st.integers(0, 3) if kind == "integer" else st.floats(0, 100)
        weights = np.array(draw(st.lists(element, min_size=n, max_size=n)), dtype=float)
    return PartitionProblem(n, coords=coords.reshape(ndim, n), weights=weights)


@settings(max_examples=300, deadline=None)
@given(problems(), st.integers(1, 40))
def test_matches_the_per_sub_domain_recursion(problem, n_parts):
    assert_matches_recursion(problem, n_parts)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("n_parts", [1, 2, 7])
def test_no_vertex_or_one(n, n_parts):
    problem = PartitionProblem(n, coords=np.zeros((2, n)))
    assert_matches_recursion(problem, n_parts)
    res = get_partitioner("RCB").partition(problem, n_parts)
    # a lone vertex always goes left, down to part 0
    assert res.owner_map.tolist() == [0] * n


@pytest.mark.parametrize("n_parts", [8, 64, 100])
@pytest.mark.parametrize("weighted", [False, True])
def test_mesh(n_parts, weighted):
    mesh = generate_mesh(2_000, seed=0)
    weights = degree(mesh).astype(float) if weighted else None
    assert_matches_recursion(
        PartitionProblem(mesh.n_nodes, coords=mesh.coords, weights=weights), n_parts
    )
