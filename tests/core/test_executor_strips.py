"""Compute strips: the executor's phase 2 split into runs of whole
processors, evaluated on the strip pool and the dispatching thread.

Many strips (the strip target patched down to one processor's worth)
must give bit-identical results to one strip: every DistArray's content
and version, the machine clocks and every counter.  A kernel that raises
in a worker strip surfaces with its own type and changes nothing; a
one-strip sweep, or a host with one usable CPU, starts no thread; a
forked child builds its own pool.
"""

import os
import select
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.core.executor as executor
from repro.chaos.gather_scatter import REDUCTION_OPS
from repro.core import ArrayRef, Assign, ForallLoop, Reduce, run_executor, run_inspector
from repro.distribution import BlockDistribution, DistArray, IrregularDistribution
from repro.guard.faults import FaultPlan
from repro.machine import Machine
from repro.machine.stats import COUNTER_FIELDS
from repro.obs import Tracer, aggregate_spans

N_PROCS = 8
N_DATA = 60
N_ITER = 400
#: a strip target no sweep here reaches: one strip
ONE = 1 << 30
#: the smallest target: a strip per processor
MANY = 1


@pytest.fixture
def pool(monkeypatch):
    """A fresh strip pool with two workers, whatever the host's CPUs."""
    executor._StripPool.forget()
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 3)
    yield
    if executor._StripPool._executor is not None:
        executor._StripPool._executor.shutdown(wait=True)
    executor._StripPool.forget()


def make_arrays(m, dtype, seed=0):
    """x, y over an irregular distribution (so references hit ghosts),
    z over the iterations, and indirections ia, ib (random) and ip (a
    permutation, for assignments through ghosts)."""
    rng = np.random.default_rng(seed)
    dist = IrregularDistribution(rng.integers(0, m.n_procs, N_DATA), m.n_procs)
    zdist = IrregularDistribution(rng.integers(0, m.n_procs, N_ITER), m.n_procs)
    idist = BlockDistribution(N_ITER, m.n_procs)
    if np.dtype(dtype).kind == "f":
        x = rng.normal(size=N_DATA)
        y = rng.normal(size=N_DATA)
    else:
        x = rng.integers(-50, 50, N_DATA)
        y = rng.integers(-50, 50, N_DATA)
    return {
        "x": DistArray.from_global(m, dist, x.astype(dtype), name="x"),
        "y": DistArray.from_global(m, dist, y.astype(dtype), name="y"),
        "z": DistArray.from_global(m, zdist, np.zeros(N_ITER, dtype=dtype), name="z"),
        "ia": DistArray.from_global(m, idist, rng.integers(0, N_DATA, N_ITER), name="ia"),
        "ib": DistArray.from_global(m, idist, rng.integers(0, N_DATA, N_ITER), name="ib"),
        "ip": DistArray.from_global(m, idist, rng.permutation(N_ITER), name="ip"),
    }


def make_loop(kind):
    x1, x2 = ArrayRef("x", "ia"), ArrayRef("x", "ib")
    if kind == "assign":
        return ForallLoop(
            "assign", N_ITER, [Assign(ArrayRef("z", "ip"), lambda a, b: a - b, (x1, x2))]
        )
    # multiply keeps factors in {-1, 1}-ish ranges so products stay exact
    f = (lambda a, b: np.sign(a - b) + (a == b)) if kind == "multiply" else (lambda a, b: a * b)
    g = (lambda a, b: np.sign(a + b) + (a == -b)) if kind == "multiply" else (lambda a, b: a - b)
    return ForallLoop(
        kind,
        N_ITER,
        [
            Reduce(kind, ArrayRef("y", "ia"), f, (x1, x2), flops=2),
            Reduce(kind, ArrayRef("y", "ib"), g, (x1, x2), flops=3),
        ],
    )


def reference(kind, arrays, n_times):
    """Sequential NumPy result of ``n_times`` sweeps."""
    x = arrays["x"].to_global()
    ia, ib, ip = (arrays[n].to_global() for n in ("ia", "ib", "ip"))
    loop = make_loop(kind)
    if kind == "assign":
        z = arrays["z"].to_global().copy()
        z[ip] = loop.statements[0].func(x[ia], x[ib])
        return "z", z
    y = arrays["y"].to_global().copy()
    for _ in range(n_times):
        for s in loop.statements:
            REDUCTION_OPS[kind].at(y, arrays[s.lhs.index].to_global(), s.func(x[ia], x[ib]))
    return "y", y


def snapshot(m, arrays):
    return {
        "arrays": {n: (a.to_global().tobytes(), a.version) for n, a in arrays.items()},
        "counters": {f: getattr(m.counters, f).tobytes() for f in COUNTER_FIELDS},
        "clocks": [m.clock(p) for p in range(m.n_procs)] + [m.elapsed()],
    }


def sweep(monkeypatch, target, kind="add", dtype=np.float64, coalesce=True,
          merge=False, guard="off", faults=None, n_times=2):
    """Inspect and run ``kind``'s loop ``n_times`` with strip target
    ``target``; returns (snapshot, the NumPy reference check)."""
    monkeypatch.setattr(executor, "STRIP_ITERS", target)
    m = Machine(N_PROCS)
    arrays = make_arrays(m, dtype)
    want_name, want = reference(kind, arrays, n_times)
    product = run_inspector(m, make_loop(kind), arrays, coalesce_patterns=coalesce)
    if faults is not None:
        faults.install(m)
    run_executor(m, product, arrays, n_times=n_times,
                 merge_communication=merge, guard=guard)
    got = arrays[want_name].to_global()
    if np.dtype(dtype).kind == "f" and kind in ("add", "multiply"):
        matches = np.allclose(got, want)  # staging reassociates the sum
    else:
        matches = np.array_equal(got, want)
    return snapshot(m, arrays), matches


def test_strip_cuts_are_whole_processor_runs():
    bounds = np.array([0, 5, 5, 9, 30, 31, 31, 40])
    assert executor.strip_cuts(bounds, 1) == [0, 1, 3, 4, 5, 7]
    assert executor.strip_cuts(bounds, 10) == [0, 4, 7]
    assert executor.strip_cuts(bounds, 1 << 30) == [0, 7]
    assert executor.strip_cuts(np.zeros(4, dtype=np.int64), 1) == [0, 3]


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("kind", ["add", "multiply", "min", "max", "assign"])
@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("merge", [False, True])
def test_many_strips_are_bit_identical_to_one(pool, monkeypatch, dtype, kind, coalesce, merge):
    one, one_ok = sweep(monkeypatch, ONE, kind, dtype, coalesce, merge)
    many, many_ok = sweep(monkeypatch, MANY, kind, dtype, coalesce, merge)
    assert one_ok and many_ok
    assert many == one


def test_many_strips_under_rapid_thread_switching(pool, monkeypatch):
    """Three workers plus the dispatcher on this host's cores, switching
    threads every microsecond: a strip run twice, skipped or racing
    another strip's staging slots would change a bit of the result."""
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 8)
    want, _ = sweep(monkeypatch, ONE, n_times=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got, ok = sweep(monkeypatch, MANY, n_times=3)
            assert ok and got == want
    finally:
        sys.setswitchinterval(interval)
    assert executor._StripPool._workers == executor.MAX_STRIP_WORKERS


def test_guard_full_under_gather_faults(pool, monkeypatch):
    plans = [FaultPlan(seed=7).corrupt_gather(nth=0).drop_gather(nth=1) for _ in range(2)]
    one, one_ok = sweep(monkeypatch, ONE, guard="full", faults=plans[0])
    many, many_ok = sweep(monkeypatch, MANY, guard="full", faults=plans[1])
    assert one_ok and many_ok
    assert many == one


class KernelError(Exception):
    pass


def raising_loop(calls, in_worker):
    """A one-statement loop whose kernel raises ``KernelError``: on the
    first call when ``in_worker`` is False, else only in a pool worker
    -- the dispatching thread's strip waits until a worker has raised,
    so the failure is guaranteed to come from a worker."""
    raised = threading.Event()

    def kernel(a, b):
        calls.append(threading.get_ident())
        if not in_worker:
            raise KernelError("kernel failed")
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise KernelError("kernel failed in a worker")
        assert raised.wait(timeout=30)
        return a * b

    x1, x2 = ArrayRef("x", "ia"), ArrayRef("x", "ib")
    return ForallLoop("boom", N_ITER, [Reduce("add", ArrayRef("y", "ia"), kernel, (x1, x2))])


def test_worker_error_surfaces_typed_and_changes_nothing(pool, monkeypatch):
    after = {}
    for target, in_worker in ((ONE, False), (MANY, True)):
        monkeypatch.setattr(executor, "STRIP_ITERS", target)
        m = Machine(N_PROCS)
        arrays = make_arrays(m, np.float64)
        calls = []
        product = run_inspector(m, raising_loop(calls, in_worker), arrays)
        before = snapshot(m, arrays)
        with pytest.raises(KernelError):
            run_executor(m, product, arrays)
        state = snapshot(m, arrays)
        # the merge never ran: no array changed, not even its version
        assert state["arrays"] == before["arrays"]
        after[target] = state
        # every strip ran although one raised
        bounds = product.iteration_partition.iters_flat()[1]
        assert len(calls) == len(executor.strip_cuts(bounds, target)) - 1
    # the gather was charged in both, the compute charge in neither
    assert after[MANY] == after[ONE]


def test_one_strip_sweep_starts_no_thread(monkeypatch):
    executor._StripPool.forget()
    threads = threading.active_count()
    sweep(monkeypatch, executor.STRIP_ITERS)
    assert executor._StripPool._executor is None
    assert threading.active_count() == threads


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    executor._StripPool.forget()
    monkeypatch.setattr(executor, "_usable_cpus", lambda: 1)
    threads = threading.active_count()
    try:
        _, ok = sweep(monkeypatch, MANY)
        assert ok
        assert executor._StripPool._executor is None
        assert threading.active_count() == threads
    finally:
        executor._StripPool.forget()  # the next sweep counts the real CPUs


def test_strip_spans_nest_under_compute_on_their_threads(pool, monkeypatch):
    monkeypatch.setattr(executor, "STRIP_ITERS", MANY)
    m = Machine(N_PROCS)
    m.obs = Tracer()
    arrays = make_arrays(m, np.float64)
    product = run_inspector(m, make_loop("add"), arrays)
    run_executor(m, product, arrays)
    (compute,) = [s for s in m.obs.spans if s.name == "executor.compute"]
    strips = [s for s in m.obs.spans if s.name == "executor.strip"]
    assert len(strips) == compute.attrs["n_strips"] > 1
    assert {s.parent for s in strips} == {compute.id}
    assert sum(s.attrs["n_iters"] for s in strips) == N_ITER
    assert all(agg["self_s"] >= 0 for agg in aggregate_spans(m.obs.spans).values())


@pytest.mark.parametrize("op", ["min", "max"])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
@pytest.mark.parametrize("target", [ONE, MANY])
def test_min_max_staging_starts_from_the_dtype_identity(pool, monkeypatch, op, dtype, target):
    """REDUCE(MIN/MAX) over an integer array: untouched elements keep
    their value, touched ones combine exactly (no cast of +-inf)."""
    monkeypatch.setattr(executor, "STRIP_ITERS", target)
    m = Machine(N_PROCS)
    arrays = make_arrays(m, dtype)
    arrays["k"] = DistArray.from_global(
        m, arrays["x"].distribution, np.full(N_DATA, 100, dtype=dtype), name="k"
    )
    loop = ForallLoop(
        "k", N_ITER,
        [Reduce(op, ArrayRef("k", "ia"), lambda v: v * 3, (ArrayRef("x", "ia"),))],
    )
    ia = arrays["ia"].to_global()
    want = np.full(N_DATA, 100, dtype=dtype)
    REDUCTION_OPS[op].at(want, ia, arrays["x"].to_global()[ia] * 3)
    product = run_inspector(m, loop, arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_executor(m, product, arrays)
    assert np.array_equal(arrays["k"].to_global(), want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_drops_the_inherited_pool(pool, monkeypatch):
    want, ok = sweep(monkeypatch, MANY)
    assert ok and executor._StripPool._executor is not None
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        try:
            dropped = executor._StripPool._executor is None
            got, ok = sweep(monkeypatch, MANY)
            rebuilt = executor._StripPool._executor is not None
            os.write(w, b"1" if dropped and ok and rebuilt and got == want else b"0")
        finally:
            os._exit(0)
    os.close(w)
    try:
        ready, _, _ = select.select([r], [], [], 60)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        verdict = os.read(r, 1) if ready else b"hung"
    finally:
        os.close(r)
        os.waitpid(pid, 0)
    assert verdict == b"1"
