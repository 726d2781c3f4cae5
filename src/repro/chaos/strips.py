"""Processor strips: the one runner that spreads simulated processors
over the host's cores.

The executor's compute phase, the cold ``localize`` and the patch rung's
reference reorder split their work into *strips*: runs of whole
processors of about :data:`STRIP_ITERS` positions (iterations, or
references per stacked member), cut only at processor boundaries
(:func:`strip_cuts`).  A strip owns every position of its processors,
so strips write disjoint output and their results concatenate in
processor order into exactly what one pass over all processors gives.
:func:`run_strips` takes strips off one queue on the calling thread and
a small process-wide thread pool; one strip -- and every run on a host
with one usable CPU, or from a pool thread -- runs inline and starts no
thread.  :func:`start` runs one task beside the caller on the same pool
and hands back its join: the patch rung's *order task*, whose strips
therefore run inline on the worker that took it.
"""

from __future__ import annotations

import collections
import os
import threading

import numpy as np

__all__ = ["MAX_STRIP_WORKERS", "STRIP_ITERS", "run_strips", "start", "strip_cuts"]

#: positions a strip aims for: a strip is the shortest run of whole
#: processors holding at least this many (the last may hold fewer)
STRIP_ITERS = 1 << 16
#: most worker threads the strip pool ever starts
MAX_STRIP_WORKERS = 3


#: ``on`` is set on the pool's own threads: their strips and tasks run inline
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.on = True


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


class _StripPool:
    """The process-wide thread pool that strips run on.

    Created on first use (a run of more than one strip, or a task), and
    only on a host with more than one usable CPU: ``usable CPUs - 1`` workers
    (at most :data:`MAX_STRIP_WORKERS`), because the dispatching thread
    takes strips too.  A forked child drops the inherited pool, whose
    threads do not exist there, and builds its own on demand.
    """

    _lock = threading.Lock()
    _executor = None
    _workers = None

    @classmethod
    def get(cls):
        """``(executor, n_workers)``, or ``(None, 0)`` on one usable CPU
        and on the pool's own threads (a task never waits on the queue
        it is blocking)."""
        if getattr(_pool_thread, "on", False):
            return None, 0
        with cls._lock:
            if cls._workers is None:
                cls._workers = max(0, min(_usable_cpus() - 1, MAX_STRIP_WORKERS))
            if cls._executor is None and cls._workers:
                from concurrent.futures import ThreadPoolExecutor

                cls._executor = ThreadPoolExecutor(
                    cls._workers,
                    thread_name_prefix="repro-strip",
                    initializer=_mark_pool_thread,
                )
            return cls._executor, cls._workers

    @classmethod
    def forget(cls) -> None:
        """Drop the pool without joining it: a forked child's copy has
        no threads, and its lock may have been held at the fork."""
        cls._lock = threading.Lock()
        cls._executor = None
        cls._workers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_StripPool.forget)


def strip_cuts(bounds: np.ndarray, target: int) -> list[int]:
    """Processor cuts ``[0, ..., P]`` of the strips over per-processor
    CSR bounds (length ``P + 1``): each strip is the shortest run of
    whole processors with ``target`` positions or more; the last takes
    what is left."""
    n_procs = bounds.size - 1
    cuts = [0]
    while cuts[-1] < n_procs:
        p = int(np.searchsorted(bounds, bounds[cuts[-1]] + target))
        cuts.append(min(max(p, cuts[-1] + 1), n_procs))
    return cuts


def start(task):
    """Run ``task()`` beside the caller; returns its join, a zero-argument
    callable giving the task's result or re-raising its error.  On the
    pool when there is one; with none, inline and at once, so the task
    runs in the caller's order."""
    pool, _ = _StripPool.get()
    if pool is None:
        result = task()
        return lambda: result
    return pool.submit(task).result


def run_strips(run_strip, n_strips: int) -> None:
    """Run ``run_strip(k)`` for every strip ``k``: inline when there is
    one strip or no pool, else on the pool and the calling thread.
    Every strip runs even after one raised; then the error of the
    lowest-numbered failing strip is re-raised as it was raised."""
    todo = collections.deque(range(n_strips))
    errors: list[Exception | None] = [None] * n_strips

    def drain() -> None:
        while True:
            try:
                k = todo.popleft()
            except IndexError:
                return
            try:
                run_strip(k)
            except Exception as exc:
                errors[k] = exc

    pool, workers = _StripPool.get() if n_strips > 1 else (None, 0)
    helpers = [pool.submit(drain) for _ in range(min(workers, n_strips - 1))]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()
    for exc in errors:
        if exc is not None:
            raise exc
