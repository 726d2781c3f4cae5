"""The supervised simulation service.

:class:`SimulationService` owns a pool of worker subprocesses (one duplex
pipe each, see :mod:`repro.serve.workers`), an admission queue with
load shedding, a retry scheduler, and the result cache.  A single
supervisor thread multiplexes everything:

* **assignment** -- queued jobs go to idle workers; a retry whose
  backoff expired re-enters at the front (it has been waiting longest);
* **crash detection** -- a dead worker is one whose pipe hit EOF;
  a hung worker is one whose last heartbeat (one per simulation step)
  is older than ``heartbeat_timeout``, or whose job overran
  ``job_deadline``: both are killed and treated as crashes;
* **retry** -- a crashed job is rescheduled with exponential backoff
  plus deterministic jitter until ``max_attempts`` is spent, then fails
  with :class:`~repro.serve.errors.RetryBudgetExhausted`.  Because jobs
  checkpoint every ``checkpoint_every`` steps, a retry *resumes* -- a
  crash costs at most one checkpoint interval of work;
* **self-healing cache** -- results are persisted content-addressed and
  CRC-guarded; a corrupt entry found at submit time is quarantined, the
  job recomputed, and the entry rewritten.

Every state transition lands as a structured event on the job
(``queued``/``coalesced``/``running``/``retrying``/``resumed``/
``degraded``/``done``/``failed``) and service-level incidents (worker
restarts, cache quarantines, ``.prev`` checkpoint fallbacks) on the
service's event bus (``service.bus``) -- ``Job.status()`` and
``service.health()`` expose them without log spelunking.
"""

from __future__ import annotations

import heapq
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import asdict

import numpy as np

from repro.guard.checkpoint import previous_checkpoint_path
from repro.obs import EventBus, NULL_TRACER, Tracer, export_trace
from repro.serve.cache import ResultCache
from repro.serve.config import JobConfig, config_key
from repro.serve.errors import (
    JobFailed,
    QueueSaturated,
    RetryBudgetExhausted,
    ServeError,
)
from repro.serve.workers import make_context, spawn_worker

#: default wall-clock guess for one job before any has finished (used
#: only for the very first retry_after hints)
_DEFAULT_JOB_SECONDS = 1.0


class Job:
    """Client-side handle of one submitted simulation."""

    def __init__(self, job_id: str, key: str, config: JobConfig, lock, bus):
        self.id = job_id
        self.key = key
        self.config = config
        self.state = "queued"
        self.attempts = 0
        self.duplicates = 0
        self.result: dict | None = None
        self.error: Exception | None = None
        #: the service's event bus and this job's lifecycle category on it
        self._bus = bus
        self._category = f"serve.job/{job_id}"
        self._lock = lock
        self._finished = threading.Event()

    # -- service-side (called under the service lock) -------------------
    def _event(self, kind: str, **detail) -> None:
        self._bus.emit(
            self._category, kind, {"event": kind, "t": time.time(), **detail}
        )

    def _finish(self, state: str) -> None:
        self.state = state
        self._finished.set()

    # -- client-side ----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._finished.is_set()

    def status(self) -> dict:
        """Structured snapshot: state, attempts, and the event history."""
        with self._lock:
            return {
                "id": self.id,
                "key": self.key,
                "state": self.state,
                "attempts": self.attempts,
                "duplicates": self.duplicates,
                "events": [dict(e) for e in self._bus.payloads(self._category)],
                "error": None if self.error is None else str(self.error),
            }

    def wait(self, timeout: float | None = None) -> dict:
        """Block for the result; raises :class:`JobFailed` on failure."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"{self.id} still {self.state} after {timeout}s")
        with self._lock:
            if self.state == "failed":
                raise JobFailed(
                    f"{self.id} failed after {self.attempts} attempt(s): "
                    f"{self.error}",
                    cause=self.error,
                )
            return dict(self.result)


class _Worker:
    """Supervisor-side bookkeeping for one worker subprocess."""

    def __init__(self, proc, conn, worker_id: int):
        self.id = worker_id
        self.proc = proc
        self.conn = conn
        self.alive = True
        self.busy: Job | None = None
        self.started_at = 0.0
        self.started_ns = 0
        self.last_beat = 0.0


class SimulationService:
    """Async job service over the simulated CHAOS runtime."""

    def __init__(
        self,
        workers: int = 2,
        queue_limit: int = 8,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        heartbeat_timeout: float = 60.0,
        job_deadline: float | None = None,
        cache_dir: str | None = None,
        checkpoint_dir: str | None = None,
        seed: int = 0,
        poll_interval: float = 0.02,
        obs: str | None = None,
    ):
        """``obs`` (``"on"``/``"off"``; ``None`` reads ``REPRO_OBS``)
        enables supervisor-side job-lifecycle spans: one retroactive
        ``serve.job.attempt`` span per worker attempt, exported via
        :meth:`export_obs`.  Workers are separate processes, so their
        internal spans stay worker-side; the event bus is always on."""
        if obs is None:
            obs = os.environ.get("REPRO_OBS", "off")
        if obs not in ("on", "off"):
            raise ValueError(f"unknown obs mode {obs!r}; choose on | off")
        self.obs = Tracer() if obs == "on" else NULL_TRACER
        #: structured-event stream: service incidents are its
        #: ``serve.service`` category, each job's lifecycle ``serve.job/<id>``
        self.bus = EventBus()
        if workers < 1:
            raise ValueError(f"need at least 1 worker, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue_limit = int(queue_limit)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.job_deadline = job_deadline
        self.poll_interval = float(poll_interval)

        self._tmp = None
        if cache_dir is None or checkpoint_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
        self.cache = ResultCache(
            cache_dir or os.path.join(self._tmp.name, "cache")
        )
        self.checkpoint_dir = checkpoint_dir or os.path.join(
            self._tmp.name, "checkpoints"
        )
        os.makedirs(self.checkpoint_dir, exist_ok=True)

        self._lock = threading.RLock()
        self._rng = np.random.default_rng(seed)
        self._queue: deque[Job] = deque()
        self._retries: list[tuple[float, int, Job]] = []  # (not_before, seq, job)
        self._retry_seq = 0
        self._inflight: dict[str, Job] = {}  # key -> queued/running/retrying job
        self.jobs: dict[str, Job] = {}
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "shed": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "worker_restarts": 0,
        }
        self._durations: deque[float] = deque(maxlen=32)
        self._job_seq = 0
        self._closed = False

        self._ctx = make_context()
        self._workers = [self._spawn(i) for i in range(workers)]
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, config: JobConfig) -> Job:
        """Admit one simulation; returns its :class:`Job` handle.

        Duplicate of an in-flight config -> the *same* Job (coalesced).
        Result already cached -> a Job born ``done``.  Queue full ->
        :class:`QueueSaturated` with a ``retry_after`` hint.
        """
        with self._lock:
            if self._closed:
                raise ServeError("service is shut down")
            key = config_key(config)
            self._counts["submitted"] += 1

            existing = self._inflight.get(key)
            if existing is not None:
                existing.duplicates += 1
                existing._event("coalesced", submitted=config.scenario)
                self._counts["coalesced"] += 1
                return existing

            n_quarantined = len(self.cache.quarantined)
            cached = self.cache.get(key)
            if len(self.cache.quarantined) > n_quarantined:
                self._incident(
                    "cache_quarantine", **self.cache.quarantined[-1]
                )
            if cached is not None:
                job = self._new_job(key, config)
                job._event("queued")
                job._event("done", cache_hit=True)
                job.result = cached
                job._finish("done")
                self._counts["cache_hits"] += 1
                self._counts["completed"] += 1
                return job

            if len(self._queue) >= self.queue_limit:
                self._counts["shed"] += 1
                retry_after = self._retry_after_hint()
                raise QueueSaturated(
                    f"admission queue at limit ({self.queue_limit}); "
                    f"retry in ~{retry_after:.2f}s",
                    retry_after=retry_after,
                )

            job = self._new_job(key, config)
            job._event("queued", depth=len(self._queue))
            self._queue.append(job)
            self._inflight[key] = job
            return job

    def health(self) -> dict:
        """Structured service health snapshot."""
        with self._lock:
            return {
                "workers": [
                    {
                        "id": w.id,
                        "pid": w.proc.pid,
                        "alive": w.alive and w.proc.is_alive(),
                        "busy": None if w.busy is None else w.busy.id,
                    }
                    for w in self._workers
                ],
                "queue_depth": len(self._queue),
                "retry_depth": len(self._retries),
                "inflight": len(self._inflight),
                "counts": dict(self._counts),
                "cache": self.cache.stats(),
                "events": [dict(e) for e in self.bus.payloads("serve.service")],
            }

    def shutdown(self) -> None:
        """Stop the supervisor and terminate every worker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._thread.join(timeout=10)
        for w in self._workers:
            if w.alive:
                try:
                    w.conn.send({"type": "stop"})
                except (OSError, BrokenPipeError):
                    pass
            w.proc.join(timeout=1)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=5)
            try:
                w.conn.close()
            except OSError:
                pass
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_job(self, key: str, config: JobConfig) -> Job:
        self._job_seq += 1
        job = Job(f"job-{self._job_seq:04d}", key, config, self._lock, self.bus)
        self.jobs[job.id] = job
        return job

    def _spawn(self, worker_id: int) -> _Worker:
        proc, conn = spawn_worker(self._ctx, worker_id)
        return _Worker(proc, conn, worker_id)

    def _incident(self, kind: str, **detail) -> None:
        self.bus.emit(
            "serve.service", kind, {"event": kind, "t": time.time(), **detail}
        )

    def _close_attempt(self, w: _Worker, job, outcome: str) -> None:
        """Record one worker attempt as a retroactive span (obs on only)."""
        if job is None or not self.obs.enabled:
            return
        t0 = w.started_ns
        self.obs.record(
            "serve.job.attempt",
            t0,
            time.perf_counter_ns() - t0,
            job=job.id,
            attempt=job.attempts,
            worker=w.id,
            outcome=outcome,
        )

    def export_obs(self, path: str, fmt: str = "jsonl") -> str:
        """Export supervisor spans + the service event bus to ``path``."""
        with self._lock:
            return export_trace(
                path,
                self.obs,
                bus=self.bus,
                meta={"component": "serve", "counts": dict(self._counts)},
                fmt=fmt,
            )

    def _retry_after_hint(self) -> float:
        per_job = (
            sum(self._durations) / len(self._durations)
            if self._durations
            else _DEFAULT_JOB_SECONDS
        )
        n_workers = max(1, sum(1 for w in self._workers if w.alive))
        return max(0.05, per_job * (1 + len(self._queue)) / n_workers)

    def _checkpoint_path(self, key: str) -> str:
        return os.path.join(self.checkpoint_dir, f"{key}.ckpt")

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter (seeded rng)."""
        base = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        return base * (1.0 + 0.25 * float(self._rng.random()))

    # -- supervisor loop -------------------------------------------------
    def _supervise(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        while not self._stop.is_set():
            with self._lock:
                self._promote_retries()
                self._assign()
                conns = {
                    w.conn: w for w in self._workers if w.alive
                }
            ready = conn_wait(list(conns), timeout=self.poll_interval)
            with self._lock:
                for conn in ready:
                    self._drain(conns[conn])
                self._check_hangs()

    def _promote_retries(self) -> None:
        now = time.monotonic()
        while self._retries and self._retries[0][0] <= now:
            _, _, job = heapq.heappop(self._retries)
            # retries go to the front: they have waited longest
            self._queue.appendleft(job)
            job.state = "queued"

    def _assign(self) -> None:
        for w in self._workers:
            if not self._queue:
                return
            if not w.alive or w.busy is not None:
                continue
            job = self._queue.popleft()
            job.attempts += 1
            ckpt = self._checkpoint_path(job.key)
            resuming = os.path.exists(ckpt) or os.path.exists(previous_checkpoint_path(ckpt))
            try:
                w.conn.send(
                    {
                        "type": "job",
                        "job_id": job.id,
                        "attempt": job.attempts,
                        "config": asdict(job.config),
                        "checkpoint_path": ckpt,
                    }
                )
            except (OSError, BrokenPipeError):
                # worker died between polls; put the job back untouched
                job.attempts -= 1
                self._queue.appendleft(job)
                self._crash(w, "send_failed")
                continue
            job.state = "running"
            w.busy = job
            w.started_at = w.last_beat = time.monotonic()
            w.started_ns = time.perf_counter_ns()
            job._event(
                "running", attempt=job.attempts, worker=w.id, resuming=resuming
            )

    def _drain(self, w: _Worker) -> None:
        """Handle every message one worker has ready (or its death)."""
        while True:
            try:
                if not w.conn.poll(0):
                    return
                msg = w.conn.recv()
            except (EOFError, OSError):
                self._crash(w, "worker_died")
                return
            kind = msg["type"]
            if kind == "heartbeat":
                w.last_beat = time.monotonic()
            elif kind == "started":
                w.last_beat = time.monotonic()
            elif kind == "result":
                self._complete(w, msg["result"])
            elif kind == "error":
                self._typed_failure(w, msg)

    def _complete(self, w: _Worker, result: dict) -> None:
        job = w.busy
        w.busy = None
        if job is None:  # pragma: no cover - protocol guard
            return
        self._close_attempt(w, job, "done")
        self._durations.append(time.monotonic() - w.started_at)
        if result.get("resumed"):
            job._event(
                "resumed",
                source=result.get("resume_source"),
                start_step=result.get("start_step"),
            )
            if result.get("resume_source") == "prev":
                # primary checkpoint was damaged; we recovered from the
                # rotated generation -- degraded but correct
                job._event("degraded", reason="checkpoint_fallback_prev")
                self._incident(
                    "checkpoint_fallback", job=job.id, source="prev"
                )
        self.cache.put(job.key, result)
        self._cleanup_checkpoints(job.key)
        job.result = result
        job._event("done", attempts=job.attempts)
        job._finish("done")
        self._inflight.pop(job.key, None)
        self._counts["completed"] += 1

    def _typed_failure(self, w: _Worker, msg: dict) -> None:
        """An in-process, typed error: deterministic, so never retried."""
        job = w.busy
        w.busy = None
        if job is None:  # pragma: no cover - protocol guard
            return
        self._close_attempt(w, job, "typed_error")
        job.error = JobFailed(
            f"{msg['error_type']}: {msg['error']}", cause=None
        )
        job._event(
            "failed",
            reason="typed_error",
            error_type=msg["error_type"],
            error=msg["error"],
        )
        job._finish("failed")
        self._inflight.pop(job.key, None)
        self._cleanup_checkpoints(job.key)
        self._counts["failed"] += 1

    def _crash(self, w: _Worker, reason: str) -> None:
        """A worker died (or was killed): restart it, reschedule its job."""
        job = w.busy
        w.busy = None
        self._close_attempt(w, job, f"crash:{reason}")
        w.alive = False
        try:
            w.conn.close()
        except OSError:
            pass
        w.proc.kill()
        w.proc.join(timeout=5)
        idx = self._workers.index(w)
        self._workers[idx] = self._spawn(w.id)
        self._counts["worker_restarts"] += 1
        self._incident(
            "worker_restart",
            worker=w.id,
            reason=reason,
            job=None if job is None else job.id,
        )
        if job is None:
            return
        if job.attempts >= self.max_attempts:
            reasons = [
                e.get("reason", e["event"])
                for e in self.bus.payloads(job._category)
                if e["event"] in ("retrying", "failed")
            ] + [reason]
            job.error = RetryBudgetExhausted(
                f"{job.id} crashed on all {job.attempts} attempts "
                f"(last: {reason})",
                attempts=job.attempts,
                reasons=reasons,
            )
            job._event(
                "failed",
                reason="retry_budget_exhausted",
                attempts=job.attempts,
                last_crash=reason,
            )
            job._finish("failed")
            self._inflight.pop(job.key, None)
            self._cleanup_checkpoints(job.key)
            self._counts["failed"] += 1
            return
        delay = self._backoff(job.attempts)
        ckpt = self._checkpoint_path(job.key)
        can_resume = os.path.exists(ckpt) or os.path.exists(previous_checkpoint_path(ckpt))
        job.state = "retrying"
        job._event(
            "retrying",
            reason=reason,
            attempt=job.attempts,
            next_attempt=job.attempts + 1,
            delay=round(delay, 4),
            resume_available=can_resume,
        )
        self._retry_seq += 1
        heapq.heappush(
            self._retries, (time.monotonic() + delay, self._retry_seq, job)
        )

    def _check_hangs(self) -> None:
        now = time.monotonic()
        for w in list(self._workers):
            if not w.alive or w.busy is None:
                continue
            if now - w.last_beat > self.heartbeat_timeout:
                self._crash(w, "heartbeat_timeout")
            elif (
                self.job_deadline is not None
                and now - w.started_at > self.job_deadline
            ):
                self._crash(w, "deadline_exceeded")

    def _cleanup_checkpoints(self, key: str) -> None:
        ckpt = self._checkpoint_path(key)
        for path in (ckpt, previous_checkpoint_path(ckpt)):
            try:
                os.remove(path)
            except OSError:
                pass
