"""Typed error hierarchy of the simulation service.

Mirrors ``repro.guard.errors``: callers catch :class:`ServeError` for
anything the service can raise on purpose; unexpected exceptions are
bugs and propagate untyped.
"""

from __future__ import annotations


class ServeError(Exception):
    """Base class for every intentional service-layer failure."""


class QueueSaturated(ServeError):
    """The admission queue is full; retry after ``retry_after`` seconds.

    Load shedding happens at submit time -- the service rejects work it
    cannot queue instead of accepting unbounded backlog.  ``retry_after``
    is a hint derived from the queue's current drain rate.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = float(retry_after)


class RetryBudgetExhausted(ServeError):
    """A job crashed/failed on every attempt its budget allowed.

    Carries the per-attempt failure reasons so post-mortems do not need
    the service logs.
    """

    def __init__(self, message: str, attempts: int, reasons: list[str]):
        super().__init__(message)
        self.attempts = int(attempts)
        self.reasons = list(reasons)


class JobFailed(ServeError):
    """Raised by ``Job.wait()`` when the job ended in
    the ``failed`` state; ``cause`` is the terminal error."""

    def __init__(self, message: str, cause: Exception | None = None):
        super().__init__(message)
        self.cause = cause
