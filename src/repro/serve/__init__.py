"""repro.serve -- fault-tolerant simulation-as-a-service.

The north star's service layer: an async job API over the CHAOS
runtime reproduction.  :class:`~repro.serve.service.SimulationService`
runs :class:`~repro.serve.config.JobConfig` simulations in supervised
worker subprocesses -- crashes and hangs are detected (pipe EOF,
heartbeats, deadlines), the worker is restarted, and the job retried
with exponential backoff; long jobs checkpoint through
``repro.guard.checkpoint`` so a retry *resumes* from the last good
checkpoint instead of starting over.  Finished results land in a
content-addressed, CRC-guarded :class:`~repro.serve.cache.ResultCache`,
so resubmitting a config costs a file read and corrupt entries are
quarantined and recomputed.  Everything the service does is visible as
structured lifecycle events (``queued``/``running``/``retrying``/
``resumed``/``degraded``/``done``/``failed``) on the job and through
``service.health()``.

The deterministic chaos harness (:mod:`repro.serve.chaos`, also
``python -m repro.serve chaos``) kills workers mid-job, corrupts cache
and checkpoint files, and injects :class:`~repro.guard.faults.FaultPlan`
wire faults -- and asserts every job still completes with results bit
for bit identical to a fault-free run.
"""

from repro.serve.cache import ResultCache
from repro.serve.config import JobConfig, config_key
from repro.serve.errors import (
    JobFailed,
    QueueSaturated,
    RetryBudgetExhausted,
    ServeError,
)
from repro.serve.jobs import run_job
from repro.serve.service import Job, SimulationService

__all__ = [
    "JobConfig",
    "config_key",
    "ResultCache",
    "run_job",
    "Job",
    "SimulationService",
    "ServeError",
    "QueueSaturated",
    "RetryBudgetExhausted",
    "JobFailed",
]
