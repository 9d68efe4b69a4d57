"""The serving layer: resumable tuning jobs behind a scheduler.

Built on :mod:`repro.store`'s crash-safe artifact store, this package
turns one-shot tuner invocations into durable *jobs*:

* :mod:`repro.service.jobs` — the job data model
  (:class:`TuneRequest`, :class:`JobRecord`, states, phases);
* :mod:`repro.service.budget` — per-job substrate-run budgets
  (:class:`BudgetedBackend`, :class:`BudgetExceeded`);
* :mod:`repro.service.runner` — :class:`JobRunner`, executing one job
  through checkpointable phases with a durable checkpoint where redoing
  the work is expensive: after each collect batch, after the fit and
  at the end (a search stores its state only when a worker drains);
* :mod:`repro.service.lease` — per-job worker leases over the shared
  store (:class:`LeaseManager`): atomic acquisition, heartbeat
  renewal, expiry-based takeover, monotonic fencing tokens;
* :mod:`repro.service.scheduler` — :class:`JobService`, the
  priority/FIFO queue, admission control, lease-based claiming and
  the multi-host worker loop (:meth:`JobService.work`);
* :mod:`repro.service.health` — per-worker heartbeat files
  (:class:`HeartbeatWriter`), heartbeat-accelerated dead-worker
  detection (:func:`dead_worker_check`), and the joined
  :class:`FleetView` behind ``repro top``;
* :mod:`repro.service.api` — the HTTP/JSON front door
  (:class:`~repro.service.api.ApiServer` behind ``repro serve``,
  :class:`~repro.service.api.ApiClient` behind ``repro jobs --url``)
  with request dedup and per-tenant quotas.

The CLI front ends are ``repro jobs submit|list|status|run|resume|cancel``
(local or ``--url`` remote), the long-lived ``repro worker``, and
``repro serve``.
"""

from repro.service.budget import BudgetedBackend, BudgetExceeded
from repro.service.health import (
    ALIVE,
    DEAD,
    EXITED,
    STALE,
    FleetView,
    Heartbeat,
    HeartbeatWriter,
    dead_worker_check,
    default_heartbeat_interval,
    heartbeat_status,
    job_progress,
    read_heartbeat,
    read_heartbeats,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PHASES,
    QUEUED,
    RUNNING,
    JobRecord,
    TuneRequest,
    request_fingerprint,
)
from repro.service.lease import (
    Lease,
    LeaseError,
    LeaseHeld,
    LeaseInfo,
    LeaseLost,
    LeaseManager,
    default_worker_id,
)
from repro.service.runner import JobRunner
from repro.service.scheduler import AdmissionError, JobFinished, JobService

__all__ = [
    "ALIVE",
    "AdmissionError",
    "BudgetedBackend",
    "BudgetExceeded",
    "CANCELLED",
    "DEAD",
    "DONE",
    "EXITED",
    "FAILED",
    "FleetView",
    "Heartbeat",
    "HeartbeatWriter",
    "JobFinished",
    "JobRecord",
    "JobRunner",
    "JobService",
    "Lease",
    "LeaseError",
    "LeaseHeld",
    "LeaseInfo",
    "LeaseLost",
    "LeaseManager",
    "PHASES",
    "QUEUED",
    "RUNNING",
    "STALE",
    "TuneRequest",
    "dead_worker_check",
    "default_heartbeat_interval",
    "default_worker_id",
    "heartbeat_status",
    "job_progress",
    "read_heartbeat",
    "read_heartbeats",
    "request_fingerprint",
]
