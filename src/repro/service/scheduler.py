"""The job service: a durable queue of tuning jobs over a run store.

:class:`JobService` is the front door of the serving layer.  It accepts
:class:`~repro.service.jobs.TuneRequest`\\ s, persists them as queued
:class:`~repro.service.jobs.JobRecord`\\ s, caps how many unfinished
jobs the store may hold (:class:`AdmissionError` past it), and drains
the queue through its one :class:`~repro.service.runner.JobRunner`:
:meth:`~JobService.run_pending`, :meth:`~JobService.resume_all` and the
:meth:`~JobService.work` loop each claim and run one job at a time in
the calling thread, in :func:`schedule_order` (highest priority first,
FIFO within a priority).  The jobs hold the GIL, so parallelism comes
from more worker processes on one store, not from threads.

Everything durable lives in the store, so a service object is
stateless: kill the process, construct a new service on the same
directory, and ``resume()`` picks up every interrupted job from its
last checkpoint.

**Multi-host.**  Any number of service processes — on any hosts that
see the same store directory — may drain one queue concurrently.  Each
claim goes through a per-job lease
(:class:`~repro.service.lease.LeaseManager`): acquire before running,
renew at every checkpoint, and re-read the job record *after* the
lease lands, so a job another process already moved out of ``queued``
is skipped rather than double-run.  :meth:`work` is the long-lived
worker loop behind ``repro worker``: it polls for queued jobs and for
running jobs whose lease expired (a crashed or stalled worker
elsewhere) and resumes those from their last durable checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine import ExecutionBackend
from repro.service.health import (
    HeartbeatWriter,
    dead_worker_check,
    default_heartbeat_interval,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    TuneRequest,
    parse_job,
    read_jobs,
)
from repro.service.lease import Lease, LeaseHeld, LeaseManager
from repro.service.runner import JobRunner
from repro.store import RunStore
from repro.telemetry import events as tele


class AdmissionError(RuntimeError):
    """The queue is full; the job was not admitted."""


class JobFinished(ValueError):
    """The job already ran to completion; the operation cannot apply.

    Raised by :meth:`JobService.cancel` on a DONE job so callers can
    distinguish "nothing left to cancel" (CLI: its own message and exit
    code; API: HTTP 409) from genuinely bad input.  Subclasses
    :class:`ValueError` so pre-existing ``except ValueError`` callers
    keep working.
    """


def schedule_order(jobs: Iterable[JobRecord]) -> List[JobRecord]:
    """``jobs`` in scheduling order: highest priority first, FIFO
    within a priority, job id breaking ties."""
    return sorted(jobs, key=lambda job: (-job.priority, job.created, job.job_id))


class JobService:
    """Submit, schedule, resume and cancel tuning jobs on one store.

    ``engine_factory`` and ``use_cache`` configure the runner,
    ``max_queued`` caps admission, and ``worker_id``, ``lease_ttl`` and
    ``heartbeat_interval`` are this process's identity to other workers.
    """

    def __init__(
        self,
        store: Union[RunStore, str, Path],
        engine_factory: Optional[Callable[[], ExecutionBackend]] = None,
        max_queued: int = 32,
        use_cache: bool = True,
        worker_id: Optional[str] = None,
        lease_ttl: float = 30.0,
        heartbeat_interval: Optional[float] = None,
    ):
        if max_queued < 1:
            raise ValueError("max_queued must be positive")
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.max_queued = max_queued
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else default_heartbeat_interval(lease_ttl)
        )
        self.leases = LeaseManager(
            self.store.lease_dir,
            worker_id=worker_id,
            ttl=lease_ttl,
            # Takeover accelerator: a holder whose heartbeat file says
            # dead/exited is expired without waiting out the TTL.
            dead_worker_check=dead_worker_check(self.store.health_dir),
        )
        self.runner = JobRunner(
            self.store, engine_factory=engine_factory, use_cache=use_cache
        )

    @property
    def worker_id(self) -> str:
        """This service's worker identity (lease ownership)."""
        return self.leases.worker_id

    # -- queue ----------------------------------------------------------
    def submit(self, request: TuneRequest, priority: int = 0) -> JobRecord:
        """Admit a request as a queued job (durable before returning)."""
        return self.admit(request, priority, self.jobs())

    def admit(
        self, request: TuneRequest, priority: int, jobs: Sequence[JobRecord]
    ) -> JobRecord:
        """:meth:`submit` against ``jobs``, a listing the caller holds.

        The HTTP front door lists the store once per submission, for its
        dedup scan, and admits against that same listing in the same
        call on its one store thread.
        """
        backlog = [job for job in jobs if job.active]
        if len(backlog) >= self.max_queued:
            raise AdmissionError(
                f"queue full ({len(backlog)} active jobs >= {self.max_queued})"
            )
        record = JobRecord.new(request, priority=priority)
        self.store.save_job(record.job_id, record.to_dict())
        return record

    def jobs(self) -> List[JobRecord]:
        """Every readable job record in the store."""
        return read_jobs(self.store)

    def pending(self) -> List[JobRecord]:
        """Queued jobs in scheduling order."""
        return schedule_order(job for job in self.jobs() if job.state == QUEUED)

    def claimable(self) -> List[JobRecord]:
        """Work this worker could lease right now, in scheduling order.

        Queued jobs, plus running jobs whose lease is absent or expired
        — the signature of a worker that died (or stalled past its TTL)
        mid-job and whose checkpoints are waiting to be taken over.
        """
        return schedule_order(
            job
            for job in self.jobs()
            if job.state in (QUEUED, RUNNING)
            and self.leases.holder(job.job_id) is None
        )

    def get(self, job_id: str) -> JobRecord:
        data = self.store.load_job(job_id)
        if data is None:
            raise KeyError(f"no such job: {job_id}")
        return JobRecord.from_dict(data)

    # -- claiming -------------------------------------------------------
    def claim(
        self, job_id: str, states: Sequence[str] = (QUEUED,)
    ) -> Optional[Tuple[JobRecord, Lease]]:
        """Lease ``job_id`` and re-read its record; ``None`` if not ours.

        The re-read *after* the lease closes the stale-listing window:
        between listing the queue and acquiring the lease, another
        process may have claimed, finished, or cancelled the job — the
        in-memory listing must never be trusted for the run decision.
        A claim fails softly (``None``) when the lease is held, when
        acquiring it raises ``OSError`` (a transient ENOSPC or EIO; the
        job waits for a later poll and a ``lease.error`` event says
        why), or when the fresh record's state is not in ``states``.
        """
        try:
            lease = self.leases.acquire(job_id)
        except OSError as exc:
            tele.event(
                "lease.error", job_id=job_id, worker=self.worker_id,
                errno=exc.errno, error=str(exc),
            )
            return None
        if lease is None:
            return None
        record = parse_job(self.store.load_job(job_id))
        if record is None or record.state not in states:
            lease.release()
            return None
        return record, lease

    # -- execution ------------------------------------------------------
    def run_pending(self, max_jobs: Optional[int] = None) -> List[JobRecord]:
        """Run the queued jobs in scheduling order; returns their records."""
        queue = self.pending()
        if max_jobs is not None:
            queue = queue[:max_jobs]
        return self._run_all(queue, states=(QUEUED,))

    def resume(self, job_id: str, budget: Optional[int] = None) -> JobRecord:
        """Continue one interrupted job from its last durable checkpoint.

        ``budget`` replaces the request's per-session substrate-run
        budget — the escape hatch for a job that failed by exhausting
        its previous one.  Raises :class:`~repro.service.lease.LeaseHeld`
        when another worker's valid lease covers the job.
        """
        record = self.get(job_id)
        if record.state == DONE:
            return record
        if record.state == CANCELLED:
            raise ValueError(f"{job_id} is cancelled; submit a new job")
        lease = self.leases.acquire(job_id)
        if lease is None:
            holder = self.leases.holder(job_id)
            raise LeaseHeld(
                f"{job_id} is leased by worker "
                f"{holder.worker if holder else '(contended)'}"
                + (
                    f" until {holder.expires:.0f}" if holder else ""
                )
            )
        self.store.refresh()  # another process may have written checkpoints
        record = self.get(job_id)  # re-read under the lease
        if record.state == DONE:
            lease.release()
            return record
        if record.state == CANCELLED:
            lease.release()
            raise ValueError(f"{job_id} is cancelled; submit a new job")
        if budget is not None:
            record.request = replace(record.request, budget=budget)
        return self.runner.run(record, lease=lease)

    def resume_all(self) -> List[JobRecord]:
        """Resume every resumable (queued/failed/crashed-running) job."""
        self.store.refresh()
        resumable = schedule_order(job for job in self.jobs() if job.resumable)
        return self._run_all(resumable, states=(QUEUED, RUNNING, FAILED))

    def work(
        self,
        poll_interval: float = 1.0,
        max_jobs: Optional[int] = None,
        idle_polls: Optional[int] = None,
        drain: Optional[Callable[[], bool]] = None,
    ) -> List[JobRecord]:
        """The worker loop behind ``repro worker``: poll, claim, run.

        Each iteration refreshes the store, claims the first claimable
        job in scheduling order (queued, or running under an expired
        lease — another worker's crash), and runs it from its last
        durable checkpoint.  Returns after ``max_jobs`` finished jobs,
        after ``idle_polls`` consecutive empty polls, or once ``drain``
        returns true; with none of them set, loops forever.

        ``drain`` is checked between jobs and inside a running one: the
        runner finishes the checkpoint in progress, persists it,
        releases the lease and abandons the job (still RUNNING,
        immediately claimable by any worker), and the loop exits — the
        graceful-shutdown protocol behind ``repro worker --drain``.

        For the loop's lifetime the worker publishes a heartbeat file
        under ``<store>/health/`` (a daemon thread beats every
        ``heartbeat_interval`` seconds even mid-compute), so other
        hosts — and ``repro top`` — can tell a crash from a long
        generation.  The final beat on exit is marked ``exited``.
        """
        previous_hook = self.runner.should_stop
        if drain is not None:
            self.runner.should_stop = drain
        heartbeat = HeartbeatWriter(
            self.store.health_dir,
            worker_id=self.worker_id,
            interval=self.heartbeat_interval,
        )
        finished: List[JobRecord] = []
        idle = 0
        try:
            self.runner.heartbeat = heartbeat.start()
            while not (drain is not None and drain()):
                heartbeat.maybe_beat()
                self.store.refresh()
                ran = None
                for job in self.claimable():
                    heartbeat.update(job=job.job_id)
                    ran = self._claim_and_run(job.job_id, states=(QUEUED, RUNNING))
                    heartbeat.update(
                        clear_job=True,
                        jobs_done=heartbeat.jobs_done + (1 if ran is not None else 0),
                    )
                    if ran is not None:
                        break
                if ran is None:
                    idle += 1
                    if idle_polls is not None and idle >= idle_polls:
                        break
                    time.sleep(poll_interval)
                    continue
                idle = 0
                if drain is not None and drain() and ran.state == RUNNING:
                    break  # drained mid-job: checkpointed and released
                finished.append(ran)
                if max_jobs is not None and len(finished) >= max_jobs:
                    break
        finally:
            heartbeat.stop()
            self.runner.heartbeat = None
            self.runner.should_stop = previous_hook
        return finished

    def cancel(self, job_id: str) -> JobRecord:
        """Mark an unfinished job cancelled (its checkpoints remain).

        A worker mid-run on the job notices at its next checkpoint —
        the fencing guard refuses to commit over a cancelled record —
        and abandons it.  Cancelling an already-cancelled job is an
        idempotent no-op; cancelling a DONE job raises
        :class:`JobFinished` (there is nothing left to stop, and the
        result must not be retracted).
        """
        record = self.get(job_id)
        if record.state == DONE:
            raise JobFinished(f"{job_id} already finished")
        if record.state == CANCELLED:
            return record
        record.state = CANCELLED
        record.touch()
        self.store.save_job(record.job_id, record.to_dict())
        return record

    # ------------------------------------------------------------------
    def _claim_and_run(
        self, job_id: str, states: Sequence[str]
    ) -> Optional[JobRecord]:
        claimed = self.claim(job_id, states=states)
        if claimed is None:
            return None
        record, lease = claimed
        return self.runner.run(record, lease=lease)

    def _run_all(
        self, jobs: List[JobRecord], states: Sequence[str]
    ) -> List[JobRecord]:
        """Claim and run ``jobs`` one after another, in the given order."""
        finished = (self._claim_and_run(job.job_id, states) for job in jobs)
        return [record for record in finished if record is not None]
