"""Worker heartbeats and the fleet view: who is alive, who owns what.

Leases (:mod:`repro.service.lease`) give mutual exclusion but only
coarse liveness: a cross-host crash is invisible until the TTL runs
out.  Heartbeats close that gap.  Every worker loop writes a tiny
per-worker file under ``<store>/health/`` — atomically, a few times per
TTL — carrying a monotonic sequence number, pid, host, and the job it
is currently running.  Any process that can read the store can then
classify every worker:

* **ALIVE** — heartbeat younger than 2 of the writer's intervals;
* **STALE** — older than that but not yet declared dead — the worker
  may be wedged, paused, or partitioned;
* **DEAD** — older than 3 intervals: treated as crashed.
  :func:`dead_worker_check` feeds this into
  :meth:`LeaseManager.expired`, so a SIGKILLed worker's job is
  reclaimed in a few heartbeat intervals instead of a full lease TTL.
  Fencing tokens make this *safe* even when the verdict is wrong (a
  paused worker wrongly declared dead cannot commit stale writes);
  heartbeats only make takeover *fast*.
* **EXITED** — the worker said goodbye: its final beat is marked
  ``exited`` so a clean shutdown is never reported as a death.

:class:`FleetView` joins heartbeats, leases, and job records into the
single structure the ``repro top`` dashboard and the exporters render.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Union

from repro.service.jobs import DONE, PHASES, QUEUED, RUNNING, JobRecord, read_jobs
from repro.service.lease import LeaseInfo, LeaseManager
from repro.store.artifacts import atomic_write

__all__ = [
    "ALIVE",
    "DEAD",
    "EXITED",
    "STALE",
    "FleetView",
    "Heartbeat",
    "HeartbeatWriter",
    "dead_worker_check",
    "default_heartbeat_interval",
    "heartbeat_status",
    "job_progress",
    "read_heartbeat",
    "read_heartbeats",
]

ALIVE = "alive"
STALE = "stale"
DEAD = "dead"
EXITED = "exited"

#: A heartbeat is suspect after this many missed intervals ...
STALE_AFTER_INTERVALS = 2.0
#: ... and its worker is declared dead after this many.
DEAD_AFTER_INTERVALS = 3.0


def default_heartbeat_interval(lease_ttl: float) -> float:
    """The beat period for a given lease TTL: frequent, never hot.

    A tenth of the TTL keeps dead-worker detection (3 intervals) well
    under half the TTL — the acceptance bound — while the 0.5 s floor
    keeps very short test TTLs from turning the writer into a busy
    loop.
    """
    return max(0.5, lease_ttl / 10.0)


@dataclass(frozen=True)
class Heartbeat:
    """One worker's last sign of life, as read back from disk."""

    worker: str
    host: str
    pid: int
    seq: int
    #: Wall-clock time of the beat (writer's clock).
    wall: float
    #: The writer's beat period — readers derive staleness from it.
    interval: float
    #: ``alive`` while the loop runs; ``exited`` on clean shutdown.
    state: str = ALIVE
    #: Job id currently being run (None while polling).
    job: Optional[str] = None
    #: Jobs finished by this worker since it started.
    jobs_done: int = 0

    def age(self, now: float) -> float:
        return max(0.0, now - self.wall)


def heartbeat_status(heartbeat: Heartbeat, now: float) -> str:
    """Classify a heartbeat at wall time ``now``.

    The thresholds are :data:`STALE_AFTER_INTERVALS` and
    :data:`DEAD_AFTER_INTERVALS` times the *writer's own* interval, so
    fleets can mix fast and slow beat rates.
    """
    if heartbeat.state == EXITED:
        return EXITED
    age = heartbeat.age(now)
    if age >= DEAD_AFTER_INTERVALS * heartbeat.interval:
        return DEAD
    if age >= STALE_AFTER_INTERVALS * heartbeat.interval:
        return STALE
    return ALIVE


class HeartbeatWriter:
    """Periodically publish one worker's liveness file, atomically.

    The file is replaced via tmp + ``rename`` so readers never observe
    a torn write, and the sequence number is monotonic so a reader can
    distinguish "same beat re-read" from "new beat, clock skewed".

    :meth:`start` runs the beat on a daemon thread, which keeps
    heartbeats fresh *during* long compute (a GA generation can outlast
    several intervals); the worker loop additionally calls
    :meth:`update` at state changes so the published ``job`` field
    tracks reality.  :meth:`stop` writes a final ``exited`` beat.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        worker_id: str,
        interval: float = 3.0,
        clock: Callable[[], float] = time.time,
    ):
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        self.directory = Path(directory)
        self.worker_id = worker_id
        self.interval = interval
        self.clock = clock
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.path = self.directory / f"{worker_id}.hb"
        self.seq = 0
        self.job: Optional[str] = None
        self.jobs_done = 0
        self._last_beat = float("-inf")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- beats ----------------------------------------------------------
    def beat(self, state: str = ALIVE) -> None:
        """Write one heartbeat now (atomic replace, monotonic seq)."""
        with self._lock:
            self.seq += 1
            payload = json.dumps(
                {
                    "worker": self.worker_id,
                    "host": self.host,
                    "pid": self.pid,
                    "seq": self.seq,
                    "wall": self.clock(),
                    "interval": self.interval,
                    "state": state,
                    "job": self.job,
                    "jobs_done": self.jobs_done,
                },
                sort_keys=True,
            )
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                atomic_write(self.path, payload + "\n")
            except OSError:
                # A full or vanished disk must never take the worker
                # down; liveness reporting is strictly best-effort.
                return
            self._last_beat = time.monotonic()

    def maybe_beat(self) -> bool:
        """Beat only if at least one interval elapsed; True if it did."""
        if time.monotonic() - self._last_beat < self.interval:
            return False
        self.beat()
        return True

    def update(
        self,
        job: Optional[str] = None,
        clear_job: bool = False,
        jobs_done: Optional[int] = None,
    ) -> None:
        """Change the published state and beat immediately."""
        if job is not None:
            self.job = job
        if clear_job:
            self.job = None
        if jobs_done is not None:
            self.jobs_done = jobs_done
        self.beat()

    # -- background loop ------------------------------------------------
    def start(self) -> "HeartbeatWriter":
        """Beat now and keep beating on a daemon thread until stopped."""
        if self._thread is not None:
            return self
        self.beat()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{self.worker_id}", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        """Stop the loop and publish a final ``exited`` beat."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=2.0 * self.interval)
        self.beat(state=EXITED)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_heartbeat(path: Union[str, Path]) -> Optional[Heartbeat]:
    """Parse one heartbeat file; ``None`` for missing/torn/garbage."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    try:
        return Heartbeat(
            worker=str(data["worker"]),
            host=str(data.get("host", "")),
            pid=int(data.get("pid", 0)),
            seq=int(data.get("seq", 0)),
            wall=float(data["wall"]),
            interval=float(data.get("interval", 3.0)) or 3.0,
            state=str(data.get("state", ALIVE)),
            job=data.get("job") if data.get("job") else None,
            jobs_done=int(data.get("jobs_done", 0)),
        )
    except (KeyError, TypeError, ValueError):
        return None


def read_heartbeats(directory: Union[str, Path]) -> Dict[str, Heartbeat]:
    """Every readable heartbeat in a health dir, keyed by worker id."""
    out: Dict[str, Heartbeat] = {}
    try:
        paths = sorted(Path(directory).glob("*.hb"))
    except OSError:
        return out
    for path in paths:
        heartbeat = read_heartbeat(path)
        if heartbeat is not None:
            out[heartbeat.worker] = heartbeat
    return out


def dead_worker_check(
    directory: Union[str, Path],
    clock: Callable[[], float] = time.time,
) -> Callable[[LeaseInfo], bool]:
    """A lease-holder liveness predicate backed by heartbeat files.

    Plugs into :class:`LeaseManager` (``dead_worker_check=``): given the
    holder named by a live lease, return True when its heartbeat proves
    it dead — cleanly exited but still holding a lease (crash between
    release and exit), or silent past ``DEAD_AFTER_INTERVALS`` of its
    own beat period.  A holder with *no* heartbeat file gets the benefit
    of the doubt (False): resume CLIs and older workers do not beat, and
    for them the TTL remains the only clock.
    """
    directory = Path(directory)

    def check(info: LeaseInfo) -> bool:
        heartbeat = read_heartbeat(directory / f"{info.worker}.hb")
        if heartbeat is None or heartbeat.worker != info.worker:
            return False
        status = heartbeat_status(heartbeat, clock())
        return status in (DEAD, EXITED)

    return check


# ----------------------------------------------------------------------
# The joined view
# ----------------------------------------------------------------------
class FleetView:
    """Join heartbeats + leases + job records into one fleet snapshot.

    Read-only and stateless: every call re-reads the store, so the view
    can be constructed ad hoc (``repro top --once``) or polled.  All
    three sources are independently crash-tolerant reads — a torn file
    in any of them degrades the row, never the snapshot.
    """

    def __init__(
        self,
        store,  # RunStore (duck-typed: health_dir/lease_dir/list_jobs)
        clock: Callable[[], float] = time.time,
    ):
        self.store = store
        self.clock = clock
        self._leases = LeaseManager(
            store.lease_dir, worker_id="fleet-view-reader", clock=clock
        )

    def snapshot(self) -> Dict[str, object]:
        """The joined view as one JSON-ready dict: one row per job record
        (holder liveness and progress) and one per worker ever seen
        beating (lease context), from one read of the job records, one
        lease peek per job and one heartbeat listing."""
        now = self.clock()
        heartbeats = read_heartbeats(self.store.health_dir)
        records = sorted(read_jobs(self.store), key=lambda r: (r.created, r.job_id))
        holders: Dict[str, str] = {}  # job id -> holder of its live lease
        for record in records:
            info = self._leases.peek(record.job_id)
            if info is not None and now < info.expires:
                holders[record.job_id] = info.worker

        jobs = []
        for record in records:
            holder = holders.get(record.job_id)
            beat = heartbeats.get(holder) if holder is not None else None
            holder_status = heartbeat_status(beat, now) if beat else None
            claimable = record.state in (QUEUED, RUNNING) and (
                holder is None or holder_status in (DEAD, EXITED)
            )
            jobs.append(
                {
                    "job_id": record.job_id,
                    "state": record.state,
                    "phase": record.phase,
                    "program": record.request.program,
                    "size": record.request.size,
                    "kind": record.request.kind,
                    "priority": record.priority,
                    "sessions": record.sessions,
                    "progress": job_progress(record),
                    "worker": record.worker,
                    "holder": holder,
                    "holder_status": holder_status,
                    "claimable": claimable,
                    "error": record.error,
                    "updated": record.updated,
                }
            )

        workers = []
        for worker, heartbeat in sorted(heartbeats.items()):
            workers.append(
                {
                    "worker": worker,
                    "host": heartbeat.host,
                    "pid": heartbeat.pid,
                    "status": heartbeat_status(heartbeat, now),
                    "age": round(heartbeat.age(now), 3),
                    "seq": heartbeat.seq,
                    "interval": heartbeat.interval,
                    "job": heartbeat.job,
                    "jobs_done": heartbeat.jobs_done,
                    "leases": sorted(
                        job for job, held in holders.items() if held == worker
                    ),
                }
            )
        return {
            "generated": now,
            "store": str(getattr(self.store, "root", "")),
            "jobs": jobs,
            "workers": workers,
            "summary": {
                "jobs_total": len(jobs),
                "jobs_done": sum(1 for j in jobs if j["state"] == DONE),
                "jobs_active": sum(
                    1 for j in jobs if j["state"] in (QUEUED, RUNNING)
                ),
                "jobs_failed": sum(
                    1 for j in jobs if j["state"] == "failed"
                ),
                "workers_alive": sum(
                    1 for w in workers if w["status"] == ALIVE
                ),
                "workers_stale": sum(
                    1 for w in workers if w["status"] == STALE
                ),
                "workers_dead": sum(
                    1 for w in workers if w["status"] == DEAD
                ),
            },
        }


def job_progress(record: JobRecord) -> Dict[str, object]:
    """A job's progress as ``{phase, done, total, fraction}``.

    The fraction is the *current phase's* checkpoint progress: collect
    counts batches, fit its one model checkpoint, and search the GA
    generations a drain stored (the live generation is in the job's
    ``ga.generation`` events).  A DONE job reports 1.0 regardless of
    which counters survived.
    """
    if record.state == DONE:
        return {"phase": record.phase, "done": 1, "total": 1, "fraction": 1.0}
    phase = record.phase if record.phase in PHASES else "collect"
    progress: Mapping[str, object] = record.progress or {}
    done, total = 0, 0
    if phase == "collect":
        sub = progress.get("collect", {}) or {}
        done = int(sub.get("batches_done", 0) or 0)
        total = int(sub.get("total_batches", 0) or 0)
        if sub.get("done"):
            done = total = max(1, total)
    elif phase == "fit":
        sub = progress.get("fit", {}) or {}
        done, total = int(bool(sub.get("done"))), 1
    elif phase in ("search", "report"):
        sub = progress.get("search", {}) or {}
        done = int(sub.get("generation", 0) or 0)
        total = int(record.request.generations or 0)
        if sub.get("done"):
            done = total = max(1, total)
    fraction = (done / total) if total > 0 else 0.0
    return {
        "phase": phase,
        "done": done,
        "total": total,
        "fraction": round(min(1.0, max(0.0, fraction)), 4),
    }
