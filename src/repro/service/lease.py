"""Worker leases over the shared store: at most one worker per job.

Multiple worker processes — possibly on different hosts — drain one
:class:`~repro.store.RunStore` on shared storage.  The only
coordination primitive they share is the filesystem, so mutual
exclusion is built from the two operations POSIX makes atomic on one
directory: ``link`` (create-if-absent) and ``rename`` (replace).

On disk, under ``<store>/leases/``::

    <job_id>.lease       the live lease: one JSON line naming the
                         holder (worker id, host, pid), its fencing
                         token, and its expiry wall-time
    <job_id>.tokens/<n>  one empty file per fencing token ever issued
                         for the job (claimed via O_CREAT|O_EXCL)

**Acquisition** writes a temp file and ``link``\\ s it to the lease
path: exactly one contender wins; the rest see ``FileExistsError``.
**Renewal** re-reads the lease, verifies it still names this worker
*and this token* and has not expired — a lease that expired before its
holder got around to renewing is treated as lost, never revived — and,
once a tenth of the TTL has passed since the last write, atomically
replaces it with a pushed-out expiry.  After any verified renewal the
lease therefore holds for at least 0.9 TTL more.  **Takeover**
of an expired (or dead-process) lease unlinks it and re-enters the
acquisition race.

**Fencing tokens** are allocated by claiming the lowest free integer
in the job's ``tokens/`` directory, so every lease ever granted for a
job carries a token strictly greater than every earlier one — even
across crashes, because allocation never consults the (deletable)
lease file, only the append-only token directory.  A worker that
pauses, loses its lease, and wakes later still holds a *smaller* token
than the usurper; checkpoint commits verify the token against both the
live lease and the job record, so the stale worker's writes are
rejected (:class:`LeaseLost`) instead of corrupting the takeover's.

The residual race a filesystem cannot close — a reader validating its
lease an instant before a stealer unlinks it — is why the fencing
token, not the lease file, is the last line of defence; see the
failure matrix in DESIGN.md §11.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.store.artifacts import atomic_write
from repro.telemetry import events as tele

__all__ = [
    "Lease",
    "LeaseError",
    "LeaseHeld",
    "LeaseInfo",
    "LeaseLost",
    "LeaseManager",
    "default_worker_id",
]


class LeaseError(RuntimeError):
    """Base class for lease protocol failures."""


class LeaseLost(LeaseError):
    """This worker no longer holds the lease; its writes must stop."""


class LeaseHeld(LeaseError):
    """Another worker holds a valid lease on the job."""


def default_worker_id() -> str:
    """A worker identity unique across hosts, processes and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class LeaseInfo:
    """The durable content of a lease file (any process can read it)."""

    job_id: str
    worker: str
    token: int
    host: str
    pid: int
    acquired: float
    expires: float


class Lease:
    """A held lease: this worker's claim on one job, renewable.

    Only :meth:`LeaseManager.acquire` constructs these.  The holder
    must :meth:`renew` before ``expires`` (the runner renews at every
    checkpoint); a renewal that finds the lease expired, replaced, or
    gone raises :class:`LeaseLost` and the holder must abandon the job.
    """

    def __init__(self, manager: "LeaseManager", info: LeaseInfo, stolen: bool):
        self._manager = manager
        self.job_id = info.job_id
        self.worker = info.worker
        self.token = info.token
        self.expires = info.expires
        self.stolen = stolen
        self.released = False

    def renew(self) -> None:
        """Verify the lease and push its expiry out when due (raises
        :class:`LeaseLost`); see :meth:`LeaseManager.renew`."""
        self.expires = self._manager.renew(self)

    def release(self) -> None:
        """Give the lease up (idempotent; a lost lease releases as a no-op)."""
        if not self.released:
            self._manager.release(self)
            self.released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Lease(job_id={self.job_id!r}, worker={self.worker!r}, "
            f"token={self.token}, expires={self.expires:.3f})"
        )


class LeaseManager:
    """Acquire, renew, and take over per-job leases in one directory.

    Parameters
    ----------
    directory:
        The shared lease directory (``RunStore.lease_dir``).
    worker_id:
        This worker's identity; defaults to host-pid-random, unique per
        process.
    ttl:
        Seconds a lease stays valid without renewal.  Too short and a
        long checkpoint interval looks like a crash; too long and a
        real crash idles the job for the full TTL (same-host crashes
        are detected early via the recorded pid).
    clock:
        Wall-clock source (injectable for deterministic expiry tests).
    dead_worker_check:
        Optional predicate over a live lease's holder: return True when
        independent evidence (a stale heartbeat file — see
        :func:`repro.service.health.dead_worker_check`) proves the
        holder dead, letting takeover happen well before the TTL.
        Fencing tokens keep a wrong verdict safe; this only changes how
        *fast* a crash is noticed.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        worker_id: Optional[str] = None,
        ttl: float = 30.0,
        clock: Callable[[], float] = time.time,
        dead_worker_check: Optional[Callable[[LeaseInfo], bool]] = None,
    ):
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.worker_id = worker_id or default_worker_id()
        self.ttl = ttl
        self.clock = clock
        self.dead_worker_check = dead_worker_check
        self.host = socket.gethostname()

    # -- paths ----------------------------------------------------------
    def _lease_path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.lease"

    def _tokens_dir(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.tokens"

    # -- reads ----------------------------------------------------------
    def peek(self, job_id: str) -> Optional[LeaseInfo]:
        """The current lease on ``job_id``, held or not, else ``None``."""
        try:
            data = json.loads(self._lease_path(job_id).read_text("utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        try:
            return LeaseInfo(
                job_id=str(data["job_id"]),
                worker=str(data["worker"]),
                token=int(data["token"]),
                host=str(data.get("host", "")),
                pid=int(data.get("pid", 0)),
                acquired=float(data.get("acquired", 0.0)),
                expires=float(data["expires"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def expired(self, info: LeaseInfo) -> bool:
        """True when ``info`` no longer protects its job.

        Expiry is primarily the TTL deadline; additionally, a lease
        whose holder ran on *this* host under a pid that no longer
        exists is dead immediately — same-host crash recovery does not
        wait out the TTL.  A configured ``dead_worker_check`` extends
        the early verdict cross-host: a holder whose heartbeat went
        silent is expired without waiting out the TTL.
        """
        if self.clock() >= info.expires:
            return True
        if info.host == self.host and info.pid > 0:
            try:
                os.kill(info.pid, 0)
            except ProcessLookupError:
                return True
            except PermissionError:  # alive, owned by someone else
                pass
        if self.dead_worker_check is not None:
            try:
                if self.dead_worker_check(info):
                    return True
            except Exception:  # noqa: BLE001 - advisory signal only
                pass
        return False

    def holder(self, job_id: str) -> Optional[LeaseInfo]:
        """The *valid* (unexpired) lease on ``job_id``, else ``None``."""
        info = self.peek(job_id)
        if info is None or self.expired(info):
            return None
        return info

    # -- acquire / renew / release --------------------------------------
    def acquire(self, job_id: str) -> Optional[Lease]:
        """Try to take the lease on ``job_id``; ``None`` when outpaced.

        An expired or dead-holder lease is removed and re-contended;
        the winner's fencing token is strictly greater than every token
        ever issued for the job.  A valid lease — even one held by this
        same worker id in another thread — blocks acquisition.
        """
        current = self.peek(job_id)
        stolen = False
        if current is not None:
            if not self.expired(current):
                return None
            # Remove the corpse; losing this unlink race is fine, the
            # link() below arbitrates.
            self._lease_path(job_id).unlink(missing_ok=True)
            stolen = True
        token = self._allocate_token(job_id)
        now = self.clock()
        info = LeaseInfo(
            job_id=job_id,
            worker=self.worker_id,
            token=token,
            host=self.host,
            pid=os.getpid(),
            acquired=now,
            expires=now + self.ttl,
        )
        if not self._create(info):
            return None
        if stolen:
            tele.event(
                "lease.takeover",
                job_id=job_id,
                worker=self.worker_id,
                token=token,
                previous_worker=current.worker if current else None,
                previous_token=current.token if current else None,
            )
        tele.event(
            "lease.acquired",
            job_id=job_id,
            worker=self.worker_id,
            token=token,
            stolen=stolen,
            ttl=self.ttl,
        )
        return Lease(self, info, stolen=stolen)

    def renew(self, lease: Lease) -> float:
        """Verify ``lease``, extend it by one TTL when due; returns the
        expiry on disk.

        Raises :class:`LeaseLost` when the on-disk lease no longer
        names this (worker, token) or has already expired — a late
        renewal never resurrects a lease a stealer may be removing.
        The file is rewritten only once a tenth of the TTL has passed
        since its last write (the runner renews at every checkpoint,
        and creating a file costs far more than reading one): while
        the expiry on disk is more than 0.9 TTL away it is returned
        as is.  A holder therefore survives any stall shorter than
        0.9 TTL, and a crashed holder's lease still expires at most
        one TTL after its last write.
        """
        current = self.peek(lease.job_id)
        now = self.clock()
        if (
            current is None
            or current.worker != lease.worker
            or current.token != lease.token
            or now >= current.expires
        ):
            tele.event(
                "lease.lost",
                job_id=lease.job_id,
                worker=lease.worker,
                token=lease.token,
                usurper=current.worker if current is not None else None,
            )
            raise LeaseLost(
                f"lease on {lease.job_id} lost by {lease.worker} "
                f"(token {lease.token}); "
                + (
                    f"now held by {current.worker} (token {current.token})"
                    if current is not None
                    else "no lease on disk"
                )
            )
        if current.expires - now > 0.9 * self.ttl:
            return current.expires
        renewed = LeaseInfo(
            job_id=lease.job_id,
            worker=lease.worker,
            token=lease.token,
            host=current.host,
            pid=current.pid,
            acquired=current.acquired,
            expires=now + self.ttl,
        )
        self._write_replace(renewed)
        return renewed.expires

    def release(self, lease: Lease) -> None:
        """Drop the lease if still ours (a lost lease is left alone)."""
        current = self.peek(lease.job_id)
        if (
            current is not None
            and current.worker == lease.worker
            and current.token == lease.token
        ):
            self._lease_path(lease.job_id).unlink(missing_ok=True)
            tele.event(
                "lease.released",
                job_id=lease.job_id,
                worker=lease.worker,
                token=lease.token,
            )

    # -- primitives -----------------------------------------------------
    def _allocate_token(self, job_id: str) -> int:
        """Claim the next fencing token: lowest free integer wins.

        Tokens are files in an append-only directory, so the maximum
        present is a floor no later allocation can dip under; gaps
        (tokens allocated by acquisition races that then lost the
        ``link``) are harmless.
        """
        tokens = self._tokens_dir(job_id)
        tokens.mkdir(parents=True, exist_ok=True)
        n = 1 + max(
            (int(p.name) for p in tokens.iterdir() if p.name.isdigit()),
            default=0,
        )
        while True:
            try:
                fd = os.open(
                    tokens / str(n), os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                n += 1
                continue
            os.close(fd)
            return n

    def _create(self, info: LeaseInfo) -> bool:
        """Atomically create the lease file; False when someone beat us."""
        path = self._lease_path(info.job_id)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            tmp.write_text(self._encode(info), encoding="utf-8")
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def _write_replace(self, info: LeaseInfo) -> None:
        """Atomically replace the lease file (renewal by the holder)."""
        atomic_write(self._lease_path(info.job_id), self._encode(info))

    @staticmethod
    def _encode(info: LeaseInfo) -> str:
        return json.dumps(
            {
                "job_id": info.job_id,
                "worker": info.worker,
                "token": info.token,
                "host": info.host,
                "pid": info.pid,
                "acquired": info.acquired,
                "expires": info.expires,
            },
            sort_keys=True,
        )
