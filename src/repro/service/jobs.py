"""Job records: what a tuning request is and where it stands.

A job is one run of the DAC pipeline (or its collect-only prefix)
decomposed into checkpointable phases.  The record is plain data — it
round-trips through JSON into the store's ``jobs/`` directory — so any
process can read where a job stands and pick it up.

Lifecycle::

    queued -> running -> done
                |    \\-> failed      (error recorded; checkpoint kept,
                |                      resumable)
                \\-> cancelled

A SIGKILL'd job still reads ``running``; :meth:`JobRecord.resumable`
treats it like ``failed`` — the checkpoint decides where work restarts,
not the label the dying process never got to update.
"""

from __future__ import annotations

import math
import numbers
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.store.artifacts import canonical_digest, exact

#: Job states (plain strings so records stay JSON-native).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Phase order of a tune job; a collect job stops after "collect".
PHASES = ("collect", "fit", "search", "report")


#: The type ``TuneRequest.__post_init__`` normalizes each field to;
#: the fields in ``_OPTIONAL`` may also be None.
_FIELD_TYPES = {
    "program": str, "size": float, "kind": str, "n_train": int,
    "n_trees": int, "learning_rate": float, "generations": int,
    "population_size": int, "patience": int, "seed": int,
    "warm_from": str, "budget": int,
}
_OPTIONAL = ("patience", "warm_from", "budget")


def _normalized(name: str, value: object, kind: type) -> object:
    """``value`` as ``kind``: a bool or string where a number belongs, a
    non-finite number, or a fraction for an int field is refused."""
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    if kind is str or isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be {kind.__name__}, not {type(value).__name__}")
    try:
        converted = kind(value)
    except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
        converted = None
    if converted is None or converted != value or not (
        kind is int or math.isfinite(converted)
    ):
        raise ValueError(f"{name} must be a finite {kind.__name__}, got {value!r}")
    return converted


@dataclass(frozen=True)
class TuneRequest:
    """Everything needed to (re)run one job deterministically."""

    program: str
    size: float = 0.0
    kind: str = "tune"  # "tune" | "collect"
    n_train: int = 600
    n_trees: int = 250
    learning_rate: float = 0.1
    generations: int = 100
    population_size: int = 60
    patience: Optional[int] = 25
    seed: int = 0
    #: Reuse a prior job's stored training set (and model when the
    #: modeling parameters match) instead of re-collecting.
    warm_from: Optional[str] = None
    #: Max substrate executions this job may perform per session
    #: (None = unlimited); exceeding it fails the job, checkpoint kept.
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        # Normalize where the request is built, so int/float twins
        # (JSON ``10`` and ``10.0``) share one fingerprint and malformed
        # values fail at admission, not later inside a worker.
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is not None or name not in _OPTIONAL:
                normalized = _normalized(name, value, kind)
                if normalized is not value:
                    object.__setattr__(self, name, normalized)
        if self.kind not in ("tune", "collect"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "tune" and self.size <= 0:
            raise ValueError("tune jobs need a positive target size")
        if self.n_train < 1:
            raise ValueError("n_train must be positive")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be positive when given")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneRequest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})

    def model_params_match(self, other: "TuneRequest") -> bool:
        """True when a model fitted for ``other`` is this request's model."""
        return (
            self.program == other.program
            and self.n_train == other.n_train
            and self.n_trees == other.n_trees
            and self.learning_rate == other.learning_rate
            and self.seed == other.seed
        )


def request_fingerprint(request: TuneRequest) -> str:
    """Digest identifying one request's *content* (the dedup key).

    The whole pipeline downstream of a request is deterministic in the
    request's fields (seeded collection, seeded GA, fencing-guarded
    checkpoints), so two requests with equal fingerprints produce
    reports with equal :func:`~repro.store.report_fingerprint`\\ s —
    which is what lets the API collapse N identical submissions into
    one stored job and still hand every caller the result it asked
    for.  Every field participates, including ``budget`` and
    ``warm_from``: "identical" means identical, not "probably the same
    answer".  Priority is *not* a request field — the first
    submission's priority wins for the shared job.
    """
    return canonical_digest({k: exact(v) for k, v in request.to_dict().items()})


@dataclass
class JobRecord:
    """The durable state of one job (JSON round-trip)."""

    job_id: str
    request: TuneRequest
    state: str = QUEUED
    phase: str = "collect"
    #: Per-phase progress, updated at every checkpoint; e.g.
    #: ``{"collect": {"batches_done": 3, "total_batches": 10, "done": false}}``.
    progress: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    #: How many times a runner picked this job up (1 = never interrupted).
    sessions: int = 0
    #: Substrate executions per session, e.g. ``{"1": 60, "2": 12}`` —
    #: the resume-efficiency evidence (session 2 < starting over).
    runs_by_session: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Summary of the finished run (predicted seconds, fingerprint, ...).
    result: Optional[Dict[str, Any]] = None
    #: Cumulative wall seconds spent writing checkpoints + this record —
    #: the store's overhead, bounded by ``benchmarks/bench_store.py``.
    checkpoint_wall_seconds: float = 0.0
    #: Fencing token of the last lease-holding writer (0 = never run
    #: under a lease).  A worker whose lease carries a *smaller* token
    #: than this refuses to commit — its job was taken over while it
    #: was paused (:mod:`repro.service.lease`).
    fencing_token: int = 0
    #: Worker id of the last process to run this job (audit trail).
    worker: Optional[str] = None

    @classmethod
    def new(cls, request: TuneRequest, priority: int = 0) -> "JobRecord":
        job_id = f"{request.program.lower()}-{uuid.uuid4().hex[:8]}"
        return cls(job_id=job_id, request=request, priority=priority)

    # -- state sugar ----------------------------------------------------
    @property
    def resumable(self) -> bool:
        """Queued, failed, or found mid-run (crashed process) — runnable."""
        return self.state in (QUEUED, RUNNING, FAILED)

    @property
    def active(self) -> bool:
        return self.state in (QUEUED, RUNNING)

    def touch(self) -> None:
        self.updated = time.time()

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["request"] = self.request.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        request = TuneRequest.from_dict(dict(data.get("request", {})))
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        fields = {k: v for k, v in data.items() if k in known and k != "request"}
        return cls(request=request, **fields)

    # -- artifact keys --------------------------------------------------
    def artifact_key(self, name: str) -> str:
        """Store key of one of this job's artifacts (training/model/ga/report)."""
        return f"jobs/{self.job_id}/{name}"

    def summary_row(self) -> List[str]:
        """Columns for ``repro jobs list``."""
        request = self.request
        target = (
            f"{request.size:g}" if request.kind == "tune" else f"x{request.n_train}"
        )
        done = self.progress.get(self.phase, {})
        detail = ""
        if self.state == DONE and self.result:
            detail = f"predicted {self.result.get('predicted_seconds', 0):.0f}s"
        elif self.phase == "collect" and done:
            detail = f"{done.get('batches_done', 0)}/{done.get('total_batches', '?')} batches"
        elif self.phase == "search" and done:
            detail = f"gen {done.get('generation', 0)}"
        elif self.error:
            detail = self.error[:40]
        return [
            self.job_id,
            request.kind,
            request.program,
            target,
            self.state,
            self.phase,
            detail,
        ]


def parse_job(data: Optional[Dict[str, Any]]) -> Optional[JobRecord]:
    """A stored job record, or None when it is absent or unreadable —
    one bad file must never take a listing, or the service, down."""
    if data is None:
        return None
    try:
        return JobRecord.from_dict(data)
    except (TypeError, ValueError):
        return None


def read_jobs(store) -> List[JobRecord]:
    """Every readable job record in ``store``, in listing order."""
    records = (parse_job(data) for data in store.list_jobs())
    return [record for record in records if record is not None]
