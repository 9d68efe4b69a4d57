"""The run store: durable, versioned home of every expensive artifact.

DAC's pipeline costs hours of (simulated) cluster time before the GA
ever runs; the store makes each expensive intermediate — training sets,
fitted :class:`~repro.models.hierarchical.HierarchicalModel`\\ s, GA
populations, :class:`~repro.core.tuner.TuningReport`\\ s — a durable,
content-addressed object that survives crashes and is shared across
sessions and jobs.  An entry's kind fixes its format: training sets and
models are columnar blobs (:mod:`repro.io.codecs`), GA states and
reports are pickles, and :data:`KIND_SCHEMAS` versions each kind.

On disk::

    <root>/
      meta.json            store identity + schema version
      index.jsonl          append-only key -> digest index (latest wins)
      objects/ab/<sha256>  content-addressed objects: each file is exactly
                           the payload whose SHA-256 names it
      jobs/<job_id>.json   job records: one JSON line per update of a
                           running job (latest last), rewritten whole
                           as one line at submit and in a final state
      events/<id>.jsonl    telemetry event logs, one per job, worker and
                           API server (append across sessions, readable
                           by ``repro trace``)
      cache/               the engine's on-disk result cache
      leases/              per-job worker leases + fencing-token ledger
                           (:mod:`repro.service.lease`)

Crash safety is layered: objects are written via tmp-file + atomic
rename (:mod:`repro.store.artifacts`) and checked on read against the
digest in their index entry; the index is append-only JSONL whose torn
tail lines are skipped on read; a job record's updates are appended
lines whose torn tail is skipped the same way, and its first and
final versions are whole-file atomic replaces.  A reader therefore
always sees either a complete prior version of anything or nothing —
never a torn object.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, TypeVar, Union,
)

from repro.store.artifacts import (
    atomic_write,
    canonical_digest,
    exact,
    payload_digest,
)
from repro.store.blobfmt import BlobError, decode_sections, map_sections

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.collecting import TrainingSet
    from repro.core.ga import GaState
    from repro.core.tuner import TuningReport
    from repro.models.hierarchical import HierarchicalModel

T = TypeVar("T")

#: Store-level layout version (bumped only on incompatible layout change).
#: 2: object files are bare payloads (1 prefixed a JSON header line).
STORE_SCHEMA = 2

#: Payload schema per artifact kind, the one version of its format;
#: bumping one invalidates only that kind's stored entries (they read
#: back as absent and are rewritten).
KIND_SCHEMAS = {
    "training_set": 1,
    # 2: flat node tables with self-looping leaves and a stored depth.
    # 3: float thresholds (each split's bin edge) and no bin edges.
    "model": 3,
    "ga_state": 1,
    "report": 1,
    "bytes": 1,
}

#: Job states whose record is rewritten whole, as one line (the state
#: names of :mod:`repro.service.jobs`); any other update is appended.
TERMINAL_STATES = ("done", "failed", "cancelled")


class StoreError(Exception):
    """The store directory is unusable (wrong schema, not a store)."""


class RunStore:
    """A crash-safe experiment store rooted at one directory."""

    def __init__(
        self,
        root: Union[str, Path],
        create: bool = True,
        fsync: bool = False,
    ):
        self.root = Path(root)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._index: Optional[Dict[str, Dict[str, object]]] = None

        meta_path = self.root / "meta.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(f"{self.root}: unreadable meta.json") from exc
            if meta.get("store_schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{self.root}: store schema {meta.get('store_schema')!r} "
                    f"!= {STORE_SCHEMA}"
                )
        elif create:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(
                meta_path,
                json.dumps(
                    {"store_schema": STORE_SCHEMA, "created": time.time()},
                    sort_keys=True,
                ).encode("utf-8"),
                fsync=self.fsync,
            )
        else:
            raise StoreError(f"{self.root}: not a run store")
        for sub in ("objects", "jobs", "events", "cache", "leases", "health"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    @property
    def cache_dir(self) -> Path:
        """Directory for the engine's :class:`CachedBackend` disk cache."""
        return self.root / "cache"

    @property
    def lease_dir(self) -> Path:
        """Directory for per-job worker leases (:mod:`repro.service.lease`)."""
        return self.root / "leases"

    @property
    def health_dir(self) -> Path:
        """Directory for per-worker heartbeat files (:mod:`repro.service.health`)."""
        return self.root / "health"

    @property
    def events_dir(self) -> Path:
        """Directory for JSONL telemetry event logs (``repro top`` tails it)."""
        return self.root / "events"

    def event_log_path(self, name: str) -> Path:
        """The event log ``name`` — a job id, ``worker-<id>`` or an API
        server id — appended to across sessions."""
        return self.events_dir / f"{name}.jsonl"

    def _object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    def _index_path(self) -> Path:
        return self.root / "index.jsonl"

    # -- the index ------------------------------------------------------
    def _load_index(self) -> Dict[str, Dict[str, object]]:
        if self._index is None:
            index: Dict[str, Dict[str, object]] = {}
            path = self._index_path()
            if path.exists():
                with path.open("r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            entry = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn tail line: skip
                        if isinstance(entry, dict) and "key" in entry:
                            index[str(entry["key"])] = entry
            self._index = index
        return self._index

    def refresh(self) -> None:
        """Drop cached index/job state so the next read hits disk.

        Call after another process may have written to the store (the
        resume path does).
        """
        with self._lock:
            self._index = None

    def entry(self, key: str) -> Optional[Dict[str, object]]:
        """The latest index entry for ``key`` (no blob verification)."""
        with self._lock:
            return self._load_index().get(key)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._load_index())

    # -- artifact put/get -----------------------------------------------
    def put_bytes(self, key: str, payload: bytes, kind: str = "bytes") -> str:
        """Store ``payload`` under ``key``; returns its content digest.

        The blob lands first (atomic rename), the index line second —
        a crash between the two leaves an unreferenced blob, never a
        dangling reference.
        """
        schema = KIND_SCHEMAS[kind]
        digest = payload_digest(payload)
        blob_path = self._object_path(digest)
        if not blob_path.exists():
            blob_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(blob_path, payload, fsync=self.fsync)
        entry = {
            "key": key,
            "kind": kind,
            "schema": schema,
            "digest": digest,
            "ts": time.time(),
        }
        line = json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
        with self._lock:
            with self._index_path().open("a+b") as handle:
                # A writer killed mid-append leaves a tail with no
                # newline: start a line of our own, or both are lost.
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            self._load_index()[key] = entry
        return digest

    def _current_entry(self, key: str, kind: str) -> Optional[Dict[str, object]]:
        """``key``'s index entry if it is a ``kind`` at today's schema."""
        entry = self.entry(key)
        if entry is None or entry.get("kind") != kind:
            return None
        if entry.get("schema") != KIND_SCHEMAS[kind]:
            return None
        return entry

    def _read_verified(self, entry: Dict[str, object]) -> Optional[bytes]:
        """The entry's object bytes, if they hash to its digest."""
        digest = str(entry["digest"])
        try:
            payload = self._object_path(digest).read_bytes()
        except OSError:
            return None
        return payload if payload_digest(payload) == digest else None

    def get_bytes(self, key: str, kind: str = "bytes") -> Optional[bytes]:
        """The latest intact payload for ``key``, or ``None``.

        ``None`` covers every defect uniformly: unknown key, kind or
        schema mismatch (stale format), missing, torn or corrupt object
        file — a partially-written object is treated as absent.
        """
        entry = self._current_entry(key, kind)
        return None if entry is None else self._read_verified(entry)

    # -- typed artifacts ------------------------------------------------
    def put_object(self, key: str, obj: object, kind: str) -> str:
        """Store a pickled object: the one format of GA states and reports."""
        return self.put_bytes(
            key, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), kind=kind
        )

    def get_object(self, key: str, kind: str) -> Optional[object]:
        payload = self.get_bytes(key, kind=kind)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # corrupt-but-digest-valid should be impossible;
            return None    # treat defensively as absent all the same

    def _read_blob(
        self, key: str, kind: str, mode: str, rebuild: Callable[..., T]
    ) -> Optional[T]:
        """``rebuild(header, sections)`` of ``key``'s blob, or ``None``.

        ``mode="copy"`` reads the payload, checks it against the entry's
        digest, then decodes; ``mode="mmap"`` maps the object file, so
        the object comes back as read-only memmap views sharing the
        page cache across processes, and checks the blob framing
        (magic, version, every section inside the file), which catches
        truncation.  Any defect — digest mismatch, bad framing, a
        payload that is not a blob (a pickle, CSV text), sections that
        do not rebuild — reads as ``None``, the store's uniform
        "absent" answer.
        """
        entry = self._current_entry(key, kind)
        if entry is None:
            return None
        if mode == "mmap":
            try:
                header, sections = map_sections(
                    self._object_path(str(entry["digest"]))
                )
                return rebuild(header, sections)
            except (BlobError, OSError, ValueError, KeyError):
                return None
        payload = self._read_verified(entry)
        if payload is None:
            return None
        try:
            return rebuild(*decode_sections(payload, verify=False))
        except Exception:  # undecodable-but-digest-valid: treat as absent
            return None

    def put_training_set(self, key: str, training_set: "TrainingSet") -> str:
        """Store a training set as a columnar blob."""
        from repro.io import codecs

        payload = codecs.encode_training_set(training_set)
        return self.put_bytes(key, payload, kind="training_set")

    def get_training_set(
        self, key: str, space=None, mode: str = "copy"
    ) -> Optional["TrainingSet"]:
        """The stored training set, or ``None``.

        ``mode="mmap"`` returns a column-backed set whose arrays are
        read-only views over the object file.  An entry that holds no
        blob over ``space``'s parameters reads as ``None``.
        """
        from repro.io import codecs

        def rebuild(header, sections):
            return codecs.training_set_from_sections(header, sections, space)

        return self._read_blob(key, "training_set", mode, rebuild)

    def put_model(self, key: str, model: "HierarchicalModel") -> str:
        """Store a model as a columnar blob.

        Raises ``ValueError``, and writes nothing, for a model that does
        not lower to blob sections (an unfitted one).
        """
        from repro.io import codecs

        return self.put_bytes(key, codecs.encode_model(model), kind="model")

    def get_model(
        self, key: str, mode: str = "copy"
    ) -> Optional["HierarchicalModel"]:
        """The stored model, or ``None``.

        ``mode="mmap"`` maps the node tables and stacking weights
        read-only from the object file — loading touches no array data, and N
        processes share one page-cache copy.  Predictions are
        bit-for-bit identical on every path.
        """
        from repro.io import codecs

        return self._read_blob(key, "model", mode, codecs.model_from_sections)

    def put_ga_state(self, key: str, state: "GaState") -> str:
        return self.put_object(key, state, kind="ga_state")

    def get_ga_state(self, key: str) -> Optional["GaState"]:
        return self.get_object(key, kind="ga_state")  # type: ignore[return-value]

    def put_report(self, key: str, report: "TuningReport") -> str:
        return self.put_object(key, report, kind="report")

    def get_report(self, key: str) -> Optional["TuningReport"]:
        return self.get_object(key, kind="report")  # type: ignore[return-value]

    # -- job records ----------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    def save_job(self, job_id: str, record: Dict[str, object]) -> None:
        """Persist a job record.

        An update of a job that is not finished appends one line to its
        existing file: the runner saves at every checkpoint, and
        appending to a file costs a small fraction of creating one.
        The first save, a final state (:data:`TERMINAL_STATES`) and a
        file that has gone missing replace the whole file atomically,
        so a finished job's record is one line.  ``json.dumps`` never
        emits a raw newline, and the leading one keeps a torn tail
        left by a killed writer on a line of its own.
        """
        path = self._job_path(job_id)
        line = json.dumps(record, sort_keys=True, default=str).encode("utf-8")
        if record.get("state") not in TERMINAL_STATES and self._append(
            path, b"\n" + line
        ):
            return
        atomic_write(path, line, fsync=self.fsync)

    def _append(self, path: Path, data: bytes) -> bool:
        """Append all of ``data`` to the file at ``path`` (or raise
        ``OSError``); ``False``, writing nothing, when there is none."""
        try:
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            return False
        try:
            view = memoryview(data)
            while view:  # a short write leaves the rest to append
                view = view[os.write(fd, view):]
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def load_job(self, job_id: str) -> Optional[Dict[str, object]]:
        """The job's latest complete record, or ``None``.

        That is the last line that parses as a JSON object; a torn tail
        line is skipped, as in the index.
        """
        try:
            data = self._job_path(job_id).read_bytes()
        except OSError:
            return None
        for line in reversed(data.split(b"\n")):
            try:
                record = json.loads(line)
            except ValueError:  # torn line (undecodable bytes included)
                continue
            if isinstance(record, dict):
                return record
        return None

    def list_jobs(self) -> List[Dict[str, object]]:
        """Every readable job record, oldest first."""
        records = []
        for path in sorted((self.root / "jobs").glob("*.json")):
            record = self.load_job(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.get("created", 0), str(r.get("job_id", ""))))
        return records

    # -- garbage collection ---------------------------------------------
    def gc(
        self,
        apply: bool = False,
        min_age_seconds: float = 3600.0,
        _now: Optional[float] = None,
    ) -> Dict[str, object]:
        """Sweep object blobs no index entry references any more.

        The index is append-only and latest-wins, so superseded
        versions of a key (every collect batch's training set but the
        last, a model refitted after its entry read as absent, a GA
        state a later drain replaced) accumulate as unreferenced blobs.  Job records point
        at artifacts only *through* index keys, so the latest index
        digests are exactly the live set.

        Dry-run by default: returns a report of what would go without
        touching anything; ``apply=True`` deletes.  Blobs younger than
        ``min_age_seconds`` are kept regardless — a concurrent writer
        puts the blob *before* the index line, and the age floor keeps
        the sweep from racing that window.  Stale ``.*.tmp`` litter
        from crashed writers is swept by the same rule.
        """
        now = time.time() if _now is None else _now
        with self._lock:
            self._index = None
            live = {
                str(entry.get("digest")) for entry in self._load_index().values()
            }
        report: Dict[str, object] = {
            "live": 0,
            "swept": [],
            "skipped_young": 0,
            "tmp_swept": 0,
            "reclaimed_bytes": 0,
            "applied": bool(apply),
        }
        for path in sorted((self.root / "objects").glob("*/*")):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with another sweeper
            young = now - stat.st_mtime < min_age_seconds
            if path.name.startswith("."):
                if young:
                    report["skipped_young"] += 1
                    continue
                report["tmp_swept"] += 1
                report["reclaimed_bytes"] += stat.st_size
                if apply:
                    path.unlink(missing_ok=True)
                continue
            if path.name in live:
                report["live"] += 1
                continue
            if young:
                report["skipped_young"] += 1
                continue
            report["swept"].append({"digest": path.name, "bytes": stat.st_size})
            report["reclaimed_bytes"] += stat.st_size
            if apply:
                path.unlink(missing_ok=True)
        return report


def report_fingerprint(report: "TuningReport") -> str:
    """Digest of a report's *semantic* content.

    Covers everything the tuner decided — program, target size, chosen
    configuration, predicted time, full GA convergence history, model
    holdout error, simulated collection cost — and excludes wall-clock
    timings and engine accounting, which legitimately differ between an
    uninterrupted run and a checkpoint-resumed one.  Two runs with equal
    fingerprints made identical decisions.
    """
    config = report.configuration
    doc = {
        "program": report.program,
        "datasize": exact(report.datasize),
        "configuration": {name: exact(config[name]) for name in config},
        "predicted_seconds": exact(report.predicted_seconds),
        "ga_history": [exact(v) for v in report.ga.history],
        "ga_generations": report.ga.generations,
        "model_holdout_error": exact(report.model_holdout_error),
        "collecting_simulated_hours": exact(report.collecting_simulated_hours),
    }
    return canonical_digest(doc)
