"""Cross-log aggregation: N per-worker/per-job event logs, one stream.

A fleet writes many JSONL event logs into one store — ``events/
worker-<id>.jsonl`` per worker plus ``events/<job_id>.jsonl`` per job —
each on its own process-local monotonic clock.  This module tails each
log (``repro trace`` reads through the same cursor) and merges them into
a single wall-clock-ordered stream, which the dashboard
(:mod:`repro.telemetry.dashboard`) folds into its panels:

* :class:`LogCursor` — incremental tailer over one JSONL log: byte-
  offset resume, torn-tail tolerance (a line still being written is
  held back until its newline lands), and truncation/rotation detection
  (file shrank or inode changed → reopen from the start);
* :class:`LogAggregator` — discovers logs in a directory, polls every
  cursor and orders the batch by wall time.  Each log has one writer
  (a job's records go only to its own log), so every record is counted
  once.

Everything is tolerant by construction: unreadable lines, torn tails,
out-of-order timestamps across logs, and empty or absent logs all merge
without raising — an observer must never take the fleet down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "LogAggregator",
    "LogCursor",
    "TaggedRecord",
    "labels_for_log",
]

#: Files in a store's ``events/`` directory that the aggregator tails.
LOG_PATTERN = "*.jsonl"


@dataclass(frozen=True)
class TaggedRecord:
    """One event-log record placed on the fleet's shared wall clock."""

    #: Absolute wall-clock seconds (session ``wall_start`` + record ts).
    wall: float
    #: Where the record came from: ``{"worker": ...}`` or ``{"job": ...}``.
    labels: Mapping[str, str]
    #: The raw record dict as written by the sink.
    record: Mapping[str, object]
    #: The session of its log that wrote it: the number of ``meta``
    #: records before it.  Span ids and ``ts`` restart in each session.
    session: int = 0

    @property
    def name(self) -> str:
        return str(self.record.get("name", ""))

    @property
    def kind(self) -> str:
        return str(self.record.get("kind", ""))

    @property
    def fields(self) -> Mapping[str, object]:
        fields = self.record.get("fields")
        return fields if isinstance(fields, Mapping) else {}


def labels_for_log(path: Union[str, Path]) -> Dict[str, str]:
    """Labels derived from an event-log file name.

    ``worker-<id>.jsonl`` carries a ``worker`` label; anything else in a
    store's ``events/`` directory is a per-job log and carries ``job``.
    """
    stem = Path(path).stem
    if stem.startswith("worker-"):
        return {"worker": stem[len("worker-"):]}
    return {"job": stem}


class LogCursor:
    """Incrementally read complete records from one JSONL event log.

    Each :meth:`poll` returns the records appended since the previous
    poll.  The cursor is byte-offset based and survives every way a
    live log can misbehave:

    * **absent file** — polls return nothing until it appears;
    * **torn tail** — a final line with no newline (a writer mid-
      ``write``, or a SIGKILL mid-record) is left in the file until a
      later poll finds its newline; a torn line that never completes
      (crash) is skipped when the next complete line lands after it;
    * **truncation / rotation** — when the file shrank below our offset
      or its inode changed, the cursor reopens from byte 0 (the
      replacement file is a new log, not a continuation);
    * **unreadable lines** — non-JSON, non-dict, or undecodable lines
      are dropped, never raised.

    Session ``meta`` records update the wall-clock epoch and the
    session count, so one file holding several appended sessions (a
    resumed job) maps each session's monotonic timestamps onto its own
    ``wall_start`` and tags each record with its session.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.labels = labels_for_log(path)
        self._offset = 0
        self._inode: Optional[int] = None
        #: Wall-clock epoch of the current session (None before any meta).
        self._wall_start: Optional[float] = None
        self._session = 0
        self._carry = b""

    def poll(self) -> List[TaggedRecord]:
        """Records appended since the last poll (possibly empty)."""
        try:
            stat = self.path.stat()
        except OSError:
            # Gone (or not yet created): a recreated file is a new log.
            self._reset()
            return []
        if self._inode is not None and (
            stat.st_ino != self._inode or stat.st_size < self._offset
        ):
            self._reset()  # rotated or truncated: start over
        self._inode = stat.st_ino
        if stat.st_size <= self._offset:
            return []
        try:
            with self.path.open("rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return []
        self._offset += len(chunk)
        data = self._carry + chunk
        # Hold back the torn tail (bytes after the last newline).
        complete, sep, tail = data.rpartition(b"\n")
        if not sep:
            self._carry = data
            return []
        self._carry = tail
        out: List[TaggedRecord] = []
        for line in complete.split(b"\n"):
            record = self._parse(line)
            if record is None:
                continue
            if record.get("kind") == "meta":
                self._session += 1
                try:
                    self._wall_start = float(record["wall_start"])  # type: ignore[arg-type]
                except (KeyError, TypeError, ValueError):
                    pass
                continue
            out.append(
                TaggedRecord(
                    wall=self._wall(record),
                    labels=self.labels,
                    record=record,
                    session=self._session,
                )
            )
        return out

    def _wall(self, record: Mapping[str, object]) -> float:
        try:
            ts = float(record.get("ts", 0.0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            ts = 0.0
        if self._wall_start is None:
            return ts
        return self._wall_start + ts

    @staticmethod
    def _parse(line: bytes) -> Optional[Dict[str, object]]:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def _reset(self) -> None:
        self._offset = 0
        self._inode = None
        self._wall_start = None
        self._session = 0
        self._carry = b""


class LogAggregator:
    """Merge every event log in a directory into one ordered stream.

    Logs are discovered on every poll (a job that starts mid-watch is
    picked up), tailed incrementally, and the batch is sorted by wall
    time.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._cursors: Dict[Path, LogCursor] = {}

    @property
    def logs(self) -> List[Path]:
        """The log files currently being tailed."""
        return sorted(self._cursors)

    def _discover(self) -> None:
        try:
            found = sorted(self.directory.glob(LOG_PATTERN))
        except OSError:
            return
        for path in found:
            if path not in self._cursors:
                self._cursors[path] = LogCursor(path)

    def poll(self) -> List[TaggedRecord]:
        """All newly appended records across every log, ordered by wall."""
        self._discover()
        batch: List[TaggedRecord] = []
        for cursor in self._cursors.values():
            batch.extend(cursor.poll())
        batch.sort(key=lambda tagged: tagged.wall)
        return batch

