"""Telemetry sinks: where event records go.

A sink is anything with ``write(record: dict)`` and ``close()``.  Two
ship here: an in-memory ring buffer (always attached by
:func:`repro.telemetry.enable`, feeds the Chrome-trace exporter) and a
JSONL event-log writer — one JSON object per line, the same shape
:func:`repro.telemetry.trace.read_event_log` parses back.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Dict, List, Union


def _json_default(value: object) -> object:
    """Serialize numpy scalars (``.item()``) and everything else by str."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:
            pass
    return str(value)


class RingBufferSink:
    """Keeps the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.total_written = 0

    def write(self, record: Dict[str, object]) -> None:
        self._buffer.append(record)
        self.total_written += 1

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._buffer)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends records to a JSONL event log (Spark's event-log analogue).

    ``append`` continues an existing log instead of truncating it — a
    resumed job's sessions share one event file.  ``live`` flushes after
    every record so ``repro trace --follow`` (and a crash's post-mortem)
    sees each line the moment it is written.
    """

    def __init__(
        self, path: Union[str, Path], append: bool = False, live: bool = False
    ):
        self.path = Path(path)
        self.live = live
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a" if append else "w", encoding="utf-8")

    def write(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            return
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=_json_default)
        )
        self._handle.write("\n")
        if self.live:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
