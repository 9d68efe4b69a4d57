"""The span/event API: structured, monotonically-timestamped records.

``event("stage.completed", stage="sort", seconds=3.1)`` appends one
record; ``with span("ga.generation", gen=3): ...`` appends a record with
a duration and a parent/child identity, nested via a ``contextvars``
stack so concurrent contexts cannot corrupt each other.  Records are
plain dicts flowing to every attached sink
(:mod:`repro.telemetry.sinks`) — the reproduction's analogue of Spark's
event log.

Record shapes (all timestamps are seconds on one process-local
monotonic clock, relative to the session's epoch)::

    {"kind": "meta",  "version": 1, "wall_start": ..., "pid": ...}
    {"kind": "event", "name": ..., "ts": ..., "parent": ..., "fields": {...}}
    {"kind": "span",  "name": ..., "ts": ..., "dur": ..., "id": ...,
     "parent": ..., "fields": {...}}

Span records are emitted at *exit*, so children precede their parents in
the log; readers reconstruct the tree from ``id``/``parent``
(:func:`repro.telemetry.trace.read_event_log` does).

The module-level :func:`event`/:func:`span` helpers are the hot-path
entry points: when no :class:`Telemetry` pipeline is installed they are
a single global load and ``None`` check, which is what keeps fully
instrumented code essentially free to run with telemetry off.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Telemetry",
    "enabled",
    "event",
    "install",
    "span",
]

#: Span id meaning "no enclosing span".
ROOT = 0


class Telemetry:
    """One telemetry session: a clock, a span stack, and sinks."""

    def __init__(self, sinks: Sequence[object] = ()):
        self._sinks = list(sinks)
        self._epoch = time.monotonic()
        self.wall_start = time.time()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "repro_telemetry_span", default=ROOT
        )
        #: Set by :func:`repro.telemetry.enable` when a ring sink is
        #: attached; :attr:`records` reads it back.
        self.ring = None
        self.emit(
            {
                "kind": "meta",
                "version": 1,
                "wall_start": self.wall_start,
                "pid": os.getpid(),
            }
        )

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this session's epoch (monotonic)."""
        return time.monotonic() - self._epoch

    def emit(self, record: Dict[str, object]) -> None:
        for sink in self._sinks:
            sink.write(record)

    def event(self, name: str, **fields: object) -> None:
        self.emit(
            {
                "kind": "event",
                "name": name,
                "ts": round(self.now(), 9),
                "parent": self._current.get(),
                "fields": fields,
            }
        )

    def span(self, name: str, **fields: object) -> "Span":
        return Span(self, name, fields)

    @property
    def records(self) -> List[Dict[str, object]]:
        """Records retained by the ring sink ([] when none attached)."""
        return self.ring.records if self.ring is not None else []

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class Span:
    """Context manager measuring one named, nested duration."""

    __slots__ = ("_telemetry", "name", "fields", "id", "_token", "_start")

    def __init__(self, telemetry: Telemetry, name: str, fields: Dict[str, object]):
        self._telemetry = telemetry
        self.name = name
        self.fields = fields
        self.id = ROOT

    def __enter__(self) -> "Span":
        tel = self._telemetry
        self.id = next(tel._ids)
        self._token = tel._current.set(self.id)
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tel = self._telemetry
        end = time.monotonic()
        tel._current.reset(self._token)
        if exc_type is not None:
            self.fields.setdefault("error", exc_type.__name__)
        tel.emit(
            {
                "kind": "span",
                "name": self.name,
                "ts": round(self._start - tel._epoch, 9),
                "dur": round(end - self._start, 9),
                "id": self.id,
                "parent": tel._current.get(),
                "fields": self.fields,
            }
        )
        return False

    def note(self, **fields: object) -> None:
        """Attach fields discovered while the span is open."""
        self.fields.update(fields)


class _NullSpan:
    """Shared span stand-in for the disabled path."""

    __slots__ = ()
    name = ""
    fields: Dict[str, object] = {}
    id = ROOT

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def note(self, **fields: object) -> None:
        pass


_NULL_SPAN = _NullSpan()

# ----------------------------------------------------------------------
# The process-global pipeline (None == telemetry off).
# ----------------------------------------------------------------------
_ACTIVE: Optional[Telemetry] = None


def install(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install (or, with ``None``, remove) the global pipeline; returns
    the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    return previous


def enabled() -> bool:
    """True when a telemetry pipeline is installed.

    Instrumentation that must *compute* something to build its record
    (means, sums) guards on this so the disabled path does no work.
    """
    return _ACTIVE is not None


def event(name: str, **fields: object) -> None:
    """Record one structured event (no-op when telemetry is off)."""
    tel = _ACTIVE
    if tel is not None:
        tel.event(name, **fields)


def span(name: str, **fields: object):
    """Open a span (a shared no-op context manager when telemetry is off)."""
    tel = _ACTIVE
    if tel is None:
        return _NULL_SPAN
    return Span(tel, name, fields)
