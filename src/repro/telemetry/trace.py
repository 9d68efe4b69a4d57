"""Event-log reading, text timelines, and Chrome-trace export.

:func:`read_event_log` parses a JSONL event log written by
:class:`~repro.telemetry.sinks.JsonlSink` back into an
:class:`EventLog` with each session's span tree reconstructed;
:func:`render_trace_report` turns it into the text timeline and summary
tables behind ``repro trace``; :func:`write_chrome_trace` exports any
record sequence as a ``chrome://tracing`` / Perfetto-loadable JSON file
(spans become ``"ph": "X"`` complete events, point events become
instants).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.telemetry.aggregate import LogCursor, TaggedRecord
from repro.telemetry.events import ROOT

__all__ = [
    "EventLog",
    "follow_events",
    "format_record",
    "read_event_log",
    "render_timeline",
    "render_trace_report",
    "write_chrome_trace",
]


@dataclass(frozen=True)
class EventLog:
    """A parsed telemetry event log.

    A log may hold several sessions (a resumed job appends one per
    run), each with its own span ids and ``ts`` clock, so every record
    is kept as a :class:`TaggedRecord`: placed on the wall clock and
    tagged with its session.
    """

    path: Path
    tagged: Tuple[TaggedRecord, ...]

    @property
    def records(self) -> List[Dict[str, object]]:
        return [t.record for t in self.tagged]  # type: ignore[misc]

    @property
    def spans(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("kind") == "span"]

    @property
    def events(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("kind") == "event"]

    @property
    def duration(self) -> float:
        """Wall-clock seconds from the first to the last recorded instant."""
        points: List[float] = []
        for t in self.tagged:
            points.append(t.wall)
            if t.kind == "span":
                points.append(t.wall + _dur(t))
        return max(points) - min(points) if points else 0.0

    def children_of(
        self, span: Optional[TaggedRecord] = None
    ) -> List[TaggedRecord]:
        """Child spans of ``span`` in its own session, by wall-clock
        start; without ``span``, the top-level spans of every session."""
        parent = ROOT if span is None else span.record.get("id", ROOT)
        kids = [
            t for t in self.tagged
            if t.kind == "span"
            and t.record.get("parent", ROOT) == parent
            and (span is None or t.session == span.session)
        ]
        return sorted(kids, key=lambda t: t.wall)


def read_event_log(path: Union[str, Path]) -> EventLog:
    """Parse a whole JSONL event log through :class:`LogCursor`.

    The tailer behind ``repro top`` and ``--follow`` does the parsing,
    so every reader treats a log alike: unreadable lines (non-JSON,
    non-dict or undecodable) are skipped, a final line without its
    newline (a record still being written) is left out, and session
    ``meta`` records are consumed, not returned: they place each
    session's records on the wall clock.  A missing log raises
    :class:`FileNotFoundError`.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no event log at {path}")
    return EventLog(path=path, tagged=tuple(LogCursor(path).poll()))


def follow_events(
    path: Union[str, Path],
    poll_seconds: float = 0.25,
    idle_timeout: Optional[float] = None,
) -> Iterator[Dict[str, object]]:
    """Tail a JSONL event log, yielding each record as it lands.

    The ``repro trace --follow`` engine: a polling loop over
    :class:`~repro.telemetry.aggregate.LogCursor`, the tailer behind
    ``repro top``.  Existing records stream out first, then appended
    ones; the log may not exist yet (a job about to start), a torn tail
    line is held back until its newline arrives, and a log truncated or
    replaced mid-follow is reread from the start.  Session ``meta``
    records are consumed as wall-clock epochs, not yielded.  With
    ``idle_timeout``, iteration ends after that many seconds without a
    new record; without it, the caller stops by closing the generator.
    """
    cursor = LogCursor(path)
    idle = 0.0
    while True:
        records = cursor.poll()
        if records:
            idle = 0.0
            for tagged in records:
                yield tagged.record  # type: ignore[misc]
            continue
        if idle_timeout is not None and idle >= idle_timeout:
            return
        time.sleep(poll_seconds)
        idle += poll_seconds


def format_record(record: Dict[str, object]) -> Optional[str]:
    """One human-readable line per record (None for meta records)."""
    kind = record.get("kind")
    if kind not in ("event", "span"):
        return None
    ts = float(record.get("ts", 0.0))
    fields = record.get("fields", {})
    detail = " ".join(f"{k}={v}" for k, v in fields.items()) if fields else ""
    if kind == "span":
        dur = _fmt_seconds(float(record.get("dur", 0.0)))
        return f"{ts:>9.3f}s  span  {record.get('name', '?'):<20s} {dur:>8s}  {detail}"
    return f"{ts:>9.3f}s  event {record.get('name', '?'):<20s} {'':>8s}  {detail}"


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def write_chrome_trace(
    records: Iterable[Dict[str, object]],
    path: Union[str, Path],
) -> Path:
    """Write records as a Chrome/Perfetto trace; returns the path.

    Every record lands on one track (``pid`` and ``tid`` 1): a trace is
    one process's session.
    """
    trace_events: List[Dict[str, object]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            trace_events.append(
                {
                    "name": record.get("name", "?"),
                    "cat": "span",
                    "ph": "X",
                    "ts": float(record.get("ts", 0.0)) * 1e6,
                    "dur": float(record.get("dur", 0.0)) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": record.get("fields", {}),
                }
            )
        elif kind == "event":
            trace_events.append(
                {
                    "name": record.get("name", "?"),
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": float(record.get("ts", 0.0)) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": record.get("fields", {}),
                }
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": trace_events, "displayTimeUnit": "ms"},
            handle,
            default=str,
        )
    return path


# ----------------------------------------------------------------------
# Text rendering (the ``repro trace`` command)
# ----------------------------------------------------------------------
_BAR_WIDTH = 32


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    cells = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(cells[0], widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _dur(span: TaggedRecord) -> float:
    return float(span.record.get("dur", 0.0))  # type: ignore[arg-type]


def render_timeline(log: EventLog, limit: int = 40) -> str:
    """Indented span trees with offset bars over the log's wall-clock
    span; a resumed log's sessions follow one another."""
    spans = [t for t in log.tagged if t.kind == "span"]
    if not spans:
        return "(no spans recorded)"
    t0 = min(s.wall for s in spans)
    t1 = max(s.wall + _dur(s) for s in spans)
    total = max(t1 - t0, 1e-9)

    lines: List[str] = []
    truncated = [False]

    def emit(span: TaggedRecord, depth: int) -> None:
        if len(lines) >= limit:
            truncated[0] = True
            return
        ts = span.wall - t0
        dur = _dur(span)
        start = int(round(ts / total * _BAR_WIDTH))
        length = max(1, int(round(dur / total * _BAR_WIDTH)))
        length = min(length, _BAR_WIDTH - min(start, _BAR_WIDTH - 1))
        bar = "." * start + "#" * length
        bar = bar[:_BAR_WIDTH].ljust(_BAR_WIDTH, ".")
        label = ("  " * depth) + (span.name or "?")
        lines.append(
            f"{ts:>9.3f}s  {label:<32s} {_fmt_seconds(dur):>8s}  |{bar}|"
        )
        for child in log.children_of(span):
            emit(child, depth + 1)

    for top in log.children_of():
        emit(top, 0)
    if truncated[0]:
        lines.append(f"... truncated at {limit} rows (--limit to raise)")
    return "\n".join(lines)


def _span_summary(log: EventLog) -> str:
    by_name: Dict[str, List[float]] = {}
    for span in log.spans:
        by_name.setdefault(str(span.get("name", "?")), []).append(
            float(span.get("dur", 0.0))
        )
    rows = []
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durs = by_name[name]
        rows.append(
            [
                name,
                str(len(durs)),
                _fmt_seconds(sum(durs)),
                _fmt_seconds(sum(durs) / len(durs)),
                _fmt_seconds(max(durs)),
            ]
        )
    return _table(("span", "count", "total", "mean", "max"), rows)


def _event_summary(log: EventLog) -> str:
    counts: Dict[str, int] = {}
    for record in log.events:
        name = str(record.get("name", "?"))
        counts[name] = counts.get(name, 0) + 1
    rows = [[name, str(counts[name])] for name in sorted(counts)]
    return _table(("event", "count"), rows)


def render_trace_report(log: EventLog, limit: int = 40) -> str:
    """The ``repro trace`` text report: header, timeline, summaries."""
    header = (
        f"=== event log {log.path.name}: {len(log.records)} records, "
        f"{_fmt_seconds(log.duration)} ==="
    )
    sections = [header, "", "timeline:", render_timeline(log, limit=limit)]
    if log.spans:
        sections += ["", "spans:", _span_summary(log)]
    if log.events:
        sections += ["", "events:", _event_summary(log)]
    return "\n".join(sections)
