"""Telemetry: the always-on record of what a run did.

DAC's analysis sections are all observations of the tuning pipeline's
internals — GA convergence (Fig. 11), stage decompositions (Fig. 13/14),
phase costs (Table 3).  This package makes those observations a
first-class, always-available layer instead of something bespoke
experiment scripts re-derive:

* :mod:`repro.telemetry.events` — the ``span()``/``event()`` API
  recording structured, monotonically-timestamped records to pluggable
  sinks;
* :mod:`repro.telemetry.sinks` — an in-memory ring buffer and a JSONL
  event-log writer (the reproduction's analogue of Spark's event log);
* :mod:`repro.telemetry.trace` — event-log reading, the ``repro
  trace`` text timeline, and Chrome-trace (``chrome://tracing`` /
  Perfetto) export;
* :mod:`repro.telemetry.aggregate` — merge N per-worker/per-job event
  logs into one wall-clock-ordered stream with incremental tailing;
* :mod:`repro.telemetry.dashboard` — the ``repro top`` live fleet
  view (jobs/workers/engine panels folded from that stream as records
  arrive, ANSI in-place refresh, ``--json``);
* :mod:`repro.telemetry.export` — Prometheus text-exposition and JSON
  snapshot writers over the dashboard's snapshot;
* :mod:`repro.telemetry.log` — structured logging behind the CLI's
  ``--verbose``/``--quiet``.

Telemetry is **off by default**: instrumented code pays one global load
and a ``None``/no-op check per record, quantified by
``benchmarks/bench_telemetry.py``.  Turn it on for a scope with::

    from repro import telemetry

    with telemetry.session(directory="out") as tel:
        ...  # spans and events flow to out/events.jsonl
    # or imperatively: telemetry.enable(...) / telemetry.disable()

A session keeps the last :data:`DEFAULT_RING_CAPACITY` records in memory
(the Chrome-trace export reads them).  The event stream is the only
telemetry channel: every count, rate or latency a reader wants
(``repro trace``, ``repro top``, ``/metrics``) is derived from it.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.telemetry.aggregate import (
    LogAggregator,
    LogCursor,
    TaggedRecord,
)
from repro.telemetry.events import (
    Telemetry,
    enabled,
    event,
    install,
    span,
)
from repro.telemetry.export import (
    ExpositionError,
    parse_exposition,
    prometheus_from_fleet,
    write_json_snapshot,
    write_prometheus,
)
from repro.telemetry.log import configure_logging, get_logger
from repro.telemetry.sinks import JsonlSink, RingBufferSink
from repro.telemetry.trace import (
    EventLog,
    follow_events,
    format_record,
    read_event_log,
    render_timeline,
    render_trace_report,
    write_chrome_trace,
)

__all__ = [
    "EventLog",
    "ExpositionError",
    "JsonlSink",
    "LogAggregator",
    "LogCursor",
    "RingBufferSink",
    "TaggedRecord",
    "Telemetry",
    "configure_logging",
    "disable",
    "enable",
    "enabled",
    "event",
    "follow_events",
    "format_record",
    "get_logger",
    "install",
    "parse_exposition",
    "prometheus_from_fleet",
    "read_event_log",
    "render_timeline",
    "render_trace_report",
    "session",
    "span",
    "write_chrome_trace",
    "write_json_snapshot",
    "write_prometheus",
]

#: Default ring capacity: enough for a FAST-scale tune run's records.
DEFAULT_RING_CAPACITY = 65536


def enable(directory: Optional[Union[str, Path]] = None) -> Telemetry:
    """Turn telemetry on process-globally.

    Attaches an in-memory ring sink always (feeding trace export) and a
    JSONL event-log writer at ``<directory>/events.jsonl`` when a
    directory is given.  Returns the active :class:`Telemetry`; call
    :func:`disable` to tear down.
    """
    if enabled():
        raise RuntimeError("telemetry is already enabled; call disable() first")
    ring = RingBufferSink(DEFAULT_RING_CAPACITY)
    sinks = [ring]
    if directory is not None:
        sinks.append(JsonlSink(Path(directory) / "events.jsonl"))
    telemetry = Telemetry(sinks)
    telemetry.ring = ring
    install(telemetry)
    return telemetry


def disable() -> Optional[Telemetry]:
    """Tear telemetry down (idempotent); returns the retired pipeline.

    The retired object's ring records stay readable — the CLI exports
    its Chrome trace from them after disabling.
    """
    telemetry = install(None)
    if telemetry is not None:
        telemetry.close()
    return telemetry


@contextmanager
def session(directory: Optional[Union[str, Path]] = None) -> Iterator[Telemetry]:
    """``enable()``/``disable()`` as a scope."""
    telemetry = enable(directory)
    try:
        yield telemetry
    finally:
        disable()
