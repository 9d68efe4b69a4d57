"""Metric exporters: Prometheus text exposition and JSON snapshots.

External scrapers should see exactly what ``repro top`` sees, so the
exporters render the same source — a fleet-dashboard snapshot dict —
into two wire formats:

* :func:`prometheus_from_fleet` — the Prometheus `text exposition
  format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
  (``# HELP``/``# TYPE`` headers, ``name{label="v"} value`` samples);
* :func:`write_json_snapshot` — the dashboard snapshot dict, written
  atomically so a scraping sidecar never reads a torn file.

:func:`parse_exposition` is a strict validator for the text format —
the CI gate proving every export line parses under the grammar — not a
general Prometheus client.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.store.artifacts import atomic_write

__all__ = [
    "ExpositionError",
    "parse_exposition",
    "prometheus_from_fleet",
    "write_json_snapshot",
    "write_prometheus",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _metric_name(raw: str) -> str:
    """A valid Prometheus metric name from a dotted series name."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", raw)
    if not name or not _NAME_RE.match(name):
        name = "_" + name
    return name


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _labels_str(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_metric_name(str(k))}="{_escape(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def prometheus_from_fleet(snapshot: Mapping[str, object]) -> str:
    """Render a fleet-dashboard snapshot dict as Prometheus text.

    One gauge family per observable: job progress/state, worker
    heartbeat age and status, and the engine panel — everything an
    alert rule would want ("any worker dead", "job stuck below 50%
    for an hour", "cache hit rate collapsed").  Each family is one
    group, as the format requires: its HELP/TYPE header and then all of
    its samples, families in first-seen order.
    """
    families: Dict[str, List[str]] = {}

    def gauge(name, help_text, labels, value):
        if value is None:
            return
        try:
            value = float(value)
        except (TypeError, ValueError):
            return
        full = _metric_name("repro_fleet_" + name)
        lines = families.setdefault(
            full, [f"# HELP {full} {help_text}", f"# TYPE {full} gauge"]
        )
        lines.append(f"{full}{_labels_str(labels)} {_fmt_value(value)}")

    summary = snapshot.get("summary", {}) or {}
    for key, help_text in (
        ("jobs_total", "jobs known to the store"),
        ("jobs_done", "jobs in state done"),
        ("jobs_active", "jobs queued or running"),
        ("jobs_failed", "jobs in state failed"),
        ("workers_alive", "workers with a fresh heartbeat"),
        ("workers_stale", "workers with a stale heartbeat"),
        ("workers_dead", "workers declared dead by heartbeat age"),
    ):
        gauge(key, help_text, {}, summary.get(key))

    for job in snapshot.get("jobs", []) or []:
        labels = {"job": job.get("job_id"), "program": job.get("program")}
        progress = job.get("progress", {}) or {}
        gauge(
            "job_progress",
            "current-phase checkpoint progress fraction",
            {**labels, "phase": progress.get("phase")},
            progress.get("fraction"),
        )
        gauge("job_sessions", "runner sessions", labels, job.get("sessions"))
        gauge(
            "job_state",
            "1 for the record's current state",
            {**labels, "state": job.get("state")},
            1,
        )
        ga = job.get("ga", {}) or {}
        gauge("job_ga_generation", "last GA generation", labels,
              ga.get("generation"))
        gauge("job_ga_best", "best GA fitness so far", labels, ga.get("best"))

    for worker in snapshot.get("workers", []) or []:
        labels = {"worker": worker.get("worker"), "host": worker.get("host")}
        gauge(
            "worker_heartbeat_age_seconds",
            "seconds since the worker's last heartbeat",
            labels,
            worker.get("age"),
        )
        gauge(
            "worker_up",
            "1 while the worker's heartbeat is fresh",
            labels,
            1 if worker.get("status") == "alive" else 0,
        )
        gauge(
            "worker_status",
            "1 for the worker's current status",
            {**labels, "status": worker.get("status")},
            1,
        )
        gauge("worker_jobs_done", "jobs finished by this worker", labels,
              worker.get("jobs_done"))
        gauge("worker_heartbeat_seq", "monotonic heartbeat sequence", labels,
              worker.get("seq"))

    engine = snapshot.get("engine", {}) or {}
    gauge("engine_runs_per_second", "substrate requests per second", {},
          engine.get("runs_per_sec"))
    gauge("engine_cache_hit_rate", "engine cache hit rate", {},
          engine.get("cache_hit_rate"))
    gauge("engine_queue_wait_seconds", "engine queue wait", {"quantile": "0.5"},
          engine.get("queue_wait_p50"))
    gauge("engine_queue_wait_seconds", "engine queue wait", {"quantile": "0.99"},
          engine.get("queue_wait_p99"))
    gauge("engine_requests", "substrate requests observed in the event stream",
          {}, engine.get("requests"))

    api = snapshot.get("api", {}) or {}
    gauge("api_requests", "API requests observed in the event stream", {},
          api.get("requests"))
    gauge("api_requests_per_second", "API request rate", {},
          api.get("rate"))
    gauge("api_errors", "API responses with status >= 400", {},
          api.get("errors"))
    gauge("api_deduplicated", "submissions answered by an existing job", {},
          api.get("deduplicated"))
    gauge("api_latency_seconds", "API request latency", {"quantile": "0.5"},
          api.get("latency_p50"))
    gauge("api_latency_seconds", "API request latency", {"quantile": "0.99"},
          api.get("latency_p99"))

    events = snapshot.get("events", {}) or {}
    gauge("event_records", "event-log records aggregated", {},
          events.get("records"))
    gauge("event_logs", "event logs tailed", {}, events.get("logs"))
    lines = [line for family in families.values() for line in family]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Atomic writers
# ----------------------------------------------------------------------
def _write_atomic(path: Union[str, Path], text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, text)
    return path


def write_prometheus(
    path: Union[str, Path], fleet_snapshot: Mapping[str, object]
) -> Path:
    """Write the fleet export to ``path`` atomically (scrape target).

    The node-exporter "textfile collector" pattern: ``repro top
    --prometheus`` rewrites this file every frame, and any Prometheus
    with a textfile/file-sd scraper picks it up without a live HTTP
    port.
    """
    return _write_atomic(path, prometheus_from_fleet(fleet_snapshot))


def write_json_snapshot(
    path: Union[str, Path], snapshot: Mapping[str, object]
) -> Path:
    """Write the dashboard snapshot dict as JSON, atomically."""
    return _write_atomic(
        path, json.dumps(snapshot, sort_keys=True, default=str) + "\n"
    )


# ----------------------------------------------------------------------
# Validation (the CI gate)
# ----------------------------------------------------------------------
class ExpositionError(ValueError):
    """A line violated the Prometheus text-exposition grammar."""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*'
)
_VALUE_RE = re.compile(
    r"^(?:[+-]?Inf|NaN|[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)$"
)


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Strictly parse text-exposition output; raises on any violation.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}``.  Enforced rules: valid metric/label names, quoted
    and escape-valid label values, float-parsable sample values, TYPE
    lines naming a known metric type and preceding the family's samples,
    and each family's lines forming one group: once a line of another
    family follows, no line of the first may appear again.
    """
    families: Dict[str, Dict[str, object]] = {}
    current: Optional[str] = None  # the family whose group is open

    def family(name: str, lineno: int) -> Dict[str, object]:
        nonlocal current
        if name != current:
            if name in families:
                raise ExpositionError(
                    f"line {lineno}: {name} resumes after its group ended"
                )
            current = name
        return families.setdefault(
            name, {"type": None, "help": None, "samples": []}
        )

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, ignored
            _, keyword, name = parts[:3]
            rest = parts[3] if len(parts) > 3 else ""
            if not _NAME_RE.match(name):
                raise ExpositionError(
                    f"line {lineno}: bad metric name {name!r} in {keyword}"
                )
            if keyword == "TYPE":
                if rest not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ExpositionError(
                        f"line {lineno}: unknown TYPE {rest!r}"
                    )
                if family(name, lineno)["samples"]:
                    raise ExpositionError(
                        f"line {lineno}: TYPE for {name} after its samples"
                    )
                family(name, lineno)["type"] = rest
            else:
                family(name, lineno)["help"] = rest
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ExpositionError(f"line {lineno}: unparsable sample {line!r}")
        name = match.group("name")
        raw_labels = match.group("labels")
        labels: Dict[str, str] = {}
        if raw_labels:
            position = 0
            while position < len(raw_labels):
                pair = _LABEL_PAIR_RE.match(raw_labels, position)
                if not pair:
                    raise ExpositionError(
                        f"line {lineno}: bad label syntax in {raw_labels!r}"
                    )
                labels[pair.group("key")] = pair.group("value")
                position = pair.end()
                if position < len(raw_labels):
                    if raw_labels[position] != ",":
                        raise ExpositionError(
                            f"line {lineno}: expected ',' in labels of {line!r}"
                        )
                    position += 1
        value = match.group("value")
        if not _VALUE_RE.match(value):
            raise ExpositionError(f"line {lineno}: bad value {value!r}")
        base = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        samples = family(base, lineno)["samples"]
        samples.append((name, labels, float(value)))  # type: ignore[union-attr]
    for name, meta in families.items():
        if meta["type"] == "histogram":
            sample_names = {s[0] for s in meta["samples"]}  # type: ignore[union-attr]
            for required in (f"{name}_sum", f"{name}_count"):
                if required not in sample_names:
                    raise ExpositionError(
                        f"histogram {name} missing {required}"
                    )
    return families
