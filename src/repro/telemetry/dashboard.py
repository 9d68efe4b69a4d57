"""`repro top`: a dependency-free live terminal view of one fleet.

:class:`FleetDashboard` composes the store's job records and heartbeats
(via :class:`~repro.service.health.FleetView`) with the answers its
panels show, which it folds from the merged event-log stream
(:class:`~repro.telemetry.aggregate.LogAggregator`) as each record
arrives — exact counts, trailing-window rates, nearest-rank quantiles
over the newest samples, per-job GA curves — into one snapshot dict,
then renders it two ways:

* an ANSI terminal frame refreshing in place (plain ``\\x1b[H`` homing,
  no curses): a jobs table with per-phase checkpoint progress and a GA
  best-fitness sparkline, a workers table with heartbeat age and
  status, and an engine panel with cache hit rate, queue wait
  quantiles, and runs/sec;
* the *same* snapshot as JSON (``repro top --once --json``) so scripts
  and CI assert on exactly what an operator would see.

Rendering is read-only over shared files: running ``repro top`` beside
a fleet perturbs nothing but the page cache.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.service.health import FleetView
from repro.telemetry.aggregate import LogAggregator, TaggedRecord
from repro.telemetry.export import write_json_snapshot, write_prometheus

__all__ = [
    "FleetDashboard",
    "render_snapshot",
    "run_top",
    "sparkline",
]

#: Unicode block ramp for sparklines (space = no data at that column).
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Trailing window (seconds) of the rate panels.
DEFAULT_WINDOW = 60.0

#: Newest values kept, fleet-wide, of each field a quantile is read from.
QUANTILE_SAMPLES = 4096

#: GA best-fitness values kept per job for the sparkline.
GA_HISTORY = 64


def sparkline(values: List[float], width: int = 16) -> str:
    """Compress a numeric series into ``width`` block characters.

    The series is resampled to the width (last value per bucket) and
    scaled to its own min/max; a flat series renders mid-ramp so "no
    change" is visibly different from "no data" (spaces).
    """
    if not values:
        return " " * width
    if len(values) > width:
        # Last value per bucket keeps the newest shape at the right edge.
        step = len(values) / width
        values = [values[min(len(values) - 1, int((i + 1) * step) - 1)]
                  for i in range(width)]
    lo, hi = min(values), max(values)
    span = hi - lo
    out = []
    for value in values:
        if span <= 0:
            out.append(SPARK_CHARS[len(SPARK_CHARS) // 2])
        else:
            idx = int((value - lo) / span * (len(SPARK_CHARS) - 1))
            out.append(SPARK_CHARS[idx])
    return "".join(out).rjust(width)


class _GaCurve:
    """One job's GA convergence: its newest generation and best values."""

    def __init__(self) -> None:
        self.generation: object = None
        self.history: Deque[float] = deque(maxlen=GA_HISTORY)

    def panel(self) -> Dict[str, object]:
        return {
            "generation": (
                int(self.generation) if self.generation is not None else None
            ),
            "best": self.history[-1] if self.history else None,
            "history": list(self.history),
        }


def _number(value: object) -> Optional[float]:
    """``value`` as a float, or None when it is not a number."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _keep(samples: Deque[float], value: object) -> None:
    """Append ``value`` to a quantile sample window if it is numeric."""
    number = _number(value)
    if number is not None:
        samples.append(number)


def _quantile(samples: Deque[float], q: float) -> Optional[float]:
    """Nearest-rank quantile: the smallest sample whose cumulative
    frequency reaches ``q``."""
    values = sorted(samples)
    if not values:
        return None
    return values[max(1, math.ceil(q * len(values))) - 1]


class FleetDashboard:
    """Aggregate one store's observability sources into snapshots.

    The dashboard owns a persistent :class:`LogAggregator` (incremental
    tailing: each refresh reads only appended bytes) and folds every
    new record into the answers its panels show, then drops it:

    * exact counts of ``api.request``, ``engine.request`` and
      ``model.fit`` records (errors, dedup hits, cache hits, fit trees)
      and of every record ingested;
    * the wall times of request arrivals inside the trailing
      :data:`DEFAULT_WINDOW`, for the rates;
    * the newest :data:`QUANTILE_SAMPLES` values of each field a p50 or
      p99 is read from, across the fleet;
    * per job log, the last GA generation and :data:`GA_HISTORY` best
      values.

    What it keeps grows with the request rate and the number of job
    logs, never with the length of the logs.  :class:`FleetView` reads
    are stateless.  One instance per watching process; :meth:`snapshot`
    is cheap enough to call at refresh rate.
    """

    def __init__(
        self,
        store,  # RunStore (health_dir/lease_dir/events_dir/list_jobs/root)
        clock: Callable[[], float] = time.time,
    ):
        self.store = store
        self.view = FleetView(store, clock=clock)
        self.aggregator = LogAggregator(store.events_dir)
        self._records = 0
        self._api_requests = self._api_errors = self._api_deduplicated = 0
        self._engine_requests = self._cache_flags = self._cache_hits = 0
        self._fits = 0
        self._fit_trees = 0.0
        # "Now" is the largest wall time ingested, so panels over a
        # finished log are reproducible and tests need no real clock.
        self._now = 0.0
        # Sorted arrival walls; refresh() drops those older than the
        # window.  Batches come in wall order, so an insort appends.
        self._api_walls: List[float] = []
        self._engine_walls: List[float] = []
        self._api_seconds: Deque[float] = deque(maxlen=QUANTILE_SAMPLES)
        self._queue_waits: Deque[float] = deque(maxlen=QUANTILE_SAMPLES)
        self._run_seconds: Deque[float] = deque(maxlen=QUANTILE_SAMPLES)
        self._fit_seconds: Deque[float] = deque(maxlen=QUANTILE_SAMPLES)
        self._ga: Dict[str, _GaCurve] = {}

    def refresh(self) -> int:
        """Ingest newly appended event-log records; returns how many."""
        batch = self.aggregator.poll()
        for tagged in batch:
            self._ingest(tagged)
        cutoff = self._now - DEFAULT_WINDOW
        for walls in (self._api_walls, self._engine_walls):
            del walls[: bisect.bisect_left(walls, cutoff)]
        return len(batch)

    def _ingest(self, tagged: TaggedRecord) -> None:
        """Fold one record into the panels; records of kinds no panel
        reads are only counted."""
        self._records += 1
        self._now = max(self._now, tagged.wall)
        name, fields = tagged.name, tagged.fields
        if name == "api.request":
            self._api_requests += 1
            bisect.insort(self._api_walls, tagged.wall)
            status = _number(fields.get("status"))
            if status is not None and status >= 400:
                self._api_errors += 1
            if _number(fields.get("deduplicated")):
                self._api_deduplicated += 1
            _keep(self._api_seconds, fields.get("seconds"))
        elif name == "engine.request":
            self._engine_requests += 1
            bisect.insort(self._engine_walls, tagged.wall)
            hit = _number(fields.get("cache_hit"))
            if hit is not None:
                self._cache_flags += 1
                self._cache_hits += bool(hit)
            _keep(self._queue_waits, fields.get("queue_wait"))
            _keep(self._run_seconds, fields.get("wall_seconds"))
        elif name == "model.fit":
            self._fits += 1
            self._fit_trees += _number(fields.get("trees")) or 0.0
            _keep(self._fit_seconds, fields.get("seconds"))
        elif name == "ga.generation" and "job" in tagged.labels:
            curve = self._ga.setdefault(tagged.labels["job"], _GaCurve())
            if "generation" in fields:
                curve.generation = fields["generation"]
            _keep(curve.history, fields.get("best"))

    # -- snapshot -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The full machine-readable fleet state (one JSON-ready dict)."""
        self.refresh()
        self.store.refresh()
        snap = self.view.snapshot()
        for job in snap["jobs"]:  # type: ignore[union-attr]
            job["ga"] = self._ga.get(str(job["job_id"]), _GaCurve()).panel()
        snap["engine"] = self._engine_panel()
        snap["api"] = self._api_panel()
        snap["events"] = {
            "records": self._records,
            "logs": len(self.aggregator.logs),
        }
        return snap

    def _api_panel(self) -> Dict[str, object]:
        """Front-door health from ``api.request`` events.

        The API server logs one record per handled request (route,
        status, latency, dedup flag); counting errors and dedup hits
        here — over the merged event stream — means the panel is right
        even with several ``repro serve`` processes on one store.
        """
        return {
            "requests": self._api_requests,
            "rate": round(len(self._api_walls) / DEFAULT_WINDOW, 3),
            "errors": self._api_errors,
            "deduplicated": self._api_deduplicated,
            "latency_p50": _quantile(self._api_seconds, 0.5),
            "latency_p99": _quantile(self._api_seconds, 0.99),
        }

    def _engine_panel(self) -> Dict[str, object]:
        """Cross-fleet engine health from ``engine.request`` events,
        plus the modeling side from ``model.fit`` events."""
        return {
            "requests": self._engine_requests,
            "runs_per_sec": round(len(self._engine_walls) / DEFAULT_WINDOW, 3),
            "cache_hit_rate": (
                round(self._cache_hits / self._cache_flags, 4)
                if self._cache_flags else None
            ),
            "queue_wait_p50": _quantile(self._queue_waits, 0.5),
            "queue_wait_p99": _quantile(self._queue_waits, 0.99),
            "wall_p50": _quantile(self._run_seconds, 0.5),
            "fits": self._fits,
            "fit_seconds_p50": _quantile(self._fit_seconds, 0.5),
            "fit_trees": int(self._fit_trees),
        }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_age(age: Optional[float]) -> str:
    if age is None:
        return "-"
    if age < 10:
        return f"{age:.1f}s"
    if age < 120:
        return f"{age:.0f}s"
    return f"{age / 60:.1f}m"


def _fmt_opt(value, fmt: str = "{:.3f}") -> str:
    return fmt.format(value) if value is not None else "-"


def _bar(fraction: float, width: int = 10) -> str:
    filled = int(round(min(1.0, max(0.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_snapshot(snap: Dict[str, object], color: bool = True) -> str:
    """One full dashboard frame (no cursor control; caller positions)."""
    dim = "\x1b[2m" if color else ""
    bold = "\x1b[1m" if color else ""
    reset = "\x1b[0m" if color else ""
    status_color = {
        "alive": "\x1b[32m",
        "stale": "\x1b[33m",
        "dead": "\x1b[31m",
        "exited": "\x1b[2m",
    }
    lines: List[str] = []
    summary = snap.get("summary", {})
    engine = snap.get("engine", {})
    events = snap.get("events", {})
    lines.append(
        f"{bold}repro top{reset} — {snap.get('store', '')}  "
        f"{dim}jobs {summary.get('jobs_done', 0)}/{summary.get('jobs_total', 0)} done, "
        f"{summary.get('jobs_active', 0)} active, "
        f"{summary.get('jobs_failed', 0)} failed · "
        f"workers {summary.get('workers_alive', 0)} alive, "
        f"{summary.get('workers_stale', 0)} stale, "
        f"{summary.get('workers_dead', 0)} dead · "
        f"{events.get('records', 0)} events/{events.get('logs', 0)} logs{reset}"
    )
    lines.append("")

    lines.append(f"{bold}JOBS{reset}")
    header = (
        f"{dim}{'JOB':<14} {'STATE':<9} {'PHASE':<8} {'PROGRESS':<17} "
        f"{'GEN':>4} {'BEST':>9}  {'FITNESS':<16} {'HOLDER':<20}{reset}"
    )
    lines.append(header)
    for job in snap.get("jobs", []):  # type: ignore[union-attr]
        progress = job.get("progress", {})
        fraction = float(progress.get("fraction", 0.0) or 0.0)
        ga = job.get("ga", {})
        holder = job.get("holder") or job.get("worker") or "-"
        state = str(job.get("state", "?"))
        state_col = {
            "done": "\x1b[32m",
            "running": "\x1b[36m",
            "failed": "\x1b[31m",
            "cancelled": "\x1b[2m",
        }.get(state, "") if color else ""
        lines.append(
            f"{str(job.get('job_id', '?'))[:14]:<14} "
            f"{state_col}{state:<9}{reset} "
            f"{str(job.get('phase', '-')):<8} "
            f"[{_bar(fraction)}] {int(fraction * 100):>3d}% "
            f"{_fmt_opt(ga.get('generation'), '{:d}'):>4} "
            f"{_fmt_opt(ga.get('best'), '{:9.3f}'):>9}  "
            f"{sparkline(list(ga.get('history') or []))} "
            f"{str(holder)[:20]:<20}"
        )
    if not snap.get("jobs"):
        lines.append(f"{dim}  (no jobs){reset}")
    lines.append("")

    lines.append(f"{bold}WORKERS{reset}")
    lines.append(
        f"{dim}{'WORKER':<28} {'HOST':<14} {'STATUS':<8} {'AGE':>6} "
        f"{'SEQ':>6} {'JOB':<14} {'DONE':>4} {'LEASES':<12}{reset}"
    )
    for worker in snap.get("workers", []):  # type: ignore[union-attr]
        status = str(worker.get("status", "?"))
        col = status_color.get(status, "") if color else ""
        leases = ",".join(
            str(j)[:10] for j in (worker.get("leases") or [])
        ) or "-"
        lines.append(
            f"{str(worker.get('worker', '?'))[:28]:<28} "
            f"{str(worker.get('host', '-'))[:14]:<14} "
            f"{col}{status:<8}{reset} "
            f"{_fmt_age(worker.get('age')):>6} "
            f"{int(worker.get('seq', 0)):>6} "
            f"{str(worker.get('job') or '-')[:14]:<14} "
            f"{int(worker.get('jobs_done', 0)):>4} "
            f"{leases:<12}"
        )
    if not snap.get("workers"):
        lines.append(f"{dim}  (no heartbeats){reset}")
    lines.append("")

    lines.append(f"{bold}ENGINE{reset}")
    lines.append(
        f"  runs/sec {_fmt_opt(engine.get('runs_per_sec'))}   "
        f"cache hit {_fmt_opt(engine.get('cache_hit_rate'), '{:.1%}')}   "
        f"queue wait p50 {_fmt_opt(engine.get('queue_wait_p50'))}s "
        f"p99 {_fmt_opt(engine.get('queue_wait_p99'))}s   "
        f"run wall p50 {_fmt_opt(engine.get('wall_p50'))}s   "
        f"requests {engine.get('requests', 0)}"
    )
    lines.append(
        f"  model fits {engine.get('fits', 0)}   "
        f"fit p50 {_fmt_opt(engine.get('fit_seconds_p50'))}s   "
        f"trees {engine.get('fit_trees', 0)}"
    )
    api = snap.get("api", {})
    lines.append("")
    lines.append(f"{bold}API{reset}")
    lines.append(
        f"  requests {api.get('requests', 0)}   "
        f"req/sec {_fmt_opt(api.get('rate'))}   "
        f"errors {api.get('errors', 0)}   "
        f"dedup {api.get('deduplicated', 0)}   "
        f"latency p50 {_fmt_opt(api.get('latency_p50'))}s "
        f"p99 {_fmt_opt(api.get('latency_p99'))}s"
    )
    return "\n".join(lines)


def run_top(
    store,
    interval: float = 1.0,
    frames: Optional[int] = None,
    once: bool = False,
    as_json: bool = False,
    color: Optional[bool] = None,
    out=None,
    clock: Callable[[], float] = time.time,
    prometheus_path: Optional[Union[str, Path]] = None,
    snapshot_path: Optional[Union[str, Path]] = None,
) -> int:
    """The ``repro top`` loop: snapshot, render, repeat in place.

    ``once`` renders a single frame and returns (``--json`` emits the
    snapshot dict instead); otherwise the frame redraws every
    ``interval`` seconds until ``frames`` frames or Ctrl-C.
    ``prometheus_path`` and ``snapshot_path`` (``--prometheus`` and
    ``--snapshot``) rewrite those exports from every frame's snapshot;
    exporting implies plain, uncoloured frames.  Returns a process exit
    code.
    """
    out = out if out is not None else sys.stdout
    if prometheus_path is not None or snapshot_path is not None:
        color = False
    elif color is None:
        color = bool(getattr(out, "isatty", lambda: False)())
    dashboard = FleetDashboard(store, clock=clock)
    rendered = 0
    try:
        while True:
            snap = dashboard.snapshot()
            if prometheus_path:
                write_prometheus(prometheus_path, snap)
            if snapshot_path:
                write_json_snapshot(snapshot_path, snap)
            if as_json:
                out.write(json.dumps(snap, sort_keys=True, default=str) + "\n")
            else:
                frame = render_snapshot(snap, color=color)
                if once or frames is not None or not color:
                    out.write(frame + "\n")
                else:
                    # Home + clear-to-end per line beats full clears:
                    # no flicker, and stray old content is erased.
                    out.write("\x1b[H\x1b[J" + frame + "\n")
            out.flush()
            rendered += 1
            if once or (frames is not None and rendered >= frames):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
