"""Structured execution accounting.

Every request flowing through a backend leaves a record; the aggregate
:class:`EngineStats` is an immutable snapshot surfaced through
:class:`~repro.core.tuner.TuningReport` and the CLI — the reproduction's
analogue of Table 3's "Collecting" column, extended with the cache and
parallelism effects the engine adds on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.telemetry import events as tele

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.request import ExecOutcome


@dataclass(frozen=True)
class EngineStats:
    """Aggregate accounting of substrate executions.

    Attributes
    ----------
    runs:
        Requests answered (successes and failures, hits and misses).
    failures:
        Requests that exhausted their retry budget.
    cache_hits / cache_misses:
        Requests answered from / past a :class:`CachedBackend`.
        Both stay zero on uncached backends.
    retries:
        Extra attempts beyond the first, summed over all requests.
    wall_seconds:
        Real time spent executing (cache hits contribute ~0).
    simulated_seconds:
        Simulated cluster time of the successful runs — what the
        collection *would* have cost on real hardware.
    backends:
        Sorted identifiers of every backend that answered a request.
    """

    runs: int = 0
    failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    wall_seconds: float = 0.0
    simulated_seconds: float = 0.0
    backends: Tuple[str, ...] = ()

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when uncached)."""
        return self.cache_hits / self.runs if self.runs else 0.0

    @property
    def simulated_hours(self) -> float:
        return self.simulated_seconds / 3600.0

    def summary(self) -> str:
        """One-line human rendering for CLI output."""
        parts = [f"{self.runs} runs"]
        if self.cache_hits or self.cache_misses:
            parts.append(f"{self.cache_hits} cache hits ({self.hit_rate * 100:.0f}%)")
        if self.failures:
            parts.append(f"{self.failures} failed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        parts.append(f"{self.wall_seconds:.2f}s wall")
        parts.append(f"{self.simulated_hours:.1f} simulated cluster-hours")
        backends = ",".join(self.backends) or "-"
        return f"engine[{backends}]: " + ", ".join(parts)


class StatsRecorder:
    """Mutable accumulator backing a backend's :attr:`stats` snapshot.

    Also the engine's telemetry tap: every recorded outcome is mirrored
    as an ``engine.request`` event when telemetry is on.  A decorating
    backend (the cache) sets :attr:`telemetry` to ``False`` on its inner
    backend's recorder so each request is reported exactly once.
    """

    def __init__(self) -> None:
        self._stats = EngineStats()
        #: When False the recorder updates stats only (no events).
        self.telemetry = True

    def record(self, outcome: "ExecOutcome") -> None:
        from repro.engine.request import ExecResult

        s = self._stats
        success = isinstance(outcome, ExecResult)
        if self.telemetry and tele.enabled():
            self._record_telemetry(outcome, success)
        self._stats = EngineStats(
            runs=s.runs + 1,
            failures=s.failures + (0 if success else 1),
            cache_hits=s.cache_hits + (1 if success and outcome.cache_hit else 0),
            cache_misses=s.cache_misses,
            retries=s.retries + max(outcome.attempts - 1, 0),
            wall_seconds=s.wall_seconds + outcome.wall_seconds,
            simulated_seconds=s.simulated_seconds
            + (outcome.run.seconds if success else 0.0),
            backends=s.backends
            if outcome.backend in s.backends
            else tuple(sorted((*s.backends, outcome.backend))),
        )

    def _record_telemetry(self, outcome: "ExecOutcome", success: bool) -> None:
        fields = {
            "backend": outcome.backend,
            "program": outcome.program if not success else outcome.run.program,
            "ok": success,
            "attempts": outcome.attempts,
            "wall_seconds": outcome.wall_seconds,
            "cache_hit": success and outcome.cache_hit,
        }
        if outcome.queue_wait is not None:
            fields["queue_wait"] = outcome.queue_wait
        if success:
            fields["seconds"] = outcome.run.seconds
        tele.event("engine.request", **fields)

    def record_miss(self) -> None:
        """Count one cache miss (paired with the inner outcome's record)."""
        s = self._stats
        self._stats = EngineStats(
            runs=s.runs,
            failures=s.failures,
            cache_hits=s.cache_hits,
            cache_misses=s.cache_misses + 1,
            retries=s.retries,
            wall_seconds=s.wall_seconds,
            simulated_seconds=s.simulated_seconds,
            backends=s.backends,
        )

    def snapshot(self) -> EngineStats:
        return self._stats
