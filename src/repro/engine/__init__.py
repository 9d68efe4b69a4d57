"""The execution engine: substrate runs as a first-class subsystem.

The collecting phase dominates DAC's tuning cost (Table 3: hours of
cluster time against minutes of modeling and search), and every layer of
the seed reproduction — :class:`~repro.core.collecting.Collector`,
:class:`~repro.core.tuner.DacTuner`, the experiment harness, the CLI —
used to call :meth:`SparkSimulator.run` inline, one pair at a time, with
no reuse across callers.  This package turns that path into a pluggable
subsystem:

* :class:`ExecutionBackend` — one batch interface
  (``submit(requests) -> outcomes``) behind which the substrate lives;
* :class:`InProcessBackend` — sequential, in-process (seed behaviour);
* :class:`ProcessPoolBackend` — multiprocessing fan-out, deterministic
  because the simulator seeds from the request triple;
* :class:`CachedBackend` — in-memory + on-disk memoization keyed by the
  canonical triple hash, shared across sessions and experiments;
* :class:`EngineStats` — structured per-run accounting (wall time,
  retries, cache hits, backends) surfaced through
  :class:`~repro.core.tuner.TuningReport` and the CLI;
* :class:`FailedRun` — the typed outcome of a request that exhausted
  its retry budget, so one bad run never poisons a batch.
"""

from repro.engine.backends import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    ExecutionBackend,
    InProcessBackend,
    ProcessPoolBackend,
)
from repro.engine.cache import CachedBackend, request_key
from repro.engine.request import (
    ExecOutcome,
    ExecRequest,
    ExecResult,
    ExecutionError,
    FailedRun,
    require_success,
)
from repro.engine.stats import EngineStats

__all__ = [
    "CachedBackend",
    "DEFAULT_BACKOFF_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "EngineStats",
    "ExecOutcome",
    "ExecRequest",
    "ExecResult",
    "ExecutionBackend",
    "ExecutionError",
    "FailedRun",
    "InProcessBackend",
    "ProcessPoolBackend",
    "request_key",
    "require_success",
]
