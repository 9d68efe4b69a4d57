"""Execution backends: where substrate runs actually happen.

:class:`ExecutionBackend` is the one interface every caller in
``repro.core``, ``repro.experiments`` and the CLI goes through; the
simulator itself is an implementation detail behind it.  Two concrete
backends ship:

* :class:`InProcessBackend` — the seed repo's behaviour: one
  :class:`SparkSimulator`, requests executed sequentially in the calling
  process.
* :class:`ProcessPoolBackend` — fan-out over CPU cores with
  ``concurrent.futures.ProcessPoolExecutor``.  Results are *identical*
  to in-process execution because the simulator seeds every stochastic
  draw from the (program, datasize, configuration) triple
  (:func:`repro.common.rng.stable_seed` is process-stable), so the
  placement of a request on a worker cannot change its measurement.

Failure policy (shared by both): a simulator exception retries with
bounded exponential backoff; an exhausted request yields a typed
:class:`FailedRun` in its batch slot instead of poisoning the batch.
Both run the simulator at its default measurement noise, so both
report the same :meth:`~ExecutionBackend.signature` for a cluster.
"""

from __future__ import annotations

import abc
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from repro.common.space import Configuration
from repro.engine.request import (
    ExecOutcome,
    ExecRequest,
    ExecResult,
    FailedRun,
    require_success,
)
from repro.engine.stats import EngineStats, StatsRecorder
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.dag import JobSpec
from repro.sparksim.simulator import RunResult, SparkSimulator

#: Default failure policy: 3 attempts, 50 ms base backoff (doubling).
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_SECONDS = 0.05


def _execute_with_retry(
    simulator: SparkSimulator,
    job: JobSpec,
    config: Configuration,
    max_attempts: int,
    backoff_seconds: float,
    backend: str,
    queue_wait: Optional[float] = None,
) -> ExecOutcome:
    """Run one request under the bounded-backoff failure policy."""
    start = time.perf_counter()
    error: Optional[BaseException] = None
    for attempt in range(1, max_attempts + 1):
        try:
            run = simulator.run(job, config)
        except Exception as exc:  # noqa: BLE001 - the policy's whole point
            error = exc
            if attempt < max_attempts and backoff_seconds > 0:
                time.sleep(backoff_seconds * (2 ** (attempt - 1)))
            continue
        return ExecResult(
            run=run,
            wall_seconds=time.perf_counter() - start,
            attempts=attempt,
            backend=backend,
            queue_wait=queue_wait,
        )
    return FailedRun(
        program=job.program,
        datasize_bytes=job.datasize_bytes,
        error=f"{type(error).__name__}: {error}",
        attempts=max_attempts,
        backend=backend,
        wall_seconds=time.perf_counter() - start,
        queue_wait=queue_wait,
    )


class ExecutionBackend(abc.ABC):
    """Batch execution of (program, configuration, datasize) requests.

    The contract every implementation upholds:

    * :meth:`submit` returns one outcome per request, in request order;
    * outcomes for the same request are deterministic across backends
      and processes (the simulator's seeding guarantees it);
    * a failing request yields :class:`FailedRun` in its slot — the
      batch itself never raises.
    """

    #: Short identifier stamped on every outcome this backend produces.
    name: str = "backend"

    #: True when :meth:`map_tasks` actually runs tasks concurrently.
    #: Callers with speculative work (e.g. parallel HM component
    #: training that may overshoot an early stop) consult this to avoid
    #: wasting compute on serial backends.
    supports_parallel_tasks: bool = False

    def __init__(self) -> None:
        self._recorder = StatsRecorder()

    # -- the protocol ---------------------------------------------------
    @abc.abstractmethod
    def submit(self, requests: Sequence[ExecRequest]) -> List[ExecOutcome]:
        """Execute a batch; one outcome per request, order preserved."""

    @abc.abstractmethod
    def signature(self) -> str:
        """Stable identity of the substrate (cluster + noise model).

        Two backends with equal signatures produce equal measurements
        for equal requests — the property cache keys rely on.
        """

    # -- conveniences ---------------------------------------------------
    def run(self, job: JobSpec, config: Configuration) -> RunResult:
        """Single-request sugar; raises :class:`ExecutionError` on failure."""
        return require_success(self.submit([ExecRequest(job=job, config=config)]))[0]

    def map_tasks(self, fn, items: Sequence) -> List:
        """Generic compute fan-out: ``[fn(item) for item in items]``.

        Unlike :meth:`submit` this runs arbitrary picklable work (model
        training, not substrate requests) on the backend's resources.
        The base implementation is sequential; pool backends override it
        and set :attr:`supports_parallel_tasks`.  ``fn`` must be a
        module-level callable when the backend crosses process
        boundaries.
        """
        return [fn(item) for item in items]

    @property
    def stats(self) -> EngineStats:
        """Snapshot of everything this backend has executed so far."""
        return self._recorder.snapshot()

    def close(self) -> None:
        """Release any held resources (worker pools); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessBackend(ExecutionBackend):
    """Sequential execution in the calling process (seed behaviour)."""

    name = "inprocess"

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        simulator: Optional[SparkSimulator] = None,
    ):
        super().__init__()
        self.cluster = cluster
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        if simulator is None:
            simulator = SparkSimulator(cluster)
        self._simulator = simulator

    def submit(self, requests: Sequence[ExecRequest]) -> List[ExecOutcome]:
        # Sequential execution: a request's queue wait is the time the
        # batch spent on the requests ahead of it.
        batch_start = time.perf_counter()
        outcomes: List[ExecOutcome] = []
        for request in requests:
            outcome = _execute_with_retry(
                self._simulator,
                request.job,
                request.config,
                self.max_attempts,
                self.backoff_seconds,
                self.name,
                queue_wait=time.perf_counter() - batch_start,
            )
            self._recorder.record(outcome)
            outcomes.append(outcome)
        return outcomes

    def signature(self) -> str:
        return f"sparksim|{self.cluster!r}|sigma={self._simulator.noise_sigma!r}"


# ----------------------------------------------------------------------
# Process-pool workers.  Module-level so they survive pickling under any
# multiprocessing start method; the simulator is built once per worker.
# ----------------------------------------------------------------------
_WORKER_SIMULATOR: Optional[SparkSimulator] = None


def _init_worker(cluster: ClusterSpec) -> None:
    global _WORKER_SIMULATOR
    _WORKER_SIMULATOR = SparkSimulator(cluster)


def _run_in_worker(request: ExecRequest) -> ExecOutcome:
    assert _WORKER_SIMULATOR is not None, "worker initializer did not run"
    return _execute_with_retry(
        _WORKER_SIMULATOR,
        request.job,
        request.config,
        DEFAULT_MAX_ATTEMPTS,
        DEFAULT_BACKOFF_SECONDS,
        ProcessPoolBackend.name,
    )


class ProcessPoolBackend(ExecutionBackend):
    """Chunked fan-out over a pool of worker processes.

    Deterministic: every stochastic draw in the simulator is keyed by
    the request triple, so results are byte-identical to
    :class:`InProcessBackend` regardless of worker count, chunking, or
    completion order (``Executor.map`` preserves request order).
    """

    name = "processpool"
    supports_parallel_tasks = True

    def __init__(
        self,
        jobs: Optional[int] = None,
        cluster: ClusterSpec = PAPER_CLUSTER,
    ):
        super().__init__()
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        self.cluster = cluster
        self._executor: Optional[ProcessPoolExecutor] = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.cluster,),
            )
        return self._executor

    def submit(self, requests: Sequence[ExecRequest]) -> List[ExecOutcome]:
        if not requests:
            return []
        # ~4 chunks per worker balances scheduling slack against the
        # per-chunk pickling of shared objects (space, job specs).
        chunksize = max(1, math.ceil(len(requests) / (self.jobs * 4)))
        outcomes = list(
            self._pool().map(_run_in_worker, requests, chunksize=chunksize)
        )
        for outcome in outcomes:
            self._recorder.record(outcome)
        return outcomes

    def map_tasks(self, fn, items: Sequence) -> List:
        """Run ``fn`` over ``items`` on the worker pool, order preserved."""
        if not items:
            return []
        return list(self._pool().map(fn, items))

    def signature(self) -> str:
        return InProcessBackend(self.cluster).signature()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
