"""Execution requests and their outcomes.

The engine's unit of work is the paper's unit of cost: one substrate
execution of a (program, configuration, datasize) triple.
:class:`ExecRequest` carries the compiled :class:`JobSpec` (program and
datasize in one object, custom workloads included) plus the
:class:`Configuration` to run it under.

An outcome is either an :class:`ExecResult` wrapping the simulator's
:class:`RunResult` together with execution metadata (wall time, queue
wait, retry attempts, cache provenance), or a typed :class:`FailedRun`
when the substrate raised on every attempt.  Batches never raise because one
request failed — callers that need all-success semantics use
:func:`require_success` / :class:`ExecutionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.common.space import Configuration
from repro.sparksim.dag import JobSpec
from repro.sparksim.simulator import RunResult


@dataclass(frozen=True)
class ExecRequest:
    """One substrate execution: run ``job``'s program under ``config``."""

    job: JobSpec
    config: Configuration

    @property
    def program(self) -> str:
        return self.job.program

    @property
    def datasize_bytes(self) -> float:
        return self.job.datasize_bytes


@dataclass(frozen=True)
class ExecResult:
    """A successful execution plus how the engine obtained it."""

    run: RunResult
    wall_seconds: float
    attempts: int
    backend: str
    cache_hit: bool = False
    #: Seconds the request waited behind earlier ones in its batch
    #: (None where the backend does not measure it).
    queue_wait: Optional[float] = None

    @property
    def ok(self) -> bool:
        return True

    @property
    def seconds(self) -> float:
        """Simulated execution time (the measurement itself)."""
        return self.run.seconds


@dataclass(frozen=True)
class FailedRun:
    """A request whose every attempt raised — the batch survives it."""

    program: str
    datasize_bytes: float
    error: str
    attempts: int
    backend: str
    wall_seconds: float = 0.0
    queue_wait: Optional[float] = None

    @property
    def ok(self) -> bool:
        return False


ExecOutcome = Union[ExecResult, FailedRun]


class ExecutionError(RuntimeError):
    """Raised by callers that need every request in a batch to succeed."""

    def __init__(self, failures: Sequence[FailedRun]):
        self.failures = tuple(failures)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} substrate run(s) failed; first: "
            f"{first.program}: {first.error} (after {first.attempts} attempts)"
        )


def require_success(outcomes: Sequence[ExecOutcome]) -> List[RunResult]:
    """Unwrap a batch into :class:`RunResult`\\ s, raising on any failure."""
    failures = [o for o in outcomes if isinstance(o, FailedRun)]
    if failures:
        raise ExecutionError(failures)
    return [o.run for o in outcomes]  # type: ignore[union-attr]
