"""Shared experiment infrastructure: scales, engine, caches, rendering.

Every substrate execution any experiment performs — collection sweeps
and one-off measurements alike — goes through one process-wide
:class:`~repro.engine.CachedBackend`, so figures that re-measure the
same (program, configuration, size) triples (e.g. Figure 12 after
Figure 13) reuse each other's runs, and the CLI can swap the inner
backend for a :class:`~repro.engine.ProcessPoolBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.space import Configuration
from repro.core.collecting import Collector, TrainingSet
from repro.engine import (
    CachedBackend,
    ExecRequest,
    ExecutionBackend,
    InProcessBackend,
    require_success,
)
from repro.sparksim.dag import JobSpec
from repro.sparksim.simulator import RunResult
from repro.workloads import get_workload


@dataclass(frozen=True)
class Scale:
    """Knobs that trade experiment fidelity for runtime.

    ``PAPER`` reproduces the paper's published settings (2000 training
    examples, 500 test, nt=3600 at lr=0.05); ``FAST`` keeps every code
    path identical at bench-friendly cost.
    """

    name: str
    n_train: int
    n_test: int
    n_trees: int
    learning_rate: float
    tree_complexity: int = 5
    ga_generations: int = 100
    ga_population: int = 60
    fig2_configs: int = 200
    programs: Tuple[str, ...] = ("PR", "KM", "BA", "NW", "WC", "TS")

    def __post_init__(self) -> None:
        if self.n_train < 10 or self.n_test < 5:
            raise ValueError("scale too small to be meaningful")


FAST = Scale(
    name="fast",
    n_train=500,
    n_test=150,
    n_trees=250,
    learning_rate=0.1,
    ga_generations=60,
    fig2_configs=100,
)

PAPER = Scale(
    name="paper",
    n_train=2000,
    n_test=500,
    n_trees=3600,
    learning_rate=0.05,
    ga_generations=100,
    fig2_configs=200,
)


# ----------------------------------------------------------------------
# The experiments' shared execution engine.
# ----------------------------------------------------------------------
_ENGINE: Optional[CachedBackend] = None


def shared_engine() -> CachedBackend:
    """The process-wide engine all experiment executions flow through."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = CachedBackend(InProcessBackend())
    return _ENGINE


def configure_shared_engine(backend: Optional[ExecutionBackend]) -> CachedBackend:
    """Replace the shared engine's substrate (``None`` resets to default).

    The replacement is wrapped in a fresh :class:`CachedBackend`; the
    previous engine (and any worker pool it held) is closed.
    """
    global _ENGINE
    if _ENGINE is not None:
        _ENGINE.close()
    _ENGINE = CachedBackend(backend) if backend is not None else None
    return shared_engine()


def execute_batch(
    pairs: Sequence[Tuple[JobSpec, Configuration]],
) -> List[RunResult]:
    """Measure a batch of (job, configuration) pairs on the shared engine."""
    requests = [ExecRequest(job=job, config=config) for job, config in pairs]
    return require_success(shared_engine().submit(requests))


def execute(job: JobSpec, config: Configuration) -> RunResult:
    """Measure one configuration — the experiments' substrate entry point."""
    return execute_batch([(job, config)])[0]


# ----------------------------------------------------------------------
# Collected-data cache: experiments share training/testing sets.
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def collected(abbr: str, n: int, stream: str, seed: int = 0) -> TrainingSet:
    """Collect (and memoize) ``n`` performance vectors for a program."""
    workload = get_workload(abbr)
    return Collector(workload, seed=seed, engine=shared_engine()).collect(
        n, stream=stream
    )


def test_matrix(train: TrainingSet, test: TrainingSet) -> Tuple[np.ndarray, np.ndarray]:
    """Features/measured-times of a test set, normalized like ``train``."""
    matrix = np.array(test.features())
    matrix[:, -1] = test.to_columns()["datasize_bytes"] / train.size_scale
    return matrix, test.times()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width ASCII table used by every experiment's ``render()``."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def geomean(values: Sequence[float]) -> float:
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0 or np.any(arr <= 0):
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.mean(np.log(arr))))
