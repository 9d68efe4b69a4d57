"""The collecting component (Section 3.1, left block of Figure 4).

For a given program, the Configuration Generator draws ``k`` random
Table-2 configurations per input dataset size; the Dataset-size
Generator produces ``m = 10`` sizes at least 10% apart (Equation 4);
each (configuration, size) pair is executed on the substrate and stored
as a performance vector (Equation 5):

    Pv_i = {t_i, c_i1, ..., c_i41, dsize_i}

Each batch of vectors is laid out as one float64 row block
(:func:`performance_rows`), and a :class:`TrainingSet` holds the
concatenated blocks as columns.  It exposes the model-facing matrix
view: features are the 41 normalized parameter encodings plus the
dataset size over the largest one, targets are log execution times
(predicting log-time is what makes minimizing Equation 2's *relative*
error well-posed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.rng import derive_rng
from repro.common.space import (
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    IntParameter,
)
from repro.engine import ExecRequest, ExecutionBackend, InProcessBackend, require_success
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.telemetry import events as tele
from repro.workloads.base import Workload
from repro.workloads.datagen import DatasetSizeGenerator


@dataclass(frozen=True)
class CollectBatch:
    """One checkpointable unit of collection: all requests for one size.

    A batch is the collector's unit of progress — :meth:`Collector.collect`
    can checkpoint the rows gathered so far after each one, so a crashed
    collection resumes at the next batch instead of from scratch.  The
    plan (and therefore every configuration drawn) is a pure function of
    (workload, seed, stream), so replanning after a crash reproduces the
    identical batches.
    """

    index: int
    size: float
    requests: Tuple[ExecRequest, ...]

    @property
    def datasize_bytes(self) -> float:
        return self.requests[0].job.datasize_bytes


# ----------------------------------------------------------------------
# Raw column representation.
#
# Encoded [0,1] vectors are lossy (out-of-range defaults clip), so the
# column form stores each parameter's *raw* value as a float64 — the
# value itself for numeric knobs, the choice index for categoricals —
# which reconstructs the exact Configuration (small integers and choice
# indices are exact in float64).
# ----------------------------------------------------------------------
def raw_value(param, value) -> float:
    """One parameter value as its exact float64 column representation."""
    if isinstance(param, CategoricalParameter):
        return float(param.choices.index(value))
    return float(value)


def raw_columns(
    space: ConfigurationSpace, configs: Sequence[Configuration]
) -> np.ndarray:
    """:func:`raw_value` over many configurations, one parameter column
    at a time: an ``(n, n_params)`` float64 matrix."""
    values = np.empty((len(configs), len(space.parameters)))
    for j, param in enumerate(space.parameters):
        column = [config[param.name] for config in configs]
        if isinstance(param, CategoricalParameter):
            index: dict = {}  # first index wins, as with list.index
            for i, choice in enumerate(param.choices):
                index.setdefault(choice, i)
            column = [index[value] for value in column]
        values[:, j] = column
    return values


def value_from_raw(param, raw: float):
    """Inverse of :func:`raw_value`."""
    if isinstance(param, CategoricalParameter):
        return param.choices[int(raw)]
    if isinstance(param, IntParameter):
        return int(raw)
    return float(raw)


def encode_raw_columns(space: ConfigurationSpace, values: np.ndarray) -> np.ndarray:
    """Vectorized ``space.encode`` over a raw-value matrix.

    Bit-for-bit equal to encoding row by row: every per-parameter
    branch applies the same clip/subtract/divide in the same order on
    the same exact float64 inputs (integers and choice indices are
    exact in float64, and IEEE ops round identically whether issued by
    CPython or numpy).  Proven by ``tests/test_store_blobfmt.py``.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=float)
    for j, param in enumerate(space.parameters):
        column = values[:, j]
        if isinstance(param, CategoricalParameter):
            m = len(param.choices)
            out[:, j] = 0.0 if m == 1 else column / (m - 1)
        else:
            low, high = float(param.low), float(param.high)
            if high == low:
                out[:, j] = 0.0
            else:
                clipped = np.minimum(np.maximum(column, low), high)
                out[:, j] = (clipped - low) / (high - low)
    return out


def performance_rows(
    space: ConfigurationSpace,
    seconds,
    datasize,
    datasize_bytes,
    configurations: Sequence[Configuration],
) -> np.ndarray:
    """Lay performance vectors out as one ``(n, 3 + n_params)`` float64
    row block: seconds, datasize, datasize_bytes, then the raw parameter
    values of :func:`raw_columns` — the layout every
    :class:`TrainingSet` is built from.  ``datasize`` and
    ``datasize_bytes`` may be one value for the whole block.

    Rejects a non-finite time or datasize, a non-positive time and a
    non-positive datasize in bytes.
    """
    block = np.empty((len(configurations), 3 + len(space.parameters)))
    block[:, 0] = seconds
    block[:, 1] = datasize
    block[:, 2] = datasize_bytes
    block[:, 3:] = raw_columns(space, configurations)
    if not np.isfinite(block[:, :3]).all():
        raise ValueError("execution time and datasize must be finite")
    if np.any(block[:, 0] <= 0):
        raise ValueError("execution time must be positive")
    if np.any(block[:, 2] <= 0):
        raise ValueError("datasize must be positive")
    return block


class TrainingSet:
    """The matrix ``S`` of Section 3.2, with feature/target views.

    Held as float64 columns (seconds, datasize, datasize_bytes, raw
    parameter values), the set's one in-memory form, built from the
    collector's row blocks or a stored blob — where the columns may be
    read-only ``np.memmap`` views, so a large set is never copied into
    private memory.
    """

    def __init__(self, space: ConfigurationSpace, columns):
        """Adopt column arrays (``seconds``, ``datasize``,
        ``datasize_bytes``, ``values`` and optionally precomputed
        ``features`` / ``log_times``) as-is — ordinary, read-only, or
        memmap — never copying them."""
        seconds = np.asarray(columns["seconds"], dtype=float)
        datasize = np.asarray(columns["datasize"], dtype=float)
        datasize_bytes = np.asarray(columns["datasize_bytes"], dtype=float)
        values = np.asarray(columns["values"], dtype=float)
        n = len(seconds)
        if n == 0:
            raise ValueError("training set cannot be empty")
        if not (len(datasize) == len(datasize_bytes) == len(values) == n):
            raise ValueError("column length mismatch")
        if values.ndim != 2 or values.shape[1] != len(space.names):
            raise ValueError(
                f"expected (n, {len(space.names)}) raw-value matrix, "
                f"got {values.shape}"
            )
        self.space = space
        self._n = n
        self._size_scale = float(np.max(datasize_bytes))
        self._columns = {
            "seconds": seconds,
            "datasize": datasize,
            "datasize_bytes": datasize_bytes,
            "values": values,
        }
        # Derived views are built lazily once; the columns never change,
        # so the cached (read-only) arrays can be handed out directly.
        self._features: Optional[np.ndarray] = (
            np.asarray(columns["features"], dtype=float)
            if columns.get("features") is not None
            else None
        )
        self._log_times: Optional[np.ndarray] = (
            np.asarray(columns["log_times"], dtype=float)
            if columns.get("log_times") is not None
            else None
        )

    @classmethod
    def from_rows(cls, space: ConfigurationSpace, rows: np.ndarray) -> "TrainingSet":
        """Build from an ``(n, 3 + n_params)`` row block laid out as
        :func:`performance_rows` does; the block is marked read-only
        and its columns are adopted as views."""
        rows.setflags(write=False)
        return cls(
            space,
            {
                "seconds": rows[:, 0],
                "datasize": rows[:, 1],
                "datasize_bytes": rows[:, 2],
                "values": rows[:, 3:],
            },
        )

    def __len__(self) -> int:
        return self._n

    @property
    def size_scale(self) -> float:
        """Datasize normalizer (max observed bytes)."""
        return self._size_scale

    def features(self) -> np.ndarray:
        """(n, 42) matrix: 41 encoded parameters + normalized datasize.

        Built once with the vectorized encoder (bit-identical to
        ``space.encode`` row by row) and cached read-only — copy before
        mutating.  Blob-loaded sets return the stored section without
        recomputing anything.
        """
        if self._features is None:
            matrix = np.empty((self._n, len(self.space.names) + 1))
            matrix[:, :-1] = encode_raw_columns(self.space, self._columns["values"])
            matrix[:, -1] = self._columns["datasize_bytes"] / self._size_scale
            matrix.setflags(write=False)
            self._features = matrix
        return self._features

    def seed_vectors(self, n: int) -> List[np.ndarray]:
        """Encoded configurations of the first ``n`` rows (the GA's
        seeds): writable copies of :meth:`features` rows without the
        datasize column, bit-equal to ``space.encode`` of each row's
        configuration."""
        return list(np.array(self.features()[:n, :-1]))

    def log_times(self) -> np.ndarray:
        """Cached (read-only) log-time targets — copy before mutating."""
        if self._log_times is None:
            logs = np.log(self.times())
            logs.setflags(write=False)
            self._log_times = logs
        return self._log_times

    def times(self) -> np.ndarray:
        """Raw-seconds targets: the adopted column, read-only for every
        set the collector or the store builds."""
        return self._columns["seconds"]

    def rows(self) -> np.ndarray:
        """A fresh ``(n, 3 + n_params)`` row block, the layout of
        :func:`performance_rows`."""
        cols = self._columns
        return np.column_stack(
            [cols["seconds"], cols["datasize"], cols["datasize_bytes"], cols["values"]]
        )

    def to_columns(self) -> dict:
        """Column form for serialization (always includes the derived
        ``features``/``log_times`` arrays, so a reader never recomputes
        them)."""
        cols = dict(self._columns)
        cols["features"] = self.features()
        cols["log_times"] = self.log_times()
        return cols


class Collector:
    """Drives simulated executions to build training/testing sets.

    Parameters
    ----------
    workload:
        The program to collect for.
    cluster:
        Hardware substrate.
    space:
        Configuration space to sample (defaults to the 41-param Table 2).
    num_sizes:
        The paper's ``m`` (default 10).
    seed:
        Root of the CG's random stream.
    engine:
        The :class:`~repro.engine.ExecutionBackend` that executes the
        (configuration, size) pairs.  Defaults to a fresh
        :class:`~repro.engine.InProcessBackend` on ``cluster``; pass a
        :class:`~repro.engine.ProcessPoolBackend` to collect across
        cores or a :class:`~repro.engine.CachedBackend` to reuse runs.
    """

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec = PAPER_CLUSTER,
        space: ConfigurationSpace = SPARK_CONF_SPACE,
        num_sizes: int = 10,
        seed: int = 0,
        engine: Optional[ExecutionBackend] = None,
    ):
        self.workload = workload
        self.cluster = cluster
        self.space = space
        self.num_sizes = num_sizes
        self.seed = seed
        self.engine = engine if engine is not None else InProcessBackend(cluster)
        low, high = workload.size_range()
        self.sizes: List[float] = DatasetSizeGenerator(num_sizes).generate(low, high)

    # ------------------------------------------------------------------
    def collect(
        self,
        total_examples: int,
        stream: str = "train",
        resume_from: Optional[TrainingSet] = None,
        checkpoint: Optional[Callable[[TrainingSet, int, int], None]] = None,
    ) -> TrainingSet:
        """Collect ``total_examples`` performance vectors.

        Examples are spread evenly over the generator's dataset sizes
        (``k = total / m`` configurations per size, Section 3.1).
        Distinct ``stream`` labels produce disjoint random configuration
        streams — the paper's train (2000) vs. test (500) sets.

        Execution is batched per size through the engine, so a parallel
        or caching backend accelerates the whole sampling loop; the CG's
        random stream is drawn up front in the original order, keeping
        the collected set identical across backends.  Each batch's row
        block is kept and, with no ``checkpoint``, the blocks are
        concatenated once at the end.

        ``resume_from`` is a stored prefix of this same collection: when
        its length ends a batch of the plan, its rows start the set and
        those batches are skipped; any other set is ignored.
        ``checkpoint``, if given, is called after every batch with the
        set so far, the number of batches done and the plan's batch
        count.  Both are the job service's crash-recovery hooks; since
        the plan is a pure function of (workload, seed, stream), a
        resumed collection equals an uninterrupted one byte for byte.
        """
        batches = self.plan(total_examples, stream=stream)
        blocks: List[np.ndarray] = []
        skip = 0
        if resume_from is not None:
            ends = list(itertools.accumulate(len(b.requests) for b in batches))
            if len(resume_from) in ends:
                skip = ends.index(len(resume_from)) + 1
                blocks.append(resume_from.rows())
        done = sum(len(block) for block in blocks)
        training: Optional[TrainingSet] = None
        with tele.span(
            "collect",
            program=self.workload.abbr,
            examples=total_examples,
            stream=stream,
            resumed=skip > 0,
        ):
            for batch in batches[skip:]:
                blocks.append(self.run_batch(batch, done=done, total=total_examples))
                done += len(blocks[-1])
                if checkpoint is not None:
                    training = TrainingSet.from_rows(
                        self.space, np.concatenate(blocks)
                    )
                    checkpoint(training, batch.index + 1, len(batches))
        if training is None:
            training = TrainingSet.from_rows(self.space, np.concatenate(blocks))
        return training

    def plan(self, total_examples: int, stream: str = "train") -> List[CollectBatch]:
        """Draw the full batch plan for a collection, without executing.

        Configurations are drawn size-by-size in the exact order
        :meth:`collect` executes them, from an RNG derived solely from
        (workload, seed, stream) — replanning always reproduces the same
        batches, which is what makes batch-level checkpoint/resume
        byte-identical to an uninterrupted collection.
        """
        if total_examples < 1:
            raise ValueError("need at least one example")
        rng = derive_rng("collector", self.workload.abbr, self.seed, stream)
        per_size = [total_examples // self.num_sizes] * self.num_sizes
        for i in range(total_examples % self.num_sizes):
            per_size[i] += 1
        batches: List[CollectBatch] = []
        for size, k in zip(self.sizes, per_size):
            if k == 0:
                continue
            job = self.workload.job(size)
            requests = tuple(
                ExecRequest(job=job, config=self.space.random(rng))
                for _ in range(k)
            )
            batches.append(
                CollectBatch(index=len(batches), size=size, requests=requests)
            )
        return batches

    def run_batch(
        self, batch: CollectBatch, done: int = 0, total: Optional[int] = None
    ) -> np.ndarray:
        """Execute one planned batch through the engine and return its
        ``(k, 3 + n_params)`` row block (:func:`performance_rows`).

        ``done``/``total`` carry overall progress into the
        ``collect.size`` telemetry event so resumed collections emit the
        same event stream an uninterrupted one does.
        """
        runs = require_success(self.engine.submit(list(batch.requests)))
        block = performance_rows(
            self.space,
            [run.seconds for run in runs],
            batch.size,
            batch.datasize_bytes,
            [request.config for request in batch.requests],
        )
        done += len(block)
        tele.event(
            "collect.size",
            program=self.workload.abbr,
            size=batch.size,
            examples=len(batch.requests),
            done=done,
            total=total if total is not None else done,
        )
        return block

    @staticmethod
    def simulated_hours(training_set: TrainingSet) -> float:
        """Cluster-hours the collection would have cost on real hardware
        (Table 3's 'Collecting' column).

        Summed left-to-right over ``times()`` — the same order and the
        same float adds for collected and store-loaded sets alike (the
        value feeds the report fingerprint).
        """
        return float(sum(float(s) for s in training_set.times()) / 3600.0)
