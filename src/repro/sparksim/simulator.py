"""The Spark job simulator: DAG execution under one configuration.

:class:`SparkSimulator.run` walks a :class:`~repro.sparksim.dag.JobSpec`
in topological order, resolves RDD caching against storage memory,
profiles each stage's tasks (:mod:`repro.sparksim.task`), schedules them
into waves with stragglers/speculation/retries
(:mod:`repro.sparksim.scheduler`), and adds driver-side costs
(broadcast, collect, dispatch).  The result carries per-stage wall time,
GC time, spill volume and retry counts — everything Figures 13/14 of the
paper report.

Determinism: all stochastic draws come from a generator seeded by
(program, datasize, configuration), so a program-input-config triple
always reproduces the same "measurement", while any change to the triple
decorrelates the noise — mimicking re-running a real cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.common.rng import derive_rng
from repro.common.units import MB
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.config import SparkConf
from repro.sparksim.events import (
    RUN_SPAN,
    STAGE_COMPLETED,
    STAGE_OOM_RETRY,
    stage_event_fields,
)
from repro.sparksim.dag import JobSpec, StageSpec
from repro.sparksim.memory import MemoryModel
from repro.sparksim.network import NetworkModel
from repro.sparksim.scheduler import WaveScheduler
from repro.sparksim.serializer import SerializerModel
from repro.sparksim.task import StageCostModel
from repro.telemetry import events as tele

#: Jobs smaller than this can run entirely on the driver when
#: ``spark.localExecution.enabled`` is true.
_LOCAL_EXECUTION_LIMIT = 200 * MB
#: Multiplicative log-normal measurement noise (cluster jitter).
_MEASUREMENT_NOISE_SIGMA = 0.03


@dataclass(frozen=True)
class StageResult:
    """Observed behaviour of one stage (all iterations combined)."""

    name: str
    seconds: float
    gc_seconds: float
    spill_bytes: float
    num_tasks: int
    iterations: int
    expected_attempts_per_task: float
    job_rerun_factor: float
    compute_core_seconds: float
    io_core_seconds: float
    shuffle_core_seconds: float


@dataclass(frozen=True)
class RunResult:
    """One simulated execution of a program-input pair."""

    program: str
    datasize_bytes: float
    seconds: float
    stages: Tuple[StageResult, ...]

    @property
    def gc_seconds(self) -> float:
        return sum(s.gc_seconds for s in self.stages)

    @property
    def spill_bytes(self) -> float:
        return sum(s.spill_bytes for s in self.stages)

    def stage(self, name: str) -> StageResult:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)


class SparkSimulator:
    """Runs :class:`JobSpec` instances under Table-2 configurations."""

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        noise_sigma: float = _MEASUREMENT_NOISE_SIGMA,
    ):
        self.cluster = cluster
        self.noise_sigma = noise_sigma

    # ------------------------------------------------------------------
    def run(self, job: JobSpec, config) -> RunResult:
        """Execute ``job`` under ``config`` and return the measurement.

        ``config`` may be a :class:`~repro.common.space.Configuration`,
        a plain dict of overrides, or an existing :class:`SparkConf`.
        """
        conf = config if isinstance(config, SparkConf) else SparkConf(config, self.cluster)
        rng = derive_rng(
            "sparksim",
            job.program,
            job.datasize_bytes,
            conf.config.space.encode(conf.config).tobytes(),
        )
        if not tele.enabled():
            return self._execute(job, conf, rng)
        with tele.span(
            RUN_SPAN, program=job.program, datasize_bytes=job.datasize_bytes
        ) as span:
            result = self._execute(job, conf, rng)
            span.note(seconds=round(result.seconds, 6), stages=len(result.stages))
            return result

    def _execute(
        self, job: JobSpec, conf: SparkConf, rng: np.random.Generator
    ) -> RunResult:
        if conf.local_execution and job.total_input_bytes < _LOCAL_EXECUTION_LIMIT:
            return self._run_locally(job, conf, rng)

        cost_model = StageCostModel(conf, self.cluster)
        scheduler = WaveScheduler(conf)
        network = NetworkModel(conf, self.cluster)
        memory = MemoryModel(conf)
        serializer = SerializerModel(conf)

        stages = job.topological_stages()
        shuffle_in_of, shuffle_out_of = self._resolve_flows(stages)
        cache_hit, resident_per_executor = self._resolve_caching(
            stages, shuffle_in_of, memory, serializer
        )
        reduce_partitions_out = self._downstream_partitions(job, cost_model)

        results = []
        total = 0.0
        for stage in stages:
            shuffle_in = shuffle_in_of[stage.name]
            hit = cache_hit if stage.reads_cached else 0.0
            profile = cost_model.profile(
                stage,
                shuffle_in_bytes=shuffle_in,
                resident_cache_bytes_per_executor=resident_per_executor,
                cache_hit_fraction=hit,
                num_reduce_partitions_out=reduce_partitions_out.get(
                    stage.name, conf.default_parallelism
                ),
            )

            # Network-induced failures on top of memory-induced ones.
            waves = max(1.0, profile.num_tasks / max(conf.total_task_slots, 1))
            sustained_network = profile.network_seconds * waves
            extra_failure = 1.0 - (
                1.0 - network.executor_lost_probability(profile.max_gc_pause_seconds)
            ) * (
                1.0
                - network.fetch_failure_probability(
                    sustained_network, profile.max_gc_pause_seconds
                )
            )

            # Each iteration of an iterative stage is an independent
            # execution: draw it separately so straggler luck averages
            # out instead of being multiplied by ``repeat``.  Beyond a
            # dozen draws the mean is stable; scale the remainder.
            drawn = min(stage.repeat, 12)
            timings = [
                scheduler.stage_time(profile, extra_failure, rng)
                for _ in range(drawn)
            ]
            scale = stage.repeat / drawn
            timing = timings[0]

            overhead = network.broadcast_seconds(stage.broadcast_bytes)
            overhead += self._collect_seconds(stage, conf, serializer)
            driver_penalty = self._driver_pressure_factor(stage, conf, serializer)

            stage_seconds = (
                sum(t.seconds for t in timings) * scale
                + overhead * stage.repeat
            ) * driver_penalty
            stage_gc = sum(t.gc_seconds for t in timings) * scale

            attempt_factor = timing.expected_attempts_per_task * timing.job_rerun_factor
            results.append(
                StageResult(
                    name=stage.name,
                    seconds=stage_seconds,
                    gc_seconds=stage_gc,
                    spill_bytes=profile.spill_bytes * profile.num_tasks * stage.repeat,
                    num_tasks=profile.num_tasks,
                    iterations=stage.repeat,
                    expected_attempts_per_task=timing.expected_attempts_per_task,
                    job_rerun_factor=timing.job_rerun_factor,
                    compute_core_seconds=profile.compute_seconds
                    * profile.num_tasks
                    * stage.repeat
                    * attempt_factor,
                    io_core_seconds=profile.io_seconds
                    * profile.num_tasks
                    * stage.repeat
                    * attempt_factor,
                    shuffle_core_seconds=profile.shuffle_seconds
                    * profile.num_tasks
                    * stage.repeat
                    * attempt_factor,
                )
            )
            total += stage_seconds
            if tele.enabled():
                tele.event(
                    STAGE_COMPLETED,
                    program=job.program,
                    **stage_event_fields(results[-1]),
                )
                if attempt_factor > 1.05:
                    tele.event(
                        STAGE_OOM_RETRY,
                        program=job.program,
                        stage=stage.name,
                        expected_attempts_per_task=timing.expected_attempts_per_task,
                        job_rerun_factor=timing.job_rerun_factor,
                    )

        total *= float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))
        return RunResult(
            program=job.program,
            datasize_bytes=job.datasize_bytes,
            seconds=total,
            stages=tuple(results),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_flows(stages) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Propagate shuffle volumes through the DAG (per iteration).

        A stage's shuffle input is the sum of its parents' shuffle
        output; its own output is ``(input + shuffle-in) x ratio``.
        Stages must already be in topological order.
        """
        shuffle_in: Dict[str, float] = {}
        shuffle_out: Dict[str, float] = {}
        for stage in stages:
            incoming = sum(shuffle_out[p] for p in stage.parents)
            shuffle_in[stage.name] = incoming
            shuffle_out[stage.name] = (
                stage.input_bytes + incoming
            ) * stage.shuffle_out_ratio
        return shuffle_in, shuffle_out

    def _resolve_caching(
        self,
        stages,
        shuffle_in_of: Dict[str, float],
        memory: MemoryModel,
        serializer: SerializerModel,
    ):
        """Admission of cached RDDs into storage memory.

        Returns (cache_hit_fraction, resident_cached_bytes_per_executor).
        """
        cached_raw = sum(
            s.input_bytes + shuffle_in_of[s.name]
            for s in stages
            if s.cache_output
        )
        footprint = cached_raw * serializer.cached_bytes_per_raw_byte()
        hit = memory.cache_hit_fraction(footprint)
        resident = footprint * hit
        per_executor = resident / max(memory.conf.num_executors, 1)
        return hit, per_executor

    def _downstream_partitions(self, job: JobSpec, cost_model: StageCostModel):
        """Map stage name -> partition count of its widest consumer."""
        out: Dict[str, int] = {}
        for stage in job.stages:
            for parent in stage.parents:
                out[parent] = max(out.get(parent, 0), cost_model.num_partitions(stage))
        return out

    def _collect_seconds(
        self, stage: StageSpec, conf: SparkConf, serializer: SerializerModel
    ) -> float:
        """Driver-side cost of collecting a stage's result."""
        if stage.collect_bytes <= 0:
            return 0.0
        transfer = stage.collect_bytes / self.cluster.network_bandwidth_bytes_per_s
        deser = stage.collect_bytes * serializer.deserialize_seconds_per_byte()
        # The driver processes results with its own cores.
        return transfer + deser / max(conf.driver_cores, 1)

    def _driver_pressure_factor(
        self, stage: StageSpec, conf: SparkConf, serializer: SerializerModel
    ) -> float:
        """Penalty when collected results strain the driver heap.

        An undersized ``spark.driver.memory`` facing a large collect
        triggers driver GC storms and, past the heap size, job-killing
        driver OOMs that force re-submission.
        """
        if stage.collect_bytes <= 0:
            return 1.0
        live = stage.collect_bytes * serializer.memory_expansion()
        occupancy = live / max(conf.driver_memory, 1)
        if occupancy < 0.5:
            return 1.0
        if occupancy < 1.0:
            return 1.0 + 1.5 * (occupancy - 0.5)  # GC storm regime
        return min(1.75 + 2.0 * (occupancy - 1.0), 6.0)  # OOM/re-submit regime

    # ------------------------------------------------------------------
    def _run_locally(
        self, job: JobSpec, conf: SparkConf, rng: np.random.Generator
    ) -> RunResult:
        """Whole-job local execution on the driver (small inputs only)."""
        results = []
        total = 0.0
        for stage in job.topological_stages():
            core_seconds = (
                (stage.input_bytes / MB) * stage.cpu_seconds_per_mb * stage.repeat
            )
            seconds = core_seconds / max(conf.driver_cores, 1) + 0.05 * stage.repeat
            results.append(
                StageResult(
                    name=stage.name,
                    seconds=seconds,
                    gc_seconds=0.02 * seconds,
                    spill_bytes=0.0,
                    num_tasks=1,
                    iterations=stage.repeat,
                    expected_attempts_per_task=1.0,
                    job_rerun_factor=1.0,
                    compute_core_seconds=core_seconds,
                    io_core_seconds=0.0,
                    shuffle_core_seconds=0.0,
                )
            )
            total += seconds
            if tele.enabled():
                tele.event(
                    STAGE_COMPLETED,
                    program=job.program,
                    local=True,
                    **stage_event_fields(results[-1]),
                )
        total *= float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))
        return RunResult(
            program=job.program,
            datasize_bytes=job.datasize_bytes,
            seconds=total,
            stages=tuple(results),
        )
