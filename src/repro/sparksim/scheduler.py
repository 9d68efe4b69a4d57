"""Stage scheduling: waves, stragglers, speculation, and retries.

Turns a :class:`~repro.sparksim.task.TaskProfile` into the wall-clock
time of one stage iteration.  The scheduling knobs of Table 2 act here:

* ``spark.speculation`` (+ interval/multiplier/quantile) re-launches
  straggler tasks and caps the stage tail;
* ``spark.locality.wait`` delays launches hoping for a local slot (the
  locality *benefit* is applied in the shuffle-read model; the *cost* —
  the wait itself — is charged here);
* ``spark.scheduler.revive.interval`` delays resource offers, adding
  latency to every scheduling round;
* ``spark.task.maxFailures`` bounds OOM/fetch-failure retries; exhausting
  it aborts the job, which the user re-submits (the paper's "rerun some
  tasks many times" regime for under-provisioned heaps).

The makespan is computed in *expectation* — log-normal order statistics
for the longest task, expected straggler contribution, expected retry
counts — with only a small multiplicative noise drawn per stage.  A real
cluster is noisier, but an analytic substrate keeps the configuration
response learnable, which is the property the paper's modelling study
depends on (their measured models reach 7.6% relative error; a substrate
with 30% run-to-run noise could never reproduce that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sparksim.config import SparkConf
from repro.sparksim.task import TaskProfile

#: Fraction of a task's cost paid by an attempt that dies with OOM
#: (tasks typically fail deep into their aggregation phase).
_FAILED_ATTEMPT_COST = 0.7
#: Hard cap on job-level re-submissions when a stage keeps aborting.
_MAX_JOB_RERUNS = 3.0
#: Probability a task lands on a slow node / suffers interference.
_STRAGGLER_PROBABILITY = 0.025
#: Mean slowdown of a straggler task (hardware/interference, not skew).
_STRAGGLER_FACTOR = 2.9
#: Residual per-stage measurement noise (log-normal sigma).
_STAGE_NOISE_SIGMA = 0.04


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock outcome of one stage iteration."""

    seconds: float
    gc_seconds: float
    expected_attempts_per_task: float
    job_rerun_factor: float
    speculation_active: bool


class WaveScheduler:
    """Computes stage makespans under one configuration."""

    def __init__(self, conf: SparkConf):
        self.conf = conf

    # ------------------------------------------------------------------
    def _expected_longest(self, profile: TaskProfile) -> float:
        """E[max of n log-normal task times] (Cramér approximation)."""
        n = profile.num_tasks
        sigma = max(profile.skew, 1e-3)
        if n <= 1:
            return profile.mean_seconds
        z = math.sqrt(2.0 * math.log(n))
        return profile.mean_seconds * math.exp(sigma * z - 0.5 * sigma * sigma)

    def _tail_seconds(self, profile: TaskProfile) -> tuple[float, bool, float]:
        """Expected stage tail: skew tail vs. straggler tail vs. speculation.

        Returns (tail_seconds, speculation_active, speculation_overhead).
        """
        mean = profile.mean_seconds
        longest = self._expected_longest(profile)

        # Probability at least one straggler occurs, and its slowdown.
        p_any = 1.0 - (1.0 - _STRAGGLER_PROBABILITY) ** profile.num_tasks
        straggler_tail = mean * (1.0 + p_any * (_STRAGGLER_FACTOR - 1.0))
        tail = max(longest, straggler_tail)

        overhead = 0.0
        active = False
        if self.conf.speculation and profile.num_tasks >= 2:
            # A speculative copy launches once the completion quantile is
            # reached and the task exceeds multiplier x median; the stage
            # then waits for the copy instead of the original.
            quantile = min(max(self.conf.speculation_quantile, 0.001), 0.999)
            launch_at = mean * math.exp(
                max(profile.skew, 1e-3) * _normal_quantile(quantile)
            )
            cap = max(mean * self.conf.speculation_multiplier, launch_at) + mean
            if cap < tail:
                tail = cap
                active = True
            overhead = 0.002 / max(self.conf.speculation_interval, 0.01)
        return tail, active, overhead

    # ------------------------------------------------------------------
    def _retry_factors(
        self, oom_probability: float, num_tasks: int
    ) -> tuple[float, float]:
        """Expected attempts per task and job-level rerun factor.

        With per-attempt failure probability ``p`` and ``k`` =
        ``spark.task.maxFailures``, attempts-until-success (truncated) is
        ``(1 - p^k) / (1 - p)``; the probability *some* task exhausts all
        ``k`` attempts aborts the job, which is then resubmitted — the
        expected number of submissions is ``1 / (1 - P(abort))``, capped.
        """
        p = float(min(max(oom_probability, 0.0), 0.995))
        k = self.conf.task_max_failures
        if p <= 0.0:
            return 1.0, 1.0
        attempts = (1.0 - p**k) / (1.0 - p)
        p_task_aborts = p**k
        # P(no task aborts) across the stage's tasks.
        log_ok = num_tasks * math.log(max(1.0 - p_task_aborts, 1e-12))
        p_stage_ok = math.exp(max(log_ok, -60.0))
        reruns = min(1.0 / max(p_stage_ok, 1.0 / _MAX_JOB_RERUNS), _MAX_JOB_RERUNS)
        return attempts, reruns

    # ------------------------------------------------------------------
    def stage_time(
        self,
        profile: TaskProfile,
        extra_failure_probability: float,
        rng: np.random.Generator,
    ) -> StageTiming:
        """Expected wall-clock seconds for one iteration of a stage.

        ``extra_failure_probability`` folds in network-model failures
        (executor lost, fetch timeouts) on top of the memory model's OOM
        probability.  ``rng`` supplies only the residual stage noise.
        """
        slots = max(self.conf.total_task_slots, 1)
        mean = profile.mean_seconds
        tail, speculation_active, spec_overhead = self._tail_seconds(profile)

        p_fail = 1.0 - (1.0 - profile.oom_probability) * (
            1.0 - min(max(extra_failure_probability, 0.0), 0.95)
        )
        attempts, reruns = self._retry_factors(p_fail, profile.num_tasks)
        attempt_factor = 1.0 + (attempts - 1.0) * _FAILED_ATTEMPT_COST

        total_work = profile.num_tasks * mean * attempt_factor
        tail *= attempt_factor
        if profile.num_tasks <= slots:
            makespan = tail
            waves = 1
        else:
            waves = int(math.ceil(profile.num_tasks / slots))
            makespan = total_work / slots + tail * (1.0 - 1.0 / slots)

        # Scheduling latency: dispatch cost per task (driver-side, akka
        # threads) + revive-interval and locality-wait delays per wave.
        dispatch = profile.num_tasks * self.dispatch_seconds_per_task()
        per_wave_latency = (
            0.3 * self.conf.revive_interval + 0.08 * self.conf.locality_wait
        )
        makespan += dispatch + waves * per_wave_latency + spec_overhead

        makespan *= reruns
        makespan *= float(rng.lognormal(mean=0.0, sigma=_STAGE_NOISE_SIGMA))
        gc_total = profile.gc_seconds * profile.num_tasks * attempt_factor * reruns
        return StageTiming(
            seconds=float(makespan),
            gc_seconds=float(gc_total),
            expected_attempts_per_task=float(attempts),
            job_rerun_factor=float(reruns),
            speculation_active=speculation_active,
        )

    def dispatch_seconds_per_task(self) -> float:
        """Driver-side cost to launch one task.

        Serializing and shipping a task closure takes ~1 ms and is
        processed by ``spark.akka.threads`` actor threads in parallel
        (up to the driver's core budget).
        """
        threads = min(self.conf.akka_threads, self.conf.driver_cores * 2)
        return 0.0012 / max(threads, 1)


def _normal_quantile(p: float) -> float:
    """Standard normal inverse CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )
