"""Tests for the network model and the wave scheduler."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng
from repro.common.units import MB
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.config import SparkConf
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.network import NetworkModel
from repro.sparksim.scheduler import WaveScheduler, _normal_quantile
from repro.sparksim.task import TaskProfile


def conf(**overrides):
    return SparkConf(SPARK_CONF_SPACE.from_dict(overrides), PAPER_CLUSTER)


def net(**overrides):
    return NetworkModel(conf(**overrides), PAPER_CLUSTER)


def profile(num_tasks=24, compute=5.0, oom=0.0, skew=0.15, gc=0.2):
    return TaskProfile(
        num_tasks=num_tasks,
        compute_seconds=compute,
        io_seconds=1.0,
        shuffle_seconds=1.0,
        gc_seconds=gc,
        spill_bytes=0.0,
        oom_probability=oom,
        max_gc_pause_seconds=0.5,
        network_seconds=0.5,
        skew=skew,
    )


class TestBroadcast:
    def test_zero_bytes_is_free(self):
        assert net().broadcast_seconds(0.0) == 0.0

    def test_grows_with_size(self):
        m = net()
        assert m.broadcast_seconds(100 * MB) > m.broadcast_seconds(1 * MB)

    def test_compression_helps_large_broadcasts(self):
        on = net(**{"spark.broadcast.compress": True})
        off = net(**{"spark.broadcast.compress": False})
        assert on.broadcast_seconds(500 * MB) < off.broadcast_seconds(500 * MB)

    def test_block_size_tradeoff(self):
        tiny = net(**{"spark.broadcast.blockSize": 2})
        default = net(**{"spark.broadcast.blockSize": 8})
        # Tiny blocks pay per-block overhead on a large payload.
        assert tiny.broadcast_seconds(800 * MB) > default.broadcast_seconds(800 * MB)


class TestFailureDetectors:
    def test_default_budget_tolerates_real_pauses(self):
        # Table 2 default: 6000 s budget — effectively disabled.
        assert net().executor_lost_probability(60.0) == 0.0

    def test_pathological_budget_loses_executors(self):
        aggressive = net(**{"spark.akka.heartbeat.pauses": 1000,
                            "spark.akka.failure.detector.threshold": 100})
        # Tolerance 1000 * (100/300) = 333 s; a 2000 s pause overshoots.
        assert aggressive.executor_lost_probability(2000.0) > 0.0

    def test_fetch_failure_needs_timeout_pressure(self):
        m = net(**{"spark.network.timeout": 500})
        assert m.fetch_failure_probability(5.0, 1.0) == 0.0
        tight = net(**{"spark.network.timeout": 20})
        assert tight.fetch_failure_probability(30.0, 30.0) > 0.0

    def test_gc_pause_contributes_to_fetch_stall(self):
        m = net(**{"spark.network.timeout": 20})
        assert m.fetch_failure_probability(5.0, 60.0) > m.fetch_failure_probability(
            5.0, 0.0
        )

    def test_dispatch_faster_with_more_akka_threads(self):
        slow = WaveScheduler(conf(**{"spark.akka.threads": 1,
                                     "spark.driver.cores": 4}))
        fast = WaveScheduler(conf(**{"spark.akka.threads": 8,
                                     "spark.driver.cores": 4}))
        assert fast.dispatch_seconds_per_task() < slow.dispatch_seconds_per_task()

    def test_heartbeat_overhead_bounded(self):
        assert 0.0 < net().heartbeat_overhead_fraction() <= 0.02


class TestWaveScheduler:
    def test_single_wave_when_tasks_fit(self, rng):
        sched = WaveScheduler(conf(**{"spark.executor.cores": 12}))
        timing = sched.stage_time(profile(num_tasks=10), 0.0, rng)
        # One wave: the stage costs roughly one (tail) task, not ten.
        assert timing.seconds < 10 * profile().mean_seconds

    def test_waves_scale_with_task_count(self, rng):
        sched = WaveScheduler(conf())
        small = sched.stage_time(profile(num_tasks=360), 0.0, derive_rng("a"))
        large = sched.stage_time(profile(num_tasks=1440), 0.0, derive_rng("a"))
        assert large.seconds > 2.0 * small.seconds

    def test_oom_probability_inflates_time(self):
        sched = WaveScheduler(conf())
        healthy = sched.stage_time(profile(oom=0.0), 0.0, derive_rng("b"))
        sick = sched.stage_time(profile(oom=0.7), 0.0, derive_rng("b"))
        assert sick.seconds > healthy.seconds
        assert sick.expected_attempts_per_task > 1.0

    def test_job_rerun_capped(self):
        sched = WaveScheduler(conf())
        timing = sched.stage_time(profile(oom=0.99, num_tasks=500), 0.0, derive_rng("c"))
        assert timing.job_rerun_factor <= 3.0

    def test_speculation_caps_heavy_skew(self):
        base = dict(num_tasks=300, skew=0.8)
        rng_a, rng_b = derive_rng("d"), derive_rng("d")
        off = WaveScheduler(conf(**{"spark.speculation": False})).stage_time(
            profile(**base), 0.0, rng_a
        )
        on = WaveScheduler(
            conf(**{"spark.speculation": True, "spark.speculation.quantile": 0.5,
                    "spark.speculation.multiplier": 1.2})
        ).stage_time(profile(**base), 0.0, rng_b)
        assert on.seconds < off.seconds
        assert on.speculation_active

    def test_revive_interval_adds_latency(self):
        quick = WaveScheduler(conf(**{"spark.scheduler.revive.interval": 2}))
        slow = WaveScheduler(conf(**{"spark.scheduler.revive.interval": 50}))
        a = quick.stage_time(profile(), 0.0, derive_rng("e"))
        b = slow.stage_time(profile(), 0.0, derive_rng("e"))
        assert b.seconds > a.seconds

    def test_retry_factor_formula(self):
        sched = WaveScheduler(conf(**{"spark.task.maxFailures": 4}))
        attempts, reruns = sched._retry_factors(0.5, 10)
        # (1 - 0.5^4) / (1 - 0.5) = 1.875
        assert attempts == pytest.approx(1.875)
        assert 1.0 <= reruns <= 3.0

    def test_no_failure_no_retries(self):
        sched = WaveScheduler(conf())
        assert sched._retry_factors(0.0, 100) == (1.0, 1.0)

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_normal_quantile_inverts_cdf(self, p):
        z = _normal_quantile(p)
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert cdf == pytest.approx(p, abs=2e-4)

    def test_normal_quantile_rejects_bounds(self):
        with pytest.raises(ValueError):
            _normal_quantile(0.0)
