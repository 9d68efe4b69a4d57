"""Integration tests for the end-to-end Spark simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import GB, MB
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.dag import JobSpec, StageSpec
from repro.sparksim.simulator import SparkSimulator


class TestDeterminism:
    def test_same_triple_same_measurement(self, simulator, terasort):
        job = terasort.job(20.0)
        config = SPARK_CONF_SPACE.default()
        a = simulator.run(job, config)
        b = simulator.run(job, config)
        assert a.seconds == b.seconds
        assert [s.seconds for s in a.stages] == [s.seconds for s in b.stages]

    def test_different_config_different_measurement(self, simulator, terasort, rng):
        job = terasort.job(20.0)
        a = simulator.run(job, SPARK_CONF_SPACE.random(rng))
        b = simulator.run(job, SPARK_CONF_SPACE.random(rng))
        assert a.seconds != b.seconds


class TestStructure:
    def test_result_carries_all_stages(self, simulator, kmeans):
        result = simulator.run(kmeans.job(160.0), SPARK_CONF_SPACE.default())
        assert len(result.stages) == 5
        assert result.stage("stageC-iterate").iterations == 10

    def test_total_is_sum_of_stages_with_noise(self, simulator, terasort):
        result = simulator.run(terasort.job(10.0), SPARK_CONF_SPACE.default())
        stage_sum = sum(s.seconds for s in result.stages)
        assert result.seconds == pytest.approx(stage_sum, rel=0.15)

    def test_gc_and_spill_aggregates(self, simulator, terasort):
        result = simulator.run(terasort.job(30.0), SPARK_CONF_SPACE.default())
        assert result.gc_seconds > 0
        assert result.spill_bytes >= 0
        assert result.gc_seconds == pytest.approx(
            sum(s.gc_seconds for s in result.stages)
        )

    def test_unknown_stage_lookup_raises(self, simulator, terasort):
        result = simulator.run(terasort.job(10.0), SPARK_CONF_SPACE.default())
        with pytest.raises(KeyError):
            result.stage("nope")


class TestPhysics:
    def test_more_data_takes_longer_under_fixed_config(self, simulator, terasort):
        config = SPARK_CONF_SPACE.from_dict({"spark.executor.memory": 8192,
                                             "spark.executor.cores": 4})
        times = [simulator.run(terasort.job(s), config).seconds
                 for s in terasort.paper_sizes]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_bigger_heap_beats_default_on_large_input(self, simulator, terasort):
        job = terasort.job(50.0)
        small = simulator.run(job, SPARK_CONF_SPACE.default())
        big = simulator.run(
            job,
            SPARK_CONF_SPACE.from_dict({"spark.executor.memory": 12288,
                                        "spark.executor.cores": 2,
                                        "spark.default.parallelism": 50}),
        )
        assert big.seconds < small.seconds

    def test_default_config_degrades_superlinearly(self, simulator, kmeans):
        """The paper's core observation: default 1 GB heaps get *relatively*
        worse as the input grows."""
        config = SPARK_CONF_SPACE.default()
        t_small = simulator.run(kmeans.job(160.0), config).seconds
        t_large = simulator.run(kmeans.job(288.0), config).seconds
        assert t_large / t_small > 288.0 / 160.0

    def test_serializer_choice_matters_for_shuffle_heavy_job(self, simulator):
        from repro.workloads import get_workload

        pr = get_workload("PR")
        job = pr.job(2.0)
        base = {"spark.executor.memory": 8192, "spark.executor.cores": 4,
                "spark.default.parallelism": 50}
        java = simulator.run(job, SPARK_CONF_SPACE.from_dict(
            {**base, "spark.serializer": "java"}))
        kryo = simulator.run(job, SPARK_CONF_SPACE.from_dict(
            {**base, "spark.serializer": "kryo"}))
        assert kryo.seconds < java.seconds

    def test_local_execution_shortcut_for_tiny_jobs(self, simulator):
        tiny = JobSpec(
            "tiny",
            datasize_bytes=50 * MB,
            stages=(StageSpec(name="only", input_bytes=50 * MB,
                              cpu_seconds_per_mb=0.01),),
        )
        local = simulator.run(tiny, SPARK_CONF_SPACE.from_dict(
            {"spark.localExecution.enabled": True, "spark.driver.cores": 4}))
        distributed = simulator.run(tiny, SPARK_CONF_SPACE.default())
        # Local mode skips all cluster dispatch overhead for a tiny input.
        assert local.stages[0].num_tasks == 1
        assert local.seconds < distributed.seconds * 5  # same ballpark or better

    def test_local_execution_ignored_for_big_jobs(self, simulator, terasort):
        job = terasort.job(20.0)
        enabled = simulator.run(job, SPARK_CONF_SPACE.from_dict(
            {"spark.localExecution.enabled": True}))
        assert len(enabled.stages) == 2
        assert enabled.stages[0].num_tasks > 1

    def test_driver_pressure_penalizes_big_collect(self, simulator):
        def job_with_collect(collect_mb):
            return JobSpec(
                "collector",
                datasize_bytes=2 * GB,
                stages=(StageSpec(name="s", input_bytes=2 * GB,
                                  collect_bytes=collect_mb * MB),),
            )

        config = SPARK_CONF_SPACE.from_dict({"spark.driver.memory": 1024})
        small = simulator.run(job_with_collect(10), config)
        large = simulator.run(job_with_collect(2000), config)
        assert large.seconds > small.seconds * 1.5

    @given(st.sampled_from([10.0, 20.0, 30.0, 40.0, 50.0]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_any_random_config_terminates_with_positive_time(self, size, seed):
        from repro.workloads import get_workload

        sim = SparkSimulator()
        config = SPARK_CONF_SPACE.random(np.random.default_rng(seed))
        result = sim.run(get_workload("TS").job(size), config)
        assert np.isfinite(result.seconds) and result.seconds > 0
