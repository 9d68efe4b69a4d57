"""Cross-cutting property-based tests: the substrate never misbehaves.

These hypothesis suites fuzz whole subsystems through their public
surfaces — any legal configuration, any workload, any size — and assert
the invariants downstream components (models, GA, experiments) silently
rely on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.odc import OdcSimulator
from repro.odc.confspace import hadoop_configuration_space
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.config import SparkConf
from repro.sparksim.confspace import spark_configuration_space
from repro.sparksim.memory import MemoryModel
from repro.sparksim.serializer import CompressionModel, SerializerModel
from repro.sparksim.shuffle import ShuffleModel
from repro.sparksim.simulator import SparkSimulator
from repro.workloads import get_workload

SPACE = spark_configuration_space()
HSPACE = hadoop_configuration_space()

configs = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: SPACE.random(np.random.default_rng(seed))
)


class TestSparkConfInvariants:
    @given(configs)
    @settings(max_examples=60, deadline=None)
    def test_derived_quantities_always_sane(self, config):
        conf = SparkConf(config, PAPER_CLUSTER)
        assert conf.executors_per_node >= 1.0
        assert conf.total_task_slots >= 1.0
        assert conf.spark_memory_per_executor > 0
        assert conf.user_memory_per_executor >= 0
        assert 0 <= conf.protected_storage_per_executor <= conf.spark_memory_per_executor

    @given(configs)
    @settings(max_examples=40, deadline=None)
    def test_memory_regions_partition_the_heap(self, config):
        conf = SparkConf(config, PAPER_CLUSTER)
        from repro.sparksim.config import RESERVED_MEMORY_BYTES

        usable = max(conf.executor_memory - RESERVED_MEMORY_BYTES, 16 * 1024**2)
        assert conf.spark_memory_per_executor + conf.user_memory_per_executor == (
            pytest.approx(usable)
        )


class TestCostModelInvariants:
    @given(configs)
    @settings(max_examples=40, deadline=None)
    def test_serializer_costs_positive_and_finite(self, config):
        conf = SparkConf(config, PAPER_CLUSTER)
        ser = SerializerModel(conf)
        assert 0 < ser.serialize_seconds_per_byte() < 1
        assert 0 < ser.deserialize_seconds_per_byte() < 1
        assert 0 < ser.wire_ratio() <= 1.0
        assert ser.memory_expansion() >= 1.0
        codec = CompressionModel(conf)
        assert 0.3 <= codec.ratio() <= 0.95

    @given(configs, st.floats(min_value=1e3, max_value=5e9))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_costs_nonnegative(self, config, raw_bytes):
        conf = SparkConf(config, PAPER_CLUSTER)
        shuffle = ShuffleModel(conf, PAPER_CLUSTER)
        write = shuffle.write_cost(raw_bytes, 24, 0.0, False, 8)
        assert write.cpu_seconds >= 0 and write.disk_seconds >= 0
        assert write.bytes_on_disk <= raw_bytes * 1.01  # never inflates
        read = shuffle.read_cost(raw_bytes, 0.5, 8)
        assert read.cpu_seconds >= 0 and read.network_seconds >= 0
        assert read.rounds >= 0

    @given(configs, st.floats(min_value=0.0, max_value=1e10),
           st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=40, deadline=None)
    def test_memory_outcome_invariants(self, config, working_set, cached):
        conf = SparkConf(config, PAPER_CLUSTER)
        outcome = MemoryModel(conf).task_outcome(
            working_set, resident_cache_bytes_per_executor=cached
        )
        assert 0.0 <= outcome.oom_probability <= 1.0
        assert 0.0 <= outcome.spill_bytes <= working_set


class TestSimulatorInvariants:
    @given(
        configs,
        st.sampled_from(["PR", "KM", "BA", "NW", "WC", "TS", "LR", "JN", "SC"]),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_workload_config_pair_terminates(self, config, abbr):
        workload = get_workload(abbr)
        size = workload.paper_sizes[0]
        result = SparkSimulator().run(workload.job(size), config)
        assert np.isfinite(result.seconds) and result.seconds > 0
        assert result.gc_seconds >= 0
        assert all(s.seconds >= 0 for s in result.stages)
        assert all(s.num_tasks >= 1 for s in result.stages)
        assert all(1.0 <= s.job_rerun_factor <= 3.0 for s in result.stages)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_odc_always_terminates(self, seed):
        config = HSPACE.random(np.random.default_rng(seed))
        result = OdcSimulator().run("PR", 10 * 1024**3, config)
        assert np.isfinite(result.seconds) and result.seconds > 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_identical_seeds_identical_runs(self, seed):
        config = SPACE.random(np.random.default_rng(seed))
        job = get_workload("WC").job(100.0)
        sim = SparkSimulator()
        assert sim.run(job, config).seconds == sim.run(job, config).seconds
