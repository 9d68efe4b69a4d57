"""Tests for SparkConf derived quantities (executor packing, memory)."""

import pytest

from repro.common.units import MB
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.config import RESERVED_MEMORY_BYTES, SparkConf
from repro.sparksim.confspace import SPARK_CONF_SPACE


def conf(**overrides):
    return SparkConf(SPARK_CONF_SPACE.from_dict(overrides), PAPER_CLUSTER)


class TestTypedViews:
    def test_unit_conversions(self):
        c = conf()
        assert c.executor_memory == 1024 * MB
        assert c.shuffle_file_buffer == 32 * 1024
        assert c.speculation_interval == pytest.approx(0.1)  # ms -> s

    def test_dict_access_with_alias(self):
        c = conf()
        assert c["spark_executor_cores"] == c["spark.executor.cores"]

    def test_codec_block_size_follows_active_codec(self):
        lz4 = conf(**{
            "spark.io.compression.codec": "lz4",
            "spark.io.compression.lz4.blockSize": 64,
            "spark.io.compression.snappy.blockSize": 8,
        })
        assert lz4.codec_block_size == 64 * 1024
        snappy = conf(**{
            "spark.io.compression.codec": "snappy",
            "spark.io.compression.lz4.blockSize": 64,
            "spark.io.compression.snappy.blockSize": 8,
        })
        assert snappy.codec_block_size == 8 * 1024

    def test_off_heap_zero_when_disabled(self):
        c = conf(**{"spark.memory.offHeap.size": 500,
                    "spark.memory.offHeap.enabled": False})
        assert c.off_heap_size == 0
        on = conf(**{"spark.memory.offHeap.size": 500,
                     "spark.memory.offHeap.enabled": True})
        assert on.off_heap_size == 500 * MB


class TestExecutorPacking:
    def test_core_bound_packing(self):
        c = conf(**{"spark.executor.cores": 12, "spark.executor.memory": 1024})
        # 72 cores / 12 = 6 executors per node (memory is plentiful).
        assert c.executors_per_node == pytest.approx(6.0)
        assert c.total_task_slots == pytest.approx(6 * 5 * 12)

    def test_memory_bound_packing(self):
        c = conf(**{"spark.executor.cores": 1, "spark.executor.memory": 12288})
        # 56 GB usable / (12 GB x 1.1) ~ 4.2 executors, not 72.
        assert c.executors_per_node < 5.0
        assert c.executors_per_node == pytest.approx(
            PAPER_CLUSTER.usable_memory_per_node_bytes / (12288 * MB * 1.1)
        )

    def test_at_least_one_executor(self):
        c = conf(**{"spark.executor.cores": 12, "spark.executor.memory": 12288})
        assert c.executors_per_node >= 1.0

    def test_more_cores_fewer_executors(self):
        few = conf(**{"spark.executor.cores": 2})
        many = conf(**{"spark.executor.cores": 8})
        assert few.executors_per_node > many.executors_per_node


class TestMemoryRegions:
    def test_unified_region_respects_reserved(self):
        c = conf(**{"spark.executor.memory": 4096, "spark.memory.fraction": 0.75})
        expected = (4096 * MB - RESERVED_MEMORY_BYTES) * 0.75
        assert c.spark_memory_per_executor == pytest.approx(expected)

    def test_user_region_complements_spark_region(self):
        c = conf(**{"spark.executor.memory": 4096, "spark.memory.fraction": 0.6})
        usable = 4096 * MB - RESERVED_MEMORY_BYTES
        assert c.spark_memory_per_executor + c.user_memory_per_executor == (
            pytest.approx(usable)
        )

    def test_protected_storage_scales_with_fraction(self):
        low = conf(**{"spark.memory.storageFraction": 0.5})
        high = conf(**{"spark.memory.storageFraction": 0.9})
        assert high.protected_storage_per_executor > low.protected_storage_per_executor

    def test_tiny_heap_clamped_above_zero(self):
        c = conf(**{"spark.executor.memory": 1024})
        assert c.spark_memory_per_executor > 0
