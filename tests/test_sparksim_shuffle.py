"""Tests for the shuffle write/read cost model."""

import pytest

from repro.common.units import MB
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.config import SparkConf
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.shuffle import ShuffleModel


def model(**overrides):
    return ShuffleModel(
        SparkConf(SPARK_CONF_SPACE.from_dict(overrides), PAPER_CLUSTER), PAPER_CLUSTER
    )


class TestWireBytes:
    def test_compression_shrinks_wire_bytes(self):
        on = model(**{"spark.shuffle.compress": True})
        off = model(**{"spark.shuffle.compress": False})
        assert on.wire_bytes(100 * MB) < off.wire_bytes(100 * MB)

    def test_kryo_shrinks_wire_bytes(self):
        kryo = model(**{"spark.serializer": "kryo"})
        java = model(**{"spark.serializer": "java"})
        assert kryo.wire_bytes(100 * MB) < java.wire_bytes(100 * MB)


class TestFileFanout:
    def test_sort_manager_writes_one_file(self):
        m = model(**{"spark.shuffle.manager": "sort"})
        # Above the bypass threshold: single sorted file.
        assert m.files_opened_per_map_task(500, map_side_combine=False) == 1

    def test_bypass_path_writes_per_partition_files(self):
        m = model(**{"spark.shuffle.manager": "sort",
                     "spark.shuffle.sort.bypassMergeThreshold": 400})
        assert m.files_opened_per_map_task(300, map_side_combine=False) == 300

    def test_map_side_combine_disables_bypass(self):
        m = model(**{"spark.shuffle.manager": "sort",
                     "spark.shuffle.sort.bypassMergeThreshold": 400})
        assert m.files_opened_per_map_task(300, map_side_combine=True) == 1

    def test_hash_manager_fanout_and_consolidation(self):
        hash_plain = model(**{"spark.shuffle.manager": "hash",
                              "spark.shuffle.consolidateFiles": False})
        hash_consolidated = model(**{"spark.shuffle.manager": "hash",
                                     "spark.shuffle.consolidateFiles": True})
        assert hash_plain.files_opened_per_map_task(200, False) == 200
        assert hash_consolidated.files_opened_per_map_task(200, False) < 200


class TestWriteCost:
    def test_sort_cpu_exceeds_hash_cpu(self):
        sort = model(**{"spark.shuffle.manager": "sort"})
        hash_ = model(**{"spark.shuffle.manager": "hash"})
        s = sort.write_cost(200 * MB, 500, 0.0, False, 8)
        h = hash_.write_cost(200 * MB, 500, 0.0, False, 8)
        assert s.cpu_seconds > h.cpu_seconds

    def test_tiny_file_buffer_costs_flushes(self):
        small = model(**{"spark.shuffle.file.buffer": 2})
        big = model(**{"spark.shuffle.file.buffer": 128})
        s = small.write_cost(100 * MB, 50, 0.0, False, 8)
        b = big.write_cost(100 * MB, 50, 0.0, False, 8)
        assert s.cpu_seconds > b.cpu_seconds

    def test_spill_adds_disk_round_trip(self):
        m = model()
        no_spill = m.write_cost(100 * MB, 50, 0.0, False, 8)
        spilled = m.write_cost(100 * MB, 50, 200 * MB, False, 8)
        assert no_spill.spill_extra_seconds == 0.0
        assert spilled.spill_extra_seconds > 0.0

    def test_spill_compression_trades_cpu_for_disk(self):
        compressed = model(**{"spark.shuffle.spill.compress": True})
        raw = model(**{"spark.shuffle.spill.compress": False})
        c = compressed.write_cost(100 * MB, 50, 500 * MB, False, 8)
        r = raw.write_cost(100 * MB, 50, 500 * MB, False, 8)
        # Compressed spill is smaller on disk; with a fast disk share the
        # totals differ but both must be positive and finite.
        assert c.spill_extra_seconds > 0 and r.spill_extra_seconds > 0
        assert c.spill_extra_seconds != r.spill_extra_seconds

    def test_contention_raises_disk_time(self):
        m = model()
        calm = m.write_cost(200 * MB, 50, 0.0, False, 4)
        busy = m.write_cost(200 * MB, 50, 0.0, False, 72)
        assert busy.disk_seconds > calm.disk_seconds


class TestReadCost:
    def test_locality_cuts_network(self):
        m = model()
        remote = m.read_cost(200 * MB, local_fraction=0.0, concurrent_per_node=8)
        local = m.read_cost(200 * MB, local_fraction=0.9, concurrent_per_node=8)
        assert local.network_seconds < remote.network_seconds

    def test_max_size_in_flight_controls_rounds(self):
        small = model(**{"spark.reducer.maxSizeInFlight": 2})
        big = model(**{"spark.reducer.maxSizeInFlight": 128})
        s = small.read_cost(500 * MB, 0.0, 8)
        b = big.read_cost(500 * MB, 0.0, 8)
        assert s.rounds > b.rounds
        assert s.network_seconds > b.network_seconds

    def test_zero_bytes_costs_nothing(self):
        cost = model().read_cost(0.0, 0.5, 8)
        assert cost.network_seconds == pytest.approx(0.0)
        assert cost.cpu_seconds == pytest.approx(0.0)
