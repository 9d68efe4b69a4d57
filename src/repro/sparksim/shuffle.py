"""Shuffle write/read cost model.

Covers the shuffle-behaviour block of Table 2:
``spark.shuffle.manager`` (sort vs. hash),
``spark.shuffle.sort.bypassMergeThreshold``,
``spark.shuffle.consolidateFiles``, ``spark.shuffle.file.buffer``,
``spark.shuffle.compress``, ``spark.shuffle.spill``,
``spark.shuffle.spill.compress``, and
``spark.reducer.maxSizeInFlight`` on the read side.

The model charges, per map task: sort CPU (unless hash manager or the
bypass path applies), compression CPU, buffered-write syscall overhead
(inverse in the file buffer size), file-open seeks (quadratic file count
for the hash manager without consolidation), and disk bandwidth; and per
reduce task: fetch round-trips (inverse in ``maxSizeInFlight``), network
bytes, decompression and deserialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.units import MB
from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.config import SparkConf
from repro.sparksim.serializer import CompressionModel, SerializerModel

#: CPU seconds per MB per doubling of sorted run count (merge-sort work).
_SORT_SECONDS_PER_MB_PER_LEVEL = 0.0009
#: Fixed syscall cost per buffer flush.
_FLUSH_SECONDS = 3.0e-6
#: Latency of one shuffle fetch round trip.
_FETCH_ROUND_TRIP_SECONDS = 0.004


@dataclass(frozen=True)
class ShuffleWriteCost:
    cpu_seconds: float
    disk_seconds: float
    spill_extra_seconds: float
    bytes_on_disk: float


@dataclass(frozen=True)
class ShuffleReadCost:
    cpu_seconds: float
    network_seconds: float
    disk_seconds: float
    rounds: int


class ShuffleModel:
    """Shuffle costs for one (configuration, cluster) pair."""

    def __init__(self, conf: SparkConf, cluster: ClusterSpec):
        self.conf = conf
        self.cluster = cluster
        self.serializer = SerializerModel(conf)
        self.codec = CompressionModel(conf)

    # ------------------------------------------------------------------
    def wire_bytes(self, raw_bytes: float) -> float:
        """Bytes that hit disk/network for ``raw_bytes`` of shuffle data."""
        serialized = raw_bytes * self.serializer.wire_ratio()
        if self.conf.shuffle_compress:
            return serialized * self.codec.ratio()
        return serialized

    def _disk_seconds(self, bytes_on_disk: float, concurrent_per_node: int) -> float:
        """Disk time with bandwidth shared by tasks actually running."""
        return bytes_on_disk / self.cluster.disk_share(concurrent_per_node)

    def _uses_bypass_merge(self, num_reduce_partitions: int, map_side_combine: bool) -> bool:
        return (
            self.conf.shuffle_manager == "sort"
            and not map_side_combine
            and num_reduce_partitions <= self.conf.bypass_merge_threshold
        )

    def files_opened_per_map_task(
        self, num_reduce_partitions: int, map_side_combine: bool
    ) -> int:
        """Shuffle files one map task creates (seek cost each)."""
        if self.conf.shuffle_manager == "sort" and not self._uses_bypass_merge(
            num_reduce_partitions, map_side_combine
        ):
            return 1  # single sorted, indexed file
        # Hash path (or bypass path): one file per reduce partition,
        # unless consolidation reuses files across tasks on a core.
        if self.conf.consolidate_files:
            return max(1, int(math.ceil(num_reduce_partitions / 8)))
        return num_reduce_partitions

    # ------------------------------------------------------------------
    def write_cost(
        self,
        raw_bytes_per_task: float,
        num_reduce_partitions: int,
        spill_bytes: float,
        map_side_combine: bool,
        concurrent_per_node: int,
    ) -> ShuffleWriteCost:
        """Cost of producing one map task's shuffle output.

        ``spill_bytes`` is the execution-memory overflow resolved by
        :class:`~repro.sparksim.memory.MemoryModel`; it pays an extra
        round trip to disk (optionally compressed).
        """
        serialized = raw_bytes_per_task * self.serializer.wire_ratio()
        on_disk = self.wire_bytes(raw_bytes_per_task)

        cpu = raw_bytes_per_task * self.serializer.serialize_seconds_per_byte()
        if self.conf.shuffle_compress:
            cpu += serialized * self.codec.compress_seconds_per_byte()

        if self.conf.shuffle_manager == "sort" and not self._uses_bypass_merge(
            num_reduce_partitions, map_side_combine
        ):
            # Merge-sort work grows with the number of merge levels, which
            # grows with how far the data overflows the in-memory buffer.
            runs = 1 + spill_bytes / max(self.conf.spark_memory_per_executor, 1.0)
            levels = 1.0 + math.log2(max(runs, 1.0) + 1.0)
            cpu += (raw_bytes_per_task / MB) * _SORT_SECONDS_PER_MB_PER_LEVEL * levels

        flushes = on_disk / max(self.conf.shuffle_file_buffer, 1)
        cpu += flushes * _FLUSH_SECONDS

        files = self.files_opened_per_map_task(num_reduce_partitions, map_side_combine)
        disk = (
            self._disk_seconds(on_disk, concurrent_per_node)
            + files * self.cluster.disk_seek_seconds
        )

        spill_extra = 0.0
        if spill_bytes > 0:
            spill_wire = spill_bytes * self.serializer.wire_ratio()
            if self.conf.shuffle_spill_compress:
                spill_cpu = spill_wire * (
                    self.codec.compress_seconds_per_byte()
                    + self.codec.decompress_seconds_per_byte()
                )
                spill_disk_bytes = spill_wire * self.codec.ratio()
            else:
                spill_cpu = 0.0
                spill_disk_bytes = spill_wire
            spill_cpu += spill_bytes * (
                self.serializer.serialize_seconds_per_byte()
                + self.serializer.deserialize_seconds_per_byte()
            )
            # Written once, read back once during the merge.
            spill_extra = spill_cpu + self._disk_seconds(
                2.0 * spill_disk_bytes, concurrent_per_node
            )

        return ShuffleWriteCost(
            cpu_seconds=cpu,
            disk_seconds=disk,
            spill_extra_seconds=spill_extra,
            bytes_on_disk=on_disk,
        )

    # ------------------------------------------------------------------
    def read_cost(
        self,
        raw_bytes_per_task: float,
        local_fraction: float,
        concurrent_per_node: int,
    ) -> ShuffleReadCost:
        """Cost of one reduce task fetching and ingesting its input.

        ``local_fraction`` of the bytes sit on the same node (disk read
        only); the rest crosses the network in windows of
        ``spark.reducer.maxSizeInFlight``.
        """
        wire = self.wire_bytes(raw_bytes_per_task)
        remote_wire = wire * (1.0 - local_fraction)
        local_wire = wire * local_fraction

        rounds = int(math.ceil(remote_wire / max(self.conf.reducer_max_size_in_flight, 1)))
        net_share = self.cluster.network_share(concurrent_per_node)
        network = remote_wire / net_share + rounds * _FETCH_ROUND_TRIP_SECONDS

        serialized = raw_bytes_per_task * self.serializer.wire_ratio()
        cpu = raw_bytes_per_task * self.serializer.deserialize_seconds_per_byte()
        if self.conf.shuffle_compress:
            cpu += serialized * self.codec.decompress_seconds_per_byte()

        # Local blocks above the mmap threshold avoid a copy.
        mmap_discount = 0.8 if local_wire > self.conf.memory_map_threshold else 1.0
        disk = self._disk_seconds(local_wire, concurrent_per_node) * mmap_discount

        return ShuffleReadCost(
            cpu_seconds=cpu, network_seconds=network, disk_seconds=disk, rounds=rounds
        )
