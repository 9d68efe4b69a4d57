"""Typed view over a Spark configuration plus derived runtime quantities.

:class:`SparkConf` wraps a :class:`~repro.common.space.Configuration`
drawn from the Table-2 space and exposes each parameter as a typed
property, plus the quantities Spark derives from them at job-submission
time — most importantly the *executor packing*: how many executors fit on
each worker given ``spark.executor.cores`` and ``spark.executor.memory``,
and hence how many concurrent task slots the job has.
"""

from __future__ import annotations

from functools import cached_property

from repro.common.space import Configuration
from repro.common.units import KB, MB
from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.confspace import SPARK_CONF_SPACE

#: Spark reserves a flat 300 MB of each executor heap (Section 2.1).
RESERVED_MEMORY_BYTES = 300 * MB


class SparkConf:
    """A Table-2 configuration bound to a cluster.

    Parameters
    ----------
    config:
        A configuration from :data:`SPARK_CONF_SPACE` (or a plain dict of
        overrides, filled in with defaults).
    cluster:
        Hardware the job will run on; drives executor packing.
    """

    def __init__(self, config, cluster: ClusterSpec):
        if isinstance(config, Configuration):
            self.config = config
        else:
            self.config = SPARK_CONF_SPACE.from_dict(dict(config or {}))
        self.cluster = cluster

    def __getitem__(self, name: str):
        try:
            return self.config[name]
        except KeyError:  # an underscore-for-dot alias
            return self.config[self.config.space.resolve_name(name)]

    # ------------------------------------------------------------------
    # Raw parameter views (typed, unit-converted to bytes/seconds)
    # ------------------------------------------------------------------
    @property
    def reducer_max_size_in_flight(self) -> int:
        return self["spark.reducer.maxSizeInFlight"] * MB

    @property
    def shuffle_file_buffer(self) -> int:
        return self["spark.shuffle.file.buffer"] * KB

    @property
    def bypass_merge_threshold(self) -> int:
        return self["spark.shuffle.sort.bypassMergeThreshold"]

    @property
    def speculation(self) -> bool:
        return self["spark.speculation"]

    @property
    def speculation_interval(self) -> float:
        return self["spark.speculation.interval"] / 1000.0  # ms -> s

    @property
    def speculation_multiplier(self) -> float:
        return self["spark.speculation.multiplier"]

    @property
    def speculation_quantile(self) -> float:
        return self["spark.speculation.quantile"]

    @property
    def broadcast_block_size(self) -> int:
        return self["spark.broadcast.blockSize"] * MB

    @property
    def compression_codec(self) -> str:
        return self["spark.io.compression.codec"]

    @property
    def codec_block_size(self) -> int:
        """Block size of the *active* codec, in bytes (lzf is unblocked)."""
        if self.compression_codec == "lz4":
            return self["spark.io.compression.lz4.blockSize"] * KB
        if self.compression_codec == "snappy":
            return self["spark.io.compression.snappy.blockSize"] * KB
        return 32 * KB

    @property
    def kryo_reference_tracking(self) -> bool:
        return self["spark.kryo.referenceTracking"]

    @property
    def kryo_buffer_max(self) -> int:
        return self["spark.kryoserializer.buffer.max"] * MB

    @property
    def kryo_buffer(self) -> int:
        return self["spark.kryoserializer.buffer"] * KB

    @property
    def driver_cores(self) -> int:
        return self["spark.driver.cores"]

    @property
    def executor_cores(self) -> int:
        return self["spark.executor.cores"]

    @property
    def driver_memory(self) -> int:
        return self["spark.driver.memory"] * MB

    @property
    def executor_memory(self) -> int:
        return self["spark.executor.memory"] * MB

    @property
    def memory_map_threshold(self) -> int:
        return self["spark.storage.memoryMapThreshold"] * MB

    @property
    def akka_failure_threshold(self) -> int:
        return self["spark.akka.failure.detector.threshold"]

    @property
    def akka_heartbeat_pauses(self) -> float:
        return float(self["spark.akka.heartbeat.pauses"])

    @property
    def akka_heartbeat_interval(self) -> float:
        return float(self["spark.akka.heartbeat.interval"])

    @property
    def akka_threads(self) -> int:
        return self["spark.akka.threads"]

    @property
    def network_timeout(self) -> float:
        return float(self["spark.network.timeout"])

    @property
    def locality_wait(self) -> float:
        return float(self["spark.locality.wait"])

    @property
    def revive_interval(self) -> float:
        return float(self["spark.scheduler.revive.interval"])

    @property
    def task_max_failures(self) -> int:
        return self["spark.task.maxFailures"]

    @property
    def shuffle_compress(self) -> bool:
        return self["spark.shuffle.compress"]

    @property
    def consolidate_files(self) -> bool:
        return self["spark.shuffle.consolidateFiles"]

    @property
    def memory_fraction(self) -> float:
        return self["spark.memory.fraction"]

    @property
    def shuffle_spill_compress(self) -> bool:
        return self["spark.shuffle.spill.compress"]

    @property
    def broadcast_compress(self) -> bool:
        return self["spark.broadcast.compress"]

    @property
    def rdd_compress(self) -> bool:
        return self["spark.rdd.compress"]

    @property
    def serializer(self) -> str:
        return self["spark.serializer"]

    @property
    def storage_fraction(self) -> float:
        return self["spark.memory.storageFraction"]

    @property
    def local_execution(self) -> bool:
        return self["spark.localExecution.enabled"]

    @property
    def default_parallelism(self) -> int:
        return self["spark.default.parallelism"]

    @property
    def off_heap_enabled(self) -> bool:
        return self["spark.memory.offHeap.enabled"]

    @property
    def shuffle_manager(self) -> str:
        return self["spark.shuffle.manager"]

    @property
    def off_heap_size(self) -> int:
        return (self["spark.memory.offHeap.size"] * MB) if self.off_heap_enabled else 0

    # ------------------------------------------------------------------
    # Derived executor packing
    # ------------------------------------------------------------------
    @cached_property
    def executors_per_node(self) -> float:
        """How many executors the standalone master packs on one worker.

        Limited both by cores (one executor claims ``executor.cores``
        cores) and by memory (each claims an ``executor.memory`` heap
        plus ~10% JVM overhead).  Modelled *fractionally*: the capacity
        ratio is used directly instead of its floor, so the packing
        response is smooth in the memory/core knobs (on a real cluster
        the floor staircase exists but its effect washes out across
        heterogeneous waves; a smooth response is also what keeps the
        substrate learnable at the paper's training-set sizes).  At
        least one executor per node always launches — standalone mode
        overcommits rather than refusing to start.
        """
        by_cores = self.cluster.cores_per_node / self.executor_cores
        overhead = self.executor_memory * 1.10
        by_memory = self.cluster.usable_memory_per_node_bytes / overhead
        return max(1.0, min(by_cores, by_memory))

    @cached_property
    def num_executors(self) -> float:
        return self.executors_per_node * self.cluster.worker_nodes

    @cached_property
    def total_task_slots(self) -> float:
        """Cluster-wide concurrent tasks (executors x cores-per-executor)."""
        return self.num_executors * self.executor_cores

    @cached_property
    def spark_memory_per_executor(self) -> float:
        """Unified (execution + storage) region per executor, in bytes."""
        usable_heap = max(self.executor_memory - RESERVED_MEMORY_BYTES, 16 * MB)
        return usable_heap * self.memory_fraction

    @cached_property
    def user_memory_per_executor(self) -> float:
        """User-object region: (heap - 300 MB) * (1 - memory.fraction)."""
        usable_heap = max(self.executor_memory - RESERVED_MEMORY_BYTES, 16 * MB)
        return usable_heap * (1.0 - self.memory_fraction)

    @cached_property
    def protected_storage_per_executor(self) -> float:
        """Storage memory immune to eviction by execution (bytes)."""
        return self.spark_memory_per_executor * self.storage_fraction
