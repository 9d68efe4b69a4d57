"""Hardware description of the simulated cluster.

Defaults mirror the paper's testbed (Section 4): six DELL servers — one
master, five slaves — each with 12 six-core Intel Xeon E5-2609 processors
(72 cores/node, 432 total) and 64 GB of memory (384 GB total).  Disk and
network figures are typical for that class of 2017-era hardware and only
set the absolute time scale; the *relative* results DAC cares about are
driven by the configuration-dependent terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GB, MB


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the cluster the simulator runs on.

    Attributes
    ----------
    worker_nodes:
        Number of slave nodes that host executors (the master only runs
        the driver).
    cores_per_node:
        Physical cores available to executors on each worker.
    memory_per_node_bytes:
        Physical RAM per worker.  A fixed OS/daemon reservation
        (``os_reserved_bytes``) is subtracted before packing executors.
    disk_bandwidth_bytes_per_s:
        Sequential per-node disk throughput shared by all executors on
        the node (shuffle writes, spills, input reads).
    network_bandwidth_bytes_per_s:
        Per-node NIC throughput (shuffle fetches, broadcasts).
    core_speed:
        Relative CPU speed multiplier; 1.0 calibrates the workload CPU
        cost constants.
    disk_seek_seconds:
        Fixed cost of one random I/O, charged per shuffle-file open.
    """

    worker_nodes: int = 5
    cores_per_node: int = 72
    memory_per_node_bytes: int = 64 * GB
    os_reserved_bytes: int = 8 * GB
    disk_bandwidth_bytes_per_s: float = 180 * MB
    network_bandwidth_bytes_per_s: float = 117 * MB  # ~1 GbE payload rate
    core_speed: float = 1.0
    disk_seek_seconds: float = 0.008
    hdfs_block_bytes: int = 128 * MB

    def __post_init__(self) -> None:
        if self.worker_nodes < 1:
            raise ValueError("cluster needs at least one worker node")
        if self.cores_per_node < 1:
            raise ValueError("workers need at least one core")
        if self.memory_per_node_bytes <= self.os_reserved_bytes:
            raise ValueError("node memory must exceed the OS reservation")

    #: Per-stream slowdown coefficient once more than this many tasks
    #: stream from one node's disks at once (seek thrash).
    disk_contention_free_streams: int = 16
    disk_contention_coefficient: float = 0.05
    network_contention_coefficient: float = 0.02

    def disk_share(self, concurrent_per_node: int) -> float:
        """Effective disk bandwidth per task with ``concurrent_per_node``
        streams on one node.  Beyond ~16 streams, seek thrash makes the
        aggregate bandwidth itself degrade — this is what punishes the
        default 12-cores-per-executor packing on I/O-heavy stages."""
        concurrent = max(concurrent_per_node, 1)
        excess = max(0, concurrent - self.disk_contention_free_streams)
        thrash = 1.0 + self.disk_contention_coefficient * excess
        return self.disk_bandwidth_bytes_per_s / (concurrent * thrash)

    def network_share(self, concurrent_per_node: int) -> float:
        """Effective NIC bandwidth per task (mild contention only)."""
        concurrent = max(concurrent_per_node, 1)
        excess = max(0, concurrent - self.disk_contention_free_streams)
        congestion = 1.0 + self.network_contention_coefficient * excess
        return self.network_bandwidth_bytes_per_s / (concurrent * congestion)

    @property
    def total_cores(self) -> int:
        """Cores available for executors across all workers."""
        return self.worker_nodes * self.cores_per_node

    @property
    def usable_memory_per_node_bytes(self) -> int:
        """Memory per worker after the OS reservation."""
        return self.memory_per_node_bytes - self.os_reserved_bytes

    @property
    def aggregate_disk_bandwidth(self) -> float:
        return self.worker_nodes * self.disk_bandwidth_bytes_per_s


#: The paper's testbed (Section 4), used by all experiments by default.
PAPER_CLUSTER = ClusterSpec()
