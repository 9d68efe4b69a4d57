"""Control-plane and broadcast network model.

Covers the networking block of Table 2: torrent broadcast
(``spark.broadcast.blockSize``, ``spark.broadcast.compress``), the Akka
actor system (``spark.akka.heartbeat.interval``,
``spark.akka.heartbeat.pauses``, ``spark.akka.failure.detector.threshold``)
and ``spark.network.timeout``.  ``spark.akka.threads`` sets the task
dispatch cost, which the stage scheduler charges
(:meth:`~repro.sparksim.scheduler.WaveScheduler.dispatch_seconds_per_task`).

Two failure interactions matter for tuning:

* a long stop-the-world GC pause combined with an aggressive heartbeat
  budget (small ``akka.heartbeat.pauses`` / small failure-detector
  threshold) makes the master declare a healthy executor lost, rerunning
  its tasks;
* a small ``spark.network.timeout`` under heavy shuffle load causes fetch
  failures and task retries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.config import SparkConf
from repro.sparksim.serializer import CompressionModel


@dataclass(frozen=True)
class NetworkModel:
    conf: SparkConf
    cluster: ClusterSpec

    # -- broadcast -------------------------------------------------------
    def broadcast_seconds(self, raw_bytes: float) -> float:
        """Time to torrent-broadcast a variable to all executors.

        Torrent broadcast pipelines blocks peer-to-peer, so cost grows
        ~logarithmically in executor count.  Tiny blocks pay per-block
        control overhead; huge blocks lose pipelining.
        """
        if raw_bytes <= 0:
            return 0.0
        codec = CompressionModel(self.conf)
        wire = raw_bytes * (codec.ratio() if self.conf.broadcast_compress else 1.0)
        cpu = (
            raw_bytes * codec.compress_seconds_per_byte()
            if self.conf.broadcast_compress
            else 0.0
        )
        blocks = max(1.0, wire / max(self.conf.broadcast_block_size, 1))
        fanout = math.log2(self.conf.num_executors + 1) + 1.0
        transfer = wire * fanout / self.cluster.network_bandwidth_bytes_per_s
        per_block_overhead = 0.002 * blocks
        # Losing pipelining when a block is a large share of the payload.
        pipelining_penalty = 1.0 + 0.5 / blocks
        return float(cpu + transfer * pipelining_penalty + per_block_overhead)

    # -- control plane ----------------------------------------------------
    def heartbeat_overhead_fraction(self) -> float:
        """Fraction of executor CPU spent servicing heartbeats."""
        interval = max(self.conf.akka_heartbeat_interval, 1.0)
        return min(0.5 / interval, 0.02)

    def executor_lost_probability(self, max_gc_pause_seconds: float) -> float:
        """P(master declares an executor dead during a GC pause).

        ``spark.akka.heartbeat.pauses`` is the acceptable pause budget in
        seconds (Table 2 range 1000-10000 s — deliberately enormous:
        "set to a larger value to disable failure detector").  Only a
        pathological combination of a minimal budget and a minimal
        failure-detector threshold brings the tolerance near real GC
        pause lengths.
        """
        tolerance = self.conf.akka_heartbeat_pauses * (
            self.conf.akka_failure_threshold / 300.0
        )
        if max_gc_pause_seconds <= tolerance:
            return 0.0
        overshoot = max_gc_pause_seconds / max(tolerance, 1e-3) - 1.0
        return float(min(0.9, 0.25 * overshoot))

    def fetch_failure_probability(
        self, stage_network_seconds: float, max_gc_pause_seconds: float = 0.0
    ) -> float:
        """P(a shuffle fetch exceeds ``spark.network.timeout``).

        A fetch stalls for the remote executor's worst GC pause on top of
        the transfer itself, so heavy GC plus a small timeout is the
        realistic path from memory pressure to fetch failures.
        """
        stall = stage_network_seconds + max_gc_pause_seconds
        if stall <= 0:
            return 0.0
        headroom = self.conf.network_timeout / max(stall, 1e-6)
        if headroom >= 3.0:
            return 0.0
        return float(min(0.8, 0.3 * (3.0 - headroom) / 3.0))
