"""Job descriptions: a DAG of stages with concrete byte volumes.

A workload (``repro.workloads``) compiles a (program, dataset size) pair
down to a :class:`JobSpec`: a DAG of :class:`StageSpec` nodes with fully
resolved byte counts — exactly the granularity Spark's DAGScheduler sees
after splitting a job at its shuffle boundaries (Figure 1 of the paper).

Byte-flow conventions
---------------------
* ``input_bytes`` is raw data read from HDFS (or from a cached RDD when
  ``reads_cached`` names one).
* A stage's shuffle input is the sum of its parents' shuffle output
  (``shuffle_out_bytes``).
* ``processed_bytes = input + shuffle-in`` is the raw volume the stage's
  tasks churn through; CPU, serialization, GC allocation and the
  execution-memory working set all scale from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class StageSpec:
    """One stage of a Spark job, with concrete volumes.

    Attributes
    ----------
    name:
        Unique stage name within the job.
    parents:
        Names of stages whose shuffle output this stage consumes.
    input_bytes:
        Raw bytes read from HDFS by this stage's tasks.
    shuffle_out_ratio:
        Shuffle bytes produced per processed byte (0 for result stages).
    cpu_seconds_per_mb:
        Pure computation cost per MB of processed data on one core —
        the workload trait (WordCount is CPU-light per byte, NWeight's
        graph traversal is heavy).
    working_set_factor:
        Execution-memory demand per processed byte *after* deserialized
        expansion (hash aggregation tables, sort buffers, graph
        adjacency).  1.0 means the task materializes its whole partition.
    repeat:
        The stage body runs this many times (iterative stages such as
        KMeans' aggregate/collect loop).  Shuffle volumes apply per
        iteration.
    cache_output / reads_cached:
        RDD caching: a stage may publish its output under a cache key and
        later stages may iterate over it without re-reading HDFS (unless
        evicted, in which case the simulator charges recompute).
    map_side_combine:
        Whether the shuffle write aggregates map-side (disables the
        sort-bypass path, reduces shuffle volume upstream of the ratio).
    collect_bytes:
        Result bytes returned to the driver per iteration.
    broadcast_bytes:
        Bytes the driver broadcasts to executors per iteration (e.g.
        KMeans centroids).
    record_bytes:
        Typical record size, exposing kryo max-buffer failures for
        large-record workloads.
    skew:
        Log-normal sigma of per-task time variation (data skew /
        hardware noise); drives straggler length and speculation value.
    user_state_bytes:
        Long-lived per-task user objects held in the user memory region.
    unspillable_fraction:
        Fraction of the working set pinned in un-spillable structures.
        Streaming/sorting stages spill gracefully (low values); hash
        aggregation and groupBy stages pin the current groups in memory
        (0.25-0.35), which is what makes them OOM under tiny heaps.
    """

    name: str
    parents: Tuple[str, ...] = ()
    input_bytes: float = 0.0
    shuffle_out_ratio: float = 0.0
    cpu_seconds_per_mb: float = 0.01
    working_set_factor: float = 0.6
    repeat: int = 1
    cache_output: Optional[str] = None
    reads_cached: Optional[str] = None
    map_side_combine: bool = False
    output_bytes: float = 0.0
    collect_bytes: float = 0.0
    broadcast_bytes: float = 0.0
    record_bytes: float = 256.0
    skew: float = 0.18
    user_state_bytes: float = 8.0 * 1024 * 1024
    unspillable_fraction: float = 0.08

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError(f"stage {self.name}: repeat must be >= 1")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError(f"stage {self.name}: negative byte volume")
        if not (0.0 <= self.shuffle_out_ratio <= 20.0):
            raise ValueError(f"stage {self.name}: implausible shuffle ratio")


@dataclass(frozen=True)
class JobSpec:
    """A full job: named stages wired into a DAG.

    ``program`` and ``datasize_bytes`` identify the program-input pair
    (Section 3.1's ``Pv`` vectors) and seed the simulator's noise.
    """

    program: str
    datasize_bytes: float
    stages: Tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stage names")
        known = set(names)
        for stage in self.stages:
            for parent in stage.parents:
                if parent not in known:
                    raise ValueError(
                        f"stage {stage.name} depends on unknown stage {parent}"
                    )
        if not self.stages:
            raise ValueError("job needs at least one stage")
        # Kahn's sort, popping ready stages in name order.  Computed once
        # per job (not per simulator run) and kept off the dataclass
        # fields, so equality, hashing and repr are unchanged.
        waiting = {s.name: set(s.parents) for s in self.stages}
        ready = sorted(name for name, parents in waiting.items() if not parents)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for child, parents in waiting.items():
                if name in parents:
                    parents.remove(name)
                    if not parents:
                        heapq.heappush(ready, child)
        if len(order) < len(self.stages):
            raise ValueError("stage dependencies contain a cycle")
        by_name = {s.name: s for s in self.stages}
        object.__setattr__(self, "_order", tuple(by_name[n] for n in order))

    def topological_stages(self) -> Tuple[StageSpec, ...]:
        """Stages in execution order; among ready stages, by name."""
        return self._order

    def stage(self, name: str) -> StageSpec:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    @property
    def total_input_bytes(self) -> float:
        return sum(s.input_bytes for s in self.stages)
