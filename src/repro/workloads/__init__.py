"""The six HiBench-style Spark programs of Table 1.

Each workload compiles a (program, dataset size) pair into a concrete
:class:`~repro.sparksim.dag.JobSpec`, encoding the behavioural traits
Section 4.1 attributes to it: KMeans has good instruction locality but
poor data locality, Bayes the opposite; PageRank has high iteration
selectivity; NWeight is a memory-hungry GraphX job; WordCount is
CPU-intensive; TeraSort is CPU- and memory-intensive.
"""

from repro.workloads.base import Workload
from repro.workloads.datagen import DatasetSizeGenerator
from repro.workloads.registry import ALL_WORKLOADS, get_workload

__all__ = [
    "ALL_WORKLOADS",
    "DatasetSizeGenerator",
    "Workload",
    "get_workload",
]
