"""WordCount: the CPU-intensive baseline (Table 1: 80-160 GB of text).

Two stages, like Hadoop's classic: a map stage that tokenizes and
combines counts map-side, and a reduce stage that merges per-word
totals.  Shuffle volume is small relative to input (map-side combining
collapses duplicates), which is what makes WC CPU-bound — and why the
expert guideline of "2-3 tasks per core" backfires on it (Section 5.6).
"""

from __future__ import annotations

from repro.common.units import GB
from repro.sparksim.dag import JobSpec, StageSpec
from repro.workloads.base import Workload


class WordCount(Workload):
    name = "WordCount"
    abbr = "WC"
    paper_sizes = (80.0, 100.0, 120.0, 140.0, 160.0)
    unit = "GB"

    def bytes_for(self, size: float) -> float:
        return self.validate_size(size) * GB

    def job(self, size: float) -> JobSpec:
        data = self.bytes_for(size)
        stages = (
            StageSpec(
                name="tokenize-combine",
                input_bytes=data,
                cpu_seconds_per_mb=0.055,
                shuffle_out_ratio=0.07,
                map_side_combine=True,
                working_set_factor=0.45,
                unspillable_fraction=0.15,
                record_bytes=64.0,
                skew=0.15,
            ),
            StageSpec(
                name="merge-counts",
                parents=("tokenize-combine",),
                cpu_seconds_per_mb=0.020,
                working_set_factor=1.0,
                unspillable_fraction=0.20,
                output_bytes=data * 0.01,
                record_bytes=32.0,
                skew=0.25,  # hot words concentrate on few reducers
            ),
        )
        return JobSpec(program=self.abbr, datasize_bytes=data, stages=stages)
