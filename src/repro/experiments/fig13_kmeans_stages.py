"""Figure 13: KMeans per-stage execution times and GC, by configuration.

Section 5.8's first deep dive: across the five input sizes,

* both DAC and RFHOC crush the default's stage times, and the gap grows
  with input size;
* DAC ~ RFHOC at small inputs, but DAC pulls ahead as inputs grow
  (datasize-awareness);
* StageC (the iterative aggregate/collect loop) dominates and is where
  DAC's reduction concentrates;
* panels (d)/(e): DAC's GC time is far below default's and below
  RFHOC's, and grows more slowly with input size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import Scale, execute_batch, render_table
from repro.experiments.tuning_runs import tune_program
from repro.sparksim.simulator import RunResult
from repro.workloads import get_workload

PROGRAM = "KM"
CONFIG_KINDS = ("default", "RFHOC", "DAC")


@dataclass(frozen=True)
class Fig13Result:
    scale: str
    sizes: Tuple[float, ...]
    stage_names: Tuple[str, ...]
    #: stage_seconds[(kind, size)][stage_name]
    stage_seconds: Dict[Tuple[str, float], Dict[str, float]]
    #: gc_seconds[(kind, size)]
    gc_seconds: Dict[Tuple[str, float], float]

    def total(self, kind: str, size: float) -> float:
        return sum(self.stage_seconds[(kind, size)].values())

    def dominant_stage(self, kind: str, size: float) -> str:
        per = self.stage_seconds[(kind, size)]
        return max(per, key=per.get)

    def render(self) -> str:
        rows = []
        for size in self.sizes:
            for kind in CONFIG_KINDS:
                per = self.stage_seconds[(kind, size)]
                rows.append(
                    [size, kind]
                    + [f"{per[s]:.0f}" for s in self.stage_names]
                    + [f"{self.gc_seconds[(kind, size)]:.0f}"]
                )
        return render_table(
            ["size", "config", *self.stage_names, "GC s"],
            rows,
            "Figure 13: KMeans stage times and GC",
        )


def run(scale: Scale) -> Fig13Result:
    workload = get_workload(PROGRAM)
    tuning = tune_program(PROGRAM, scale)
    sizes = workload.paper_sizes
    stage_names = tuple(s.name for s in workload.job(sizes[0]).stages)

    stage_seconds: Dict[Tuple[str, float], Dict[str, float]] = {}
    gc_seconds: Dict[Tuple[str, float], float] = {}
    for size in sizes:
        job = workload.job(size)
        default, rfhoc, dac = execute_batch(
            [
                (job, tuning.default),
                (job, tuning.rfhoc_report.configuration),
                (job, tuning.dac_config(size)),
            ]
        )
        runs: Dict[str, RunResult] = {"default": default, "RFHOC": rfhoc, "DAC": dac}
        for kind, result in runs.items():
            stage_seconds[(kind, size)] = {
                s.name: s.seconds for s in result.stages
            }
            gc_seconds[(kind, size)] = result.gc_seconds
    return Fig13Result(
        scale=scale.name,
        sizes=sizes,
        stage_names=stage_names,
        stage_seconds=stage_seconds,
        gc_seconds=gc_seconds,
    )
