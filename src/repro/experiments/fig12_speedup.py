"""Figure 12: DAC speedups over default, RFHOC and expert configurations.

The headline evaluation (Section 5.6): over 6 programs x 5 input sizes,

* DAC vs default — 30.4x average, up to 89x (Figure 12a); geomean 15.4x;
* DAC vs RFHOC — 1.6x average / 1.5x geomean, up to 3.3x;
* DAC vs expert — 2.99x average / 2.3x geomean, up to 16x.

Every configuration is *actually executed* on the simulator (not
model-predicted), exactly as the paper measures real runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.experiments.common import Scale, execute_batch, geomean, render_table
from repro.experiments.tuning_runs import tune_program
from repro.workloads import get_workload


@dataclass(frozen=True)
class SpeedupCell:
    """Measured times for one program-input pair."""

    program: str
    size: float
    dac_seconds: float
    default_seconds: float
    rfhoc_seconds: float
    expert_seconds: float

    @property
    def vs_default(self) -> float:
        return self.default_seconds / self.dac_seconds

    @property
    def vs_rfhoc(self) -> float:
        return self.rfhoc_seconds / self.dac_seconds

    @property
    def vs_expert(self) -> float:
        return self.expert_seconds / self.dac_seconds


@dataclass(frozen=True)
class Fig12Result:
    scale: str
    cells: Tuple[SpeedupCell, ...]

    # -- aggregates (the numbers the abstract quotes) -------------------
    def mean_speedup(self, which: str) -> float:
        return float(np.mean([getattr(c, f"vs_{which}") for c in self.cells]))

    def geomean_speedup(self, which: str) -> float:
        return geomean([getattr(c, f"vs_{which}") for c in self.cells])

    def max_speedup(self, which: str) -> float:
        return float(max(getattr(c, f"vs_{which}") for c in self.cells))

    def render(self) -> str:
        rows = [
            [
                c.program,
                c.size,
                f"{c.dac_seconds:.0f}",
                f"{c.default_seconds:.0f}",
                f"{c.rfhoc_seconds:.0f}",
                f"{c.expert_seconds:.0f}",
                f"{c.vs_default:.1f}x",
                f"{c.vs_rfhoc:.2f}x",
                f"{c.vs_expert:.2f}x",
            ]
            for c in self.cells
        ]
        table = render_table(
            ["prog", "size", "DAC s", "default s", "RFHOC s", "expert s",
             "vs default", "vs RFHOC", "vs expert"],
            rows,
            "Figure 12: measured speedups of DAC",
        )
        summary = (
            f"\nvs default: mean {self.mean_speedup('default'):.1f}x, "
            f"geomean {self.geomean_speedup('default'):.1f}x, "
            f"max {self.max_speedup('default'):.0f}x"
            f"\nvs RFHOC:   mean {self.mean_speedup('rfhoc'):.2f}x, "
            f"geomean {self.geomean_speedup('rfhoc'):.2f}x"
            f"\nvs expert:  mean {self.mean_speedup('expert'):.2f}x, "
            f"geomean {self.geomean_speedup('expert'):.2f}x"
        )
        return table + summary


def run(scale: Scale) -> Fig12Result:
    cells: List[SpeedupCell] = []
    for program in scale.programs:
        workload = get_workload(program)
        tuning = tune_program(program, scale)
        for size in workload.paper_sizes:
            job = workload.job(size)
            dac, default, rfhoc, expert = execute_batch(
                [
                    (job, tuning.dac_config(size)),
                    (job, tuning.default),
                    (job, tuning.rfhoc_report.configuration),
                    (job, tuning.expert),
                ]
            )
            cells.append(
                SpeedupCell(
                    program=program,
                    size=size,
                    dac_seconds=dac.seconds,
                    default_seconds=default.seconds,
                    rfhoc_seconds=rfhoc.seconds,
                    expert_seconds=expert.seconds,
                )
            )
    return Fig12Result(scale=scale.name, cells=tuple(cells))
