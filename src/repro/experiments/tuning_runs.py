"""Shared tuning runs: DAC, RFHOC, expert and default configurations.

Figures 11-14 and Table 3 all consume the same artifacts — a fitted DAC
tuner per program, per-size DAC configurations, one RFHOC configuration
per program, the expert configuration, and the defaults.  This module
computes them once per (scale, program) and memoizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from repro.common.space import Configuration
from repro.core.baselines import default_configuration
from repro.core.expert import ExpertTuner
from repro.core.rfhoc import RfhocReport, RfhocTuner
from repro.core.tuner import DacTuner, TuningReport
from repro.experiments.common import Scale, collected, shared_engine
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.workloads import get_workload


@dataclass(frozen=True)
class ProgramTuning:
    """All tuned configurations for one program at one scale."""

    program: str
    dac_reports: Dict[float, TuningReport]  # per Table-1 size
    rfhoc_report: RfhocReport
    expert: Configuration
    default: Configuration
    collecting_simulated_hours: float
    modeling_wall_seconds: float

    def dac_config(self, size: float) -> Configuration:
        return self.dac_reports[size].configuration


@lru_cache(maxsize=16)
def tune_program(program: str, scale: Scale) -> ProgramTuning:
    """Run the full DAC + RFHOC pipelines for one program."""
    workload = get_workload(program)
    training = collected(program, scale.n_train, "train")

    dac = DacTuner(
        workload,
        n_train=scale.n_train,
        n_trees=scale.n_trees,
        learning_rate=scale.learning_rate,
        tree_complexity=scale.tree_complexity,
        engine=shared_engine(),
    )
    dac.fit(training)

    dac_reports = {
        size: dac.tune(
            size,
            generations=scale.ga_generations,
            population_size=scale.ga_population,
        )
        for size in workload.paper_sizes
    }

    rfhoc = RfhocTuner(workload, n_train=scale.n_train, engine=shared_engine())
    rfhoc.fit(training)
    rfhoc_report = rfhoc.tune(
        generations=scale.ga_generations, population_size=scale.ga_population
    )

    return ProgramTuning(
        program=program,
        dac_reports=dac_reports,
        rfhoc_report=rfhoc_report,
        expert=ExpertTuner(PAPER_CLUSTER).tune(),
        default=default_configuration(),
        collecting_simulated_hours=dac.collector.simulated_hours(training),
        modeling_wall_seconds=(
            dac_reports[workload.paper_sizes[0]].modeling_wall_seconds
        ),
    )
