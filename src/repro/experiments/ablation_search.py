"""Ablation: the GA against the search strategies Section 3.3 rejects.

The paper argues for the GA over recursive random search (local-optima
prone) and pattern search (slow asymptotic convergence).  This ablation
pits all four implemented strategies (:mod:`repro.core.search`) against
the *same* fitted HM model with the *same* evaluation budget, reporting
each searcher's predicted optimum and the measured execution time of
its pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.common.rng import derive_rng
from repro.core.search import STRATEGIES, make_strategy
from repro.experiments.common import Scale, collected, execute, render_table
from repro.models.hierarchical import HierarchicalModel
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.workloads import get_workload


@dataclass(frozen=True)
class AblationSearchResult:
    scale: str
    program: str
    datasize: float
    budget_evaluations: int
    predicted_seconds: Dict[str, float]
    measured_seconds: Dict[str, float]
    evaluations_used: Dict[str, int]

    def render(self) -> str:
        rows = [
            [name, self.evaluations_used[name],
             f"{self.predicted_seconds[name]:.0f}",
             f"{self.measured_seconds[name]:.0f}"]
            for name in self.predicted_seconds
        ]
        return render_table(
            ["strategy", "evals", "predicted s", "measured s"],
            rows,
            f"Ablation: search strategies on {self.program} @ {self.datasize} "
            f"(budget {self.budget_evaluations} model evaluations)",
        )

    @property
    def ga_wins_predicted(self) -> bool:
        ga = self.predicted_seconds["GA"]
        return all(v >= ga * 0.999 for v in self.predicted_seconds.values())


def run(
    scale: Scale, program: str = "KM", datasize: float | None = None
) -> AblationSearchResult:
    workload = get_workload(program)
    datasize = datasize or workload.paper_sizes[-1]
    train = collected(program, scale.n_train, "train")
    space = SPARK_CONF_SPACE

    model = HierarchicalModel(
        n_trees=scale.n_trees, learning_rate=scale.learning_rate,
        tree_complexity=scale.tree_complexity,
    ).fit(train.features(), train.log_times())
    size_feature = workload.bytes_for(datasize) / train.size_scale

    def fitness(pop: np.ndarray) -> np.ndarray:
        pop = np.atleast_2d(pop)
        rows = np.column_stack([pop, np.full(len(pop), size_feature)])
        return np.exp(model.predict(rows))

    budget = scale.ga_population * (scale.ga_generations + 1)
    seeds = train.seed_vectors(scale.ga_population)
    job = workload.job(datasize)

    predicted: Dict[str, float] = {}
    measured: Dict[str, float] = {}
    evaluations: Dict[str, int] = {}
    for name in STRATEGIES:
        strategy = make_strategy(name, space)
        result = strategy.minimize(
            fitness, budget, derive_rng("absearch", name, program), seed_vectors=seeds
        )
        predicted[name] = result.best_fitness
        evaluations[name] = result.evaluations_used
        measured[name] = execute(job, result.best_configuration).seconds

    return AblationSearchResult(
        scale=scale.name,
        program=program,
        datasize=datasize,
        budget_evaluations=budget,
        predicted_seconds=predicted,
        measured_seconds=measured,
        evaluations_used=evaluations,
    )
