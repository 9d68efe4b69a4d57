"""Ablation: what does *datasize-awareness* itself buy?

The paper's central delta over prior tuners is feeding the input size
into the model (DAC) instead of ignoring it (RFHOC).  RFHOC also swaps
the model class, so Figure 12 conflates two changes.  This ablation
isolates the datasize term: the same HM model and the same GA, with the
datasize feature either present (per-size search, DAC proper) or
removed (one size-blind configuration reused for every input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.common.rng import derive_rng
from repro.core.ga import GeneticAlgorithm
from repro.experiments.common import Scale, collected, execute_batch, geomean, render_table
from repro.models.hierarchical import HierarchicalModel
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.workloads import get_workload


@dataclass(frozen=True)
class AblationDatasizeResult:
    scale: str
    program: str
    sizes: Tuple[float, ...]
    aware_seconds: Dict[float, float]
    blind_seconds: Dict[float, float]
    #: Equation-2 test error of each model (the mechanism: the blind
    #: model cannot attribute time variation to the input size at all).
    aware_model_error: float
    blind_model_error: float

    def advantage(self, size: float) -> float:
        """blind / aware: >1 means datasize-awareness helped."""
        return self.blind_seconds[size] / self.aware_seconds[size]

    @property
    def geomean_advantage(self) -> float:
        return geomean([self.advantage(s) for s in self.sizes])

    @property
    def awareness_improves_model(self) -> bool:
        return self.aware_model_error < self.blind_model_error

    def render(self) -> str:
        rows = [
            [s, f"{self.aware_seconds[s]:.0f}", f"{self.blind_seconds[s]:.0f}",
             f"{self.advantage(s):.2f}x"]
            for s in self.sizes
        ]
        table = render_table(
            ["size", "datasize-aware s", "datasize-blind s", "advantage"],
            rows,
            f"Ablation: datasize-aware vs -blind HM+GA on {self.program} "
            f"(geomean advantage {self.geomean_advantage:.2f}x)",
        )
        return table + (
            f"\nmodel test error: aware {self.aware_model_error * 100:.1f}% "
            f"vs blind {self.blind_model_error * 100:.1f}%"
        )


def run(scale: Scale, program: str = "TS") -> AblationDatasizeResult:
    import numpy as _np

    from repro.experiments.common import test_matrix
    from repro.models.metrics import mean_relative_error

    workload = get_workload(program)
    train = collected(program, scale.n_train, "train")
    test = collected(program, scale.n_test, "test")
    space = SPARK_CONF_SPACE

    X = train.features()
    y = train.log_times()

    aware = HierarchicalModel(
        n_trees=scale.n_trees, learning_rate=scale.learning_rate,
        tree_complexity=scale.tree_complexity,
    ).fit(X, y)
    blind = HierarchicalModel(
        n_trees=scale.n_trees, learning_rate=scale.learning_rate,
        tree_complexity=scale.tree_complexity,
    ).fit(X[:, :-1], y)  # datasize column removed

    X_test, measured = test_matrix(train, test)
    aware_error = mean_relative_error(_np.exp(aware.predict(X_test)), measured)
    blind_error = mean_relative_error(
        _np.exp(blind.predict(X_test[:, :-1])), measured
    )

    seeds = train.seed_vectors(scale.ga_population)
    ga = GeneticAlgorithm(space, population_size=scale.ga_population)

    # One blind search, reused for every size.
    blind_result = ga.minimize(
        lambda pop: np.exp(blind.predict(pop)),
        derive_rng("ablation-blind", program),
        generations=scale.ga_generations,
        seed_vectors=seeds,
    )

    aware_seconds: Dict[float, float] = {}
    blind_seconds: Dict[float, float] = {}
    for size in workload.paper_sizes:
        job = workload.job(size)
        size_feature = job.datasize_bytes / train.size_scale

        def fitness(pop: np.ndarray) -> np.ndarray:
            rows = np.column_stack([pop, np.full(len(pop), size_feature)])
            return np.exp(aware.predict(rows))

        aware_result = ga.minimize(
            fitness,
            derive_rng("ablation-aware", program, size),
            generations=scale.ga_generations,
            seed_vectors=seeds,
        )
        aware_run, blind_run = execute_batch(
            [
                (job, aware_result.best_configuration),
                (job, blind_result.best_configuration),
            ]
        )
        aware_seconds[size] = aware_run.seconds
        blind_seconds[size] = blind_run.seconds

    return AblationDatasizeResult(
        scale=scale.name,
        program=program,
        sizes=workload.paper_sizes,
        aware_seconds=aware_seconds,
        blind_seconds=blind_seconds,
        aware_model_error=aware_error,
        blind_model_error=blind_error,
    )
