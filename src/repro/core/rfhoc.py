"""RFHOC reimplemented in the Spark context (Section 5.6's comparison).

RFHOC [4] is the state-of-the-art Hadoop auto-tuner: random-forest
performance models searched by a genetic algorithm.  Following the
paper's reimplementation, it uses the same 41-parameter space and the
same collected executions as DAC but differs in the two ways the paper
highlights:

* the model is a plain random forest rather than HM (Section 2.2.2
  shows RF's higher error on this problem);
* it is **datasize-unaware**: the input size is not a model feature, so
  the search returns one configuration per program, reused for every
  input size — the root of Figure 13's "DAC ~ RFHOC on small inputs,
  DAC wins on large inputs" pattern.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.rng import derive_rng
from repro.common.space import Configuration, ConfigurationSpace
from repro.core.collecting import Collector, TrainingSet
from repro.core.ga import GaResult, GeneticAlgorithm
from repro.engine import ExecutionBackend
from repro.models.forest import RandomForest
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.workloads.base import Workload


@dataclass(frozen=True)
class RfhocReport:
    """Outcome of an RFHOC tuning run (one per program)."""

    program: str
    configuration: Configuration
    predicted_seconds: float
    ga: GaResult
    modeling_wall_seconds: float
    searching_wall_seconds: float


class RfhocTuner:
    """RF + GA tuner over the 41 parameters, ignoring datasize."""

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec = PAPER_CLUSTER,
        space: ConfigurationSpace = SPARK_CONF_SPACE,
        n_train: int = 600,
        n_trees: int = 100,
        max_splits: int = 100,
        seed: int = 0,
        engine: Optional[ExecutionBackend] = None,
    ):
        self.workload = workload
        self.cluster = cluster
        self.space = space
        self.n_train = n_train
        self.n_trees = n_trees
        self.max_splits = max_splits
        self.seed = seed
        self.collector = Collector(workload, cluster, space, seed=seed, engine=engine)
        self.engine = self.collector.engine
        self.training_set: Optional[TrainingSet] = None
        self.model: Optional[RandomForest] = None
        self._modeling_seconds = 0.0

    # ------------------------------------------------------------------
    def fit(self, training_set: Optional[TrainingSet] = None) -> RandomForest:
        """Train the RF on configurations only (datasize column dropped)."""
        self.training_set = training_set or self.training_set
        if self.training_set is None:
            self.training_set = self.collector.collect(self.n_train, stream="train")
        features = self.training_set.features()[:, :-1]  # drop dsize
        start = time.perf_counter()
        self.model = RandomForest(
            n_trees=self.n_trees,
            max_splits=self.max_splits,
            random_state=self.seed,
        )
        self.model.fit(features, self.training_set.log_times())
        self._modeling_seconds = time.perf_counter() - start
        return self.model

    def tune(
        self,
        generations: int = 100,
        population_size: int = 60,
        patience: Optional[int] = 25,
    ) -> RfhocReport:
        """One search per program; the result is reused for all sizes."""
        if self.model is None:
            self.fit()
        assert self.model is not None and self.training_set is not None
        model = self.model

        def fitness(pop: np.ndarray) -> np.ndarray:
            return np.exp(model.predict(pop))

        seeds = self.training_set.seed_vectors(population_size)
        ga = GeneticAlgorithm(self.space, population_size=population_size)
        rng = derive_rng("rfhoc-ga", self.workload.abbr, self.seed)

        start = time.perf_counter()
        result = ga.minimize(
            fitness, rng, generations=generations, seed_vectors=seeds, patience=patience
        )
        search_seconds = time.perf_counter() - start
        return RfhocReport(
            program=self.workload.abbr,
            configuration=result.best_configuration,
            predicted_seconds=result.best_fitness,
            ga=result,
            modeling_wall_seconds=self._modeling_seconds,
            searching_wall_seconds=search_seconds,
        )
