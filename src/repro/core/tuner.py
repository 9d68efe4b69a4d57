"""DAC: collect -> model (HM) -> search (GA), per Figure 4.

:class:`DacTuner` owns one program's tuning lifecycle:

1. :meth:`collect` gathers the training set (2000 examples across 10
   dataset sizes by default — Section 5.1's ``ntrain``);
2. :meth:`fit` trains the Hierarchical Model on
   (41 encoded parameters + datasize) -> log execution time;
3. :meth:`tune` runs the GA against the model for a *specific* target
   dataset size — the datasize-awareness: the same model yields
   different optimal configurations for different input sizes.

The returned :class:`TuningReport` carries everything the paper's
evaluation reads off: the chosen configuration, predicted time, GA
convergence history (Figure 11), model holdout error (Figure 9), and
wall-clock modeling/search costs (Table 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.rng import derive_rng
from repro.common.space import Configuration, ConfigurationSpace
from repro.core.collecting import Collector, TrainingSet
from repro.core.ga import GaResult, GaState, GeneticAlgorithm, MemoizedFitness
from repro.engine import EngineStats, ExecutionBackend
from repro.models.hierarchical import HierarchicalModel
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.telemetry import events as tele
from repro.workloads.base import Workload

#: The pipeline at test/bench-friendly cost.  The paper's Section
#: 5.1/5.2 parameters (ntrain=2000, tc=5, lr=0.05, nt=3600) are
#: :data:`repro.experiments.common.PAPER`.
FAST_SCALE = {"n_train": 600, "n_trees": 250, "learning_rate": 0.1}


@dataclass(frozen=True)
class TuningReport:
    """Everything DAC learned about one (program, datasize) target."""

    program: str
    datasize: float
    configuration: Configuration
    predicted_seconds: float
    ga: GaResult
    model_holdout_error: float
    collecting_simulated_hours: float
    modeling_wall_seconds: float
    searching_wall_seconds: float
    #: Substrate accounting of the collecting phase (None when the
    #: training set was supplied externally and nothing was executed).
    engine_stats: Optional[EngineStats] = None


class DacTuner:
    """The paper's tuner for one program on one cluster."""

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec = PAPER_CLUSTER,
        space: ConfigurationSpace = SPARK_CONF_SPACE,
        n_train: int = 600,
        n_trees: int = 250,
        learning_rate: float = 0.1,
        tree_complexity: int = 5,
        target_accuracy: float = 0.90,
        seed: int = 0,
        engine: Optional[ExecutionBackend] = None,
    ):
        self.workload = workload
        self.cluster = cluster
        self.space = space
        self.n_train = n_train
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.tree_complexity = tree_complexity
        self.target_accuracy = target_accuracy
        self.seed = seed

        self.collector = Collector(workload, cluster, space, seed=seed, engine=engine)
        self.engine = self.collector.engine
        self.training_set: Optional[TrainingSet] = None
        self.model: Optional[HierarchicalModel] = None
        self._modeling_seconds = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def fast_scale(cls, workload: Workload, **kwargs) -> "DacTuner":
        """Tuner with bench/test-friendly parameters (same code paths)."""
        merged = {**FAST_SCALE, **kwargs}
        return cls(workload, **merged)

    @classmethod
    def under_interference(
        cls,
        workload: Workload,
        background,
        scenario_seed: int = 0,
        cluster: ClusterSpec = PAPER_CLUSTER,
        engine: Optional[ExecutionBackend] = None,
        target_arrival_s: float = 0.0,
        **kwargs,
    ) -> "DacTuner":
        """Tuner whose measurements are shared-cluster completion times.

        ``background`` is a :class:`~repro.sparksim.arrivals.TraceSpec`
        (or a built-in trace name); every substrate run is injected into
        that scenario via
        :class:`~repro.sparksim.scenario.InterferenceBackend`, so the
        collected times — and therefore the model and the GA's optimum —
        include queueing delay and executor contention.  The rest of the
        pipeline is unchanged: the same collect/fit/tune calls apply.
        """
        from repro.engine import InProcessBackend
        from repro.sparksim.scenario import InterferenceBackend, builtin_trace

        spec = builtin_trace(background) if isinstance(background, str) else background
        base = engine if engine is not None else InProcessBackend(cluster)
        wrapped = InterferenceBackend(
            base,
            spec,
            seed=scenario_seed,
            cluster=cluster,
            target_arrival_s=target_arrival_s,
        )
        return cls(workload, cluster=cluster, engine=wrapped, **kwargs)

    # ------------------------------------------------------------------
    def collect(
        self,
        n_train: Optional[int] = None,
        resume_from: Optional[TrainingSet] = None,
        checkpoint=None,
    ) -> TrainingSet:
        """Run the collecting component (idempotent unless re-called).

        ``resume_from`` continues from a stored prefix of the set and
        ``checkpoint`` is called after every batch — both are forwarded
        to :meth:`Collector.collect` and are the job service's
        crash-recovery hooks.
        """
        n = n_train or self.n_train
        self.training_set = self.collector.collect(
            n, stream="train", resume_from=resume_from, checkpoint=checkpoint
        )
        return self.training_set

    def fit(self, training_set: Optional[TrainingSet] = None) -> HierarchicalModel:
        """Train the HM performance model on the collected set."""
        if training_set is not None:
            self.training_set = training_set
        if self.training_set is None:
            self.collect()
        assert self.training_set is not None
        start = time.perf_counter()
        with tele.span(
            "tune.fit",
            program=self.workload.abbr,
            examples=len(self.training_set),
            n_trees=self.n_trees,
        ) as span:
            self.model = HierarchicalModel(
                n_trees=self.n_trees,
                learning_rate=self.learning_rate,
                tree_complexity=self.tree_complexity,
                target_accuracy=self.target_accuracy,
                random_state=self.seed,
            )
            self.model.fit(
                self.training_set.features(),
                self.training_set.log_times(),
                engine=self.engine,
            )
            span.note(holdout_error=float(self.model.holdout_error_))
        self._modeling_seconds = time.perf_counter() - start
        return self.model

    # ------------------------------------------------------------------
    def fitness_for(self, datasize: float):
        """The GA objective for one target size: model-predicted seconds.

        Wrapped in a :class:`~repro.core.ga.MemoizedFitness`: every
        prediction step is row-independent, so elites and clones are
        served their exact prior scores without touching the model.
        """
        self._require_model()
        assert self.training_set is not None and self.model is not None
        job_bytes = self.workload.bytes_for(datasize)
        size_feature = job_bytes / self.training_set.size_scale
        model = self.model

        def fitness(pop: np.ndarray) -> np.ndarray:
            rows = np.column_stack([pop, np.full(len(pop), size_feature)])
            return np.exp(model.predict(rows))

        return MemoizedFitness(fitness)

    def tune(
        self,
        datasize: float,
        generations: int = 100,
        population_size: int = 60,
        patience: Optional[int] = 25,
        ga_state: Optional[GaState] = None,
        on_generation=None,
    ) -> TuningReport:
        """Search the optimal configuration for one target input size.

        ``on_generation``, if given, is called with the live
        :class:`~repro.core.ga.GaState` after the initial evaluation and
        after every generation; ``ga_state`` resumes a search from a
        state persisted there (the job service stores one when a worker
        drains mid-search) instead of starting fresh.  The state's
        pickled RNG continues its stream, so a resumed search equals an
        uninterrupted one.
        """
        self._require_model()
        assert self.training_set is not None and self.model is not None
        fitness = self.fitness_for(datasize)

        # Step 2 of Figure 6: seed the population with collected
        # configurations (time column dropped).
        seeds = self.training_set.seed_vectors(population_size)
        ga = GeneticAlgorithm(self.space, population_size=population_size)
        rng = derive_rng("dac-ga", self.workload.abbr, datasize, self.seed)

        start = time.perf_counter()
        with tele.span(
            "tune.search",
            program=self.workload.abbr,
            datasize=datasize,
            generations=generations,
        ) as span:
            state = ga_state
            if state is None:
                state = ga.start(fitness, rng, seed_vectors=seeds)
                if on_generation is not None:
                    on_generation(state)
            while not ga.done(state, generations, patience):
                ga.step(state, fitness)
                if on_generation is not None:
                    on_generation(state)
            result = ga.result(state)
            span.note(
                best_fitness=float(result.best_fitness),
                converged_at=result.converged_at,
            )
        search_seconds = time.perf_counter() - start

        return TuningReport(
            program=self.workload.abbr,
            datasize=datasize,
            configuration=result.best_configuration,
            predicted_seconds=result.best_fitness,
            ga=result,
            model_holdout_error=self.model.holdout_error_,
            collecting_simulated_hours=Collector.simulated_hours(self.training_set),
            modeling_wall_seconds=self._modeling_seconds,
            searching_wall_seconds=search_seconds,
            engine_stats=self.engine.stats if self.engine.stats.runs else None,
        )

    # ------------------------------------------------------------------
    def _require_model(self) -> None:
        if self.model is None:
            self.fit()
