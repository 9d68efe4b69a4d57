"""Genetic-algorithm configuration search (Section 3.3, Figure 6).

The GA explores the encoded configuration space (one gene in [0,1] per
parameter) with tournament selection, uniform crossover, the paper's
per-gene mutation rate of 0.01, and elitism.  Fitness is the predicted
execution time from the performance model — never a real execution
(Section 5.5 explains why: a model query takes milliseconds, a real run
takes minutes).  The initial population is seeded from the collected
configurations with their time column removed, exactly as in step 2 of
Figure 6, topped up with random draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.space import Configuration, ConfigurationSpace
from repro.telemetry import events as tele

#: Paper-stated per-gene mutation rate (Figure 6: "Mutate (rate:0.01)").
DEFAULT_MUTATION_RATE = 0.01


@dataclass(frozen=True)
class GaResult:
    """Outcome of one GA search."""

    best_configuration: Configuration
    best_fitness: float
    #: Best fitness after each generation (Figure 11's convergence curves).
    history: Tuple[float, ...]
    generations: int

    @property
    def converged_at(self) -> int:
        """First generation whose best is within 0.5% of the final best.

        The margin is ``0.005 * |best|`` *above* the final best, which
        stays a tolerance for any sign of fitness — the generic
        :class:`repro.core.search.SearchStrategy` interface allows zero
        and negative objectives, where a naive ``best * 1.005`` would
        shrink toward (or invert past) the optimum and mark only the
        final generation converged.
        """
        threshold = self.best_fitness + 0.005 * abs(self.best_fitness)
        for i, value in enumerate(self.history):
            if value <= threshold:
                return i
        return len(self.history) - 1


class MemoizedFitness:
    """Exact per-individual fitness memo keyed on gene-vector bytes.

    Elites survive generations unchanged and selection/crossover clone
    rows verbatim, so a GA population routinely re-contains vectors that
    were already scored.  Model fitness is row-independent (binning,
    tree traversal, blending and ``exp`` all act per sample), so scoring
    only the unseen rows as a sub-matrix returns bit-identical values —
    the memo changes how often the model runs, never what the GA sees.

    Cache keys are the raw float64 bytes of each row: exact equality
    only, no tolerance. ``hits``/``misses`` count rows served from the
    memo and rows scored by the model.
    """

    def __init__(
        self,
        fitness: Callable[[np.ndarray], np.ndarray],
        max_entries: int = 65536,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._fitness = fitness
        self._cache: dict = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __call__(self, pop: np.ndarray) -> np.ndarray:
        pop = np.ascontiguousarray(np.asarray(pop, dtype=float))
        keys = [row.tobytes() for row in pop]
        out = np.empty(len(pop), dtype=float)
        miss_rows: List[int] = []
        for i, key in enumerate(keys):
            value = self._cache.get(key)
            if value is None:
                miss_rows.append(i)
            else:
                out[i] = value
        self.hits += len(pop) - len(miss_rows)
        self.misses += len(miss_rows)
        if miss_rows:
            rows = np.array(miss_rows)
            values = np.asarray(self._fitness(pop[rows]), dtype=float)
            if values.shape != (len(rows),):
                raise ValueError("fitness must return one value per row")
            out[rows] = values
            for i, value in zip(miss_rows, values):
                if len(self._cache) >= self.max_entries:
                    # Drop the oldest entry (insertion-ordered dict).
                    self._cache.pop(next(iter(self._cache)))
                self._cache[keys[i]] = float(value)
        return out


@dataclass
class GaState:
    """The complete, picklable state of a search between generations.

    Everything :meth:`GeneticAlgorithm.step` needs — population, scores,
    incumbent, staleness counter and the live RNG — so a search can be
    checkpointed to disk after any generation and resumed in another
    process with a byte-identical continuation (``numpy`` generators
    pickle with their stream position intact).
    """

    pop: np.ndarray
    scores: np.ndarray
    best_vec: np.ndarray
    best_fitness: float
    history: List[float]
    stale: int
    rng: np.random.Generator

    @property
    def generation(self) -> int:
        """Generations evaluated so far (0 = initial population only)."""
        return len(self.history) - 1


class GeneticAlgorithm:
    """Minimizes ``fitness(vector)`` over a configuration space.

    Parameters
    ----------
    space:
        The configuration space searched.
    population_size:
        The paper's ``popSize``.
    mutation_rate:
        Per-gene probability of resampling a gene uniformly.
    crossover_rate:
        Probability a child is produced by crossover (else cloned).
    elite:
        Individuals copied unchanged into the next generation.
    tournament:
        Tournament size for parent selection.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        population_size: int = 60,
        mutation_rate: float = DEFAULT_MUTATION_RATE,
        crossover_rate: float = 0.9,
        elite: int = 2,
        tournament: int = 3,
    ):
        if population_size < 4:
            raise ValueError("population_size must be >= 4")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if elite >= population_size:
            raise ValueError("elite must be smaller than the population")
        self.space = space
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.elite = elite
        self.tournament = tournament

    # ------------------------------------------------------------------
    def minimize(
        self,
        fitness: Callable[[np.ndarray], np.ndarray],
        rng: np.random.Generator,
        generations: int = 100,
        seed_vectors: Optional[Sequence[np.ndarray]] = None,
        patience: Optional[int] = 25,
    ) -> GaResult:
        """Run the GA.

        Parameters
        ----------
        fitness:
            Vectorized objective: maps an (n, d) matrix of encoded
            configurations to n predicted execution times (lower=better).
        seed_vectors:
            Encoded configurations to seed the initial population
            (step 2 of Figure 6: popSize vectors from the training set).
        patience:
            Stop early when the best has not improved for this many
            generations (None disables).
        """
        state = self.start(fitness, rng, seed_vectors=seed_vectors)
        while not self.done(state, generations, patience):
            self.step(state, fitness)
        return self.result(state)

    # ------------------------------------------------------------------
    # Resumable search: ``minimize`` is ``start`` + ``step`` until
    # ``done``.  Exposing the pieces lets a caller (the job service,
    # when a worker drains) persist the :class:`GaState` between
    # generations and continue later — same RNG stream, same results.
    # ------------------------------------------------------------------
    def start(
        self,
        fitness: Callable[[np.ndarray], np.ndarray],
        rng: np.random.Generator,
        seed_vectors: Optional[Sequence[np.ndarray]] = None,
    ) -> GaState:
        """Evaluate the initial population; returns generation-0 state."""
        pop = self._initial_population(rng, seed_vectors)
        scores = np.asarray(fitness(pop), dtype=float)
        if scores.shape != (len(pop),):
            raise ValueError("fitness must return one value per row")
        best_fit = float(scores.min())
        state = GaState(
            pop=pop,
            scores=scores,
            best_vec=pop[int(np.argmin(scores))].copy(),
            best_fitness=best_fit,
            history=[best_fit],
            stale=0,
            rng=rng,
        )
        if tele.enabled():
            tele.event(
                "ga.generation",
                generation=0,
                best=best_fit,
                generation_best=best_fit,
                mean=float(scores.mean()),
                mutated_genes=0,
                crossovers=0,
                stale=0,
            )
        return state

    def step(
        self,
        state: GaState,
        fitness: Callable[[np.ndarray], np.ndarray],
    ) -> GaState:
        """Advance the search one generation (mutates and returns state)."""
        d = len(self.space)
        rng = state.rng
        pop, scores = state.pop, state.scores

        order = np.argsort(scores)
        elite_rows = pop[order[: self.elite]]

        n_children = self.population_size - self.elite
        parents_a = self._select(pop, scores, rng, n_children)
        parents_b = self._select(pop, scores, rng, n_children)

        do_cross = rng.random(n_children) < self.crossover_rate
        gene_mask = rng.random((n_children, d)) < 0.5
        children = np.where(gene_mask, parents_a, parents_b)
        children[~do_cross] = parents_a[~do_cross]

        mutate = rng.random((n_children, d)) < self.mutation_rate
        random_genes = rng.random((n_children, d))
        children = np.where(mutate, random_genes, children)

        pop = np.vstack([elite_rows, children])
        scores = np.asarray(fitness(pop), dtype=float)
        state.pop, state.scores = pop, scores

        gen_best = float(scores.min())
        if gen_best < state.best_fitness - 1e-12:
            state.best_fitness = gen_best
            state.best_vec = pop[int(np.argmin(scores))].copy()
            state.stale = 0
        else:
            state.stale += 1
        state.history.append(state.best_fitness)
        if tele.enabled():
            tele.event(
                "ga.generation",
                generation=state.generation,
                best=state.best_fitness,
                generation_best=gen_best,
                mean=float(scores.mean()),
                mutated_genes=int(mutate.sum()),
                crossovers=int(do_cross.sum()),
                stale=state.stale,
            )
        return state

    def done(
        self, state: GaState, generations: int, patience: Optional[int]
    ) -> bool:
        """True when the generation budget or patience is exhausted."""
        if state.generation >= generations:
            return True
        return patience is not None and state.stale >= patience

    def result(self, state: GaState) -> GaResult:
        """Freeze a state into the :class:`GaResult` callers consume."""
        return GaResult(
            best_configuration=self.space.decode(state.best_vec),
            best_fitness=state.best_fitness,
            history=tuple(state.history),
            generations=state.generation,
        )

    # ------------------------------------------------------------------
    def _initial_population(
        self,
        rng: np.random.Generator,
        seed_vectors: Optional[Sequence[np.ndarray]],
    ) -> np.ndarray:
        d = len(self.space)
        rows: List[np.ndarray] = []
        if seed_vectors is not None:
            for vec in seed_vectors[: self.population_size]:
                vec = np.asarray(vec, dtype=float)
                if vec.shape != (d,):
                    raise ValueError(f"seed vector must have length {d}")
                rows.append(np.clip(vec, 0.0, 1.0))
        while len(rows) < self.population_size:
            rows.append(rng.random(d))
        return np.vstack(rows)

    def _select(
        self,
        pop: np.ndarray,
        scores: np.ndarray,
        rng: np.random.Generator,
        count: int,
    ) -> np.ndarray:
        """Tournament selection, vectorized."""
        entrants = rng.integers(0, len(pop), (count, self.tournament))
        winners = entrants[np.arange(count), np.argmin(scores[entrants], axis=1)]
        return pop[winners]
