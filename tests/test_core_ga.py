"""Tests for the genetic-algorithm search component."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng
from repro.common.space import ConfigurationSpace, FloatParameter
from repro.core.ga import DEFAULT_MUTATION_RATE, GaResult, GeneticAlgorithm


@pytest.fixture()
def toy_space():
    return ConfigurationSpace(
        [FloatParameter(f"x{i}", 0.0, 1.0, 0.5) for i in range(6)], name="toy6"
    )


def sphere(target):
    """Vectorized fitness: squared distance to a target point."""

    def fitness(pop):
        return np.sum((pop - target) ** 2, axis=1)

    return fitness


class TestGeneticAlgorithm:
    def test_paper_mutation_rate_is_default(self, toy_space):
        assert DEFAULT_MUTATION_RATE == 0.01
        assert GeneticAlgorithm(toy_space).mutation_rate == 0.01

    def test_finds_interior_optimum(self, toy_space):
        target = np.full(6, 0.3)
        ga = GeneticAlgorithm(toy_space, population_size=40)
        result = ga.minimize(sphere(target), derive_rng("ga1"), generations=80)
        assert result.best_fitness < 0.02
        best = toy_space.encode(result.best_configuration)
        assert np.abs(best - target).max() < 0.15

    def test_history_is_monotone_nonincreasing(self, toy_space):
        ga = GeneticAlgorithm(toy_space)
        result = ga.minimize(sphere(np.zeros(6)), derive_rng("ga2"), generations=40)
        assert all(b <= a + 1e-12 for a, b in zip(result.history, result.history[1:]))

    def test_elitism_preserves_best(self, toy_space):
        """With elitism, no generation can lose the incumbent."""
        ga = GeneticAlgorithm(toy_space, elite=2)
        result = ga.minimize(sphere(np.zeros(6)), derive_rng("ga3"), generations=30)
        assert result.best_fitness == min(result.history)

    def test_seed_vectors_enter_population(self, toy_space):
        target = np.full(6, 0.77)
        seeds = [target.copy()]  # plant the exact optimum
        ga = GeneticAlgorithm(toy_space, population_size=20)
        result = ga.minimize(
            sphere(target), derive_rng("ga4"), generations=1, seed_vectors=seeds
        )
        assert result.best_fitness < 1e-12

    def test_invalid_seed_vector_rejected(self, toy_space):
        ga = GeneticAlgorithm(toy_space)
        with pytest.raises(ValueError):
            ga.minimize(
                sphere(np.zeros(6)),
                derive_rng("ga5"),
                generations=1,
                seed_vectors=[np.zeros(3)],
            )

    def test_patience_stops_early(self, toy_space):
        ga = GeneticAlgorithm(toy_space)
        # Constant fitness: nothing to improve, stop after `patience`.
        result = ga.minimize(
            lambda pop: np.ones(len(pop)),
            derive_rng("ga6"),
            generations=500,
            patience=5,
        )
        assert result.generations <= 10

    def test_converged_at_index(self):
        result = GaResult(
            best_configuration=None,  # type: ignore[arg-type]
            best_fitness=1.0,
            history=(5.0, 2.0, 1.001, 1.0),
            generations=3,
        )
        assert result.converged_at == 2

    def test_converged_at_negative_fitness(self):
        # Log-time fitness goes negative; the 0.5% band must widen away
        # from the optimum, not flip below it (the old ``1.005 * best``
        # threshold excluded every history entry once best < 0).
        result = GaResult(
            best_configuration=None,  # type: ignore[arg-type]
            best_fitness=-2.0,
            history=(1.0, -1.99, -2.0),
            generations=2,
        )
        assert result.converged_at == 1

    def test_converged_at_zero_fitness(self):
        result = GaResult(
            best_configuration=None,  # type: ignore[arg-type]
            best_fitness=0.0,
            history=(3.0, 0.0, 0.0),
            generations=2,
        )
        assert result.converged_at == 1

    def test_bad_fitness_shape_rejected(self, toy_space):
        ga = GeneticAlgorithm(toy_space)
        with pytest.raises(ValueError):
            ga.minimize(lambda pop: np.ones(3), derive_rng("ga7"), generations=1)

    def test_invalid_hyperparameters(self, toy_space):
        with pytest.raises(ValueError):
            GeneticAlgorithm(toy_space, population_size=2)
        with pytest.raises(ValueError):
            GeneticAlgorithm(toy_space, mutation_rate=1.5)
        with pytest.raises(ValueError):
            GeneticAlgorithm(toy_space, elite=60, population_size=60)

    def test_result_configuration_is_valid(self, toy_space):
        ga = GeneticAlgorithm(toy_space)
        result = ga.minimize(sphere(np.zeros(6)), derive_rng("ga8"), generations=5)
        for name in toy_space.names:
            assert 0.0 <= result.best_configuration[name] <= 1.0

    def test_works_on_mixed_spaces(self, space):
        """GA searches the full 41-parameter Spark space without error."""
        ga = GeneticAlgorithm(space, population_size=16)
        weights = np.arange(41.0)

        def fitness(pop):
            return pop @ weights

        result = ga.minimize(fitness, derive_rng("ga9"), generations=15)
        assert result.best_fitness >= 0.0
        assert len(result.best_configuration) == 41

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_converges_reasonably(self, seed):
        space = ConfigurationSpace(
            [FloatParameter(f"x{i}", 0.0, 1.0, 0.5) for i in range(6)]
        )
        ga = GeneticAlgorithm(space, population_size=30)
        result = ga.minimize(
            sphere(np.full(6, 0.5)),
            np.random.default_rng(seed),
            generations=60,
        )
        assert result.best_fitness < 0.1


class TestGaStateResume:
    """The checkpointable start/step/done decomposition of minimize."""

    def test_stepwise_equals_minimize(self, toy_space):
        fitness = sphere(np.full(6, 0.3))
        ga = GeneticAlgorithm(toy_space, population_size=20)
        whole = ga.minimize(fitness, derive_rng("ga-resume"), generations=15)

        state = ga.start(fitness, derive_rng("ga-resume"))
        while not ga.done(state, generations=15, patience=25):
            ga.step(state, fitness)
        stepped = ga.result(state)
        assert stepped.history == whole.history
        assert stepped.best_fitness == whole.best_fitness
        assert stepped.best_configuration == whole.best_configuration
        assert stepped.converged_at == whole.converged_at

    def test_pickled_state_resumes_identically(self, toy_space):
        import pickle

        fitness = sphere(np.full(6, 0.6))
        ga = GeneticAlgorithm(toy_space, population_size=20)
        reference = ga.minimize(fitness, derive_rng("ga-pickle"), generations=12)

        state = ga.start(fitness, derive_rng("ga-pickle"))
        for _ in range(5):
            ga.step(state, fitness)
        # crash here: the persisted snapshot carries the RNG mid-stream
        snapshot = pickle.loads(pickle.dumps(state))
        while not ga.done(snapshot, generations=12, patience=25):
            ga.step(snapshot, fitness)
        resumed = ga.result(snapshot)
        assert resumed.history == reference.history
        assert resumed.best_configuration == reference.best_configuration

    def test_generation_counter(self, toy_space):
        fitness = sphere(np.zeros(6))
        ga = GeneticAlgorithm(toy_space, population_size=10)
        state = ga.start(fitness, derive_rng("ga-gen"))
        assert state.generation == 0
        ga.step(state, fitness)
        assert state.generation == 1

    def test_done_respects_patience(self, toy_space):
        constant = lambda pop: np.ones(len(pop))  # noqa: E731
        ga = GeneticAlgorithm(toy_space, population_size=10)
        state = ga.start(constant, derive_rng("ga-done"))
        while not ga.done(state, generations=100, patience=3):
            ga.step(state, constant)
        assert state.generation < 100
        assert state.stale >= 3
