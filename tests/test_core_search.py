"""Tests for the search-strategy suite (GA, random, RRS, pattern)."""

import numpy as np
import pytest

from repro.common.rng import derive_rng
from repro.common.space import ConfigurationSpace, FloatParameter
from repro.core.search import (
    STRATEGIES,
    PatternSearch,
    RandomSearch,
    RecursiveRandomSearch,
    make_strategy,
)


@pytest.fixture()
def space8():
    return ConfigurationSpace(
        [FloatParameter(f"x{i}", 0.0, 1.0, 0.5) for i in range(8)], name="s8"
    )


def sphere(target):
    def fitness(pop):
        pop = np.atleast_2d(pop)
        return np.sum((pop - target) ** 2, axis=1)

    return fitness


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(STRATEGIES) == {"GA", "random", "recursive-random", "pattern"}

    def test_make_strategy(self, space8):
        assert isinstance(make_strategy("pattern", space8), PatternSearch)
        with pytest.raises(KeyError, match="unknown search strategy"):
            make_strategy("annealing", space8)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
class TestEveryStrategy:
    def test_respects_budget(self, name, space8):
        strategy = make_strategy(name, space8)
        result = strategy.minimize(
            sphere(np.full(8, 0.4)), budget=300, rng=derive_rng("b", name)
        )
        # GA rounds to whole generations; everyone else is exact.
        assert result.evaluations_used <= 330

    def test_improves_over_time(self, name, space8):
        strategy = make_strategy(name, space8)
        result = strategy.minimize(
            sphere(np.full(8, 0.4)), budget=600, rng=derive_rng("c", name)
        )
        assert result.history[-1] <= result.history[0]
        assert result.best_fitness < 0.5  # trivially better than random corner

    def test_result_is_valid_configuration(self, name, space8):
        strategy = make_strategy(name, space8)
        result = strategy.minimize(
            sphere(np.zeros(8)), budget=200, rng=derive_rng("d", name)
        )
        assert len(result.best_configuration) == 8
        assert result.strategy == name

    def test_seeding_helps(self, name, space8):
        target = np.full(8, 0.123)
        strategy = make_strategy(name, space8)
        seeded = strategy.minimize(
            sphere(target), budget=100, rng=derive_rng("e", name),
            seed_vectors=[target.copy()],
        )
        assert seeded.best_fitness < 1e-6  # the planted optimum survives


class TestStrategyCharacter:
    def test_pattern_search_polishes_a_good_seed(self, space8):
        """Pattern search is a local method: from a good start it grinds
        to the optimum."""
        target = np.full(8, 0.6)
        start = target + 0.05
        result = PatternSearch(space8).minimize(
            sphere(target), budget=2000, rng=derive_rng("f"),
            seed_vectors=[start],
        )
        assert result.best_fitness < 1e-4

    def test_rrs_beats_plain_random(self, space8):
        """The recursive shrinking must out-exploit uniform sampling."""
        target = np.full(8, 0.37)
        budget = 1500
        rrs = RecursiveRandomSearch(space8).minimize(
            sphere(target), budget, derive_rng("g")
        )
        rand = RandomSearch(space8).minimize(sphere(target), budget, derive_rng("g"))
        assert rrs.best_fitness < rand.best_fitness

    def test_ga_competitive_on_multimodal(self, space8):
        """On a rugged landscape the GA should not lose badly to the
        local strategies — the Section 3.3 rationale."""

        def rugged(pop):
            pop = np.atleast_2d(pop)
            base = np.sum((pop - 0.5) ** 2, axis=1)
            ripples = np.sum(np.sin(12 * np.pi * pop) ** 2, axis=1) * 0.05
            return base + ripples

        budget = 3000
        scores = {
            name: make_strategy(name, space8)
            .minimize(rugged, budget, derive_rng("h", name))
            .best_fitness
            for name in STRATEGIES
        }
        # The GA stays within a small factor of the best strategy and
        # clearly beats blind sampling.
        assert scores["GA"] <= 3.0 * min(scores.values())
        assert scores["GA"] < scores["random"]
