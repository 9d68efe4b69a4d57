"""Batch predict throughput: flat node tables vs the Python node walk.

The GA inner loop evaluates a whole population (>= 60 gene vectors)
against a boosted ensemble (>= 600 trees) every generation, so batch
predict is the hot path of the search phase.  The flat-inference layer
(:mod:`repro.models.flat`) lowers every fitted tree into a
structure-of-arrays table and traverses all rows with vectorized
gathers; this benchmark measures both paths at GA scale, asserts the
regression floor, and writes the numbers to ``BENCH_predict.json``.

The floor is deliberately below the locally-measured speedup (well
over 10x): CI runners are noisy, and the point of the gate is to catch
an accidental return to per-node Python iteration, not 20% wobble.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.common.rng import derive_rng
from repro.core.ga import GeneticAlgorithm, MemoizedFitness
from repro.models.boosting import GradientBoostedTrees
from repro.sparksim.confspace import spark_configuration_space

#: GA-phase scale from the issue's acceptance bar: nt >= 600 trees,
#: population >= 60 rows per predict call.
N_TREES = 600
POPULATION = 60
N_FEATURES = 10

#: CI regression gate (local speedups are far higher; see module doc).
SPEEDUP_FLOOR = 8.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_predict.json"


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    X = rng.random((800, N_FEATURES))
    y = rng.normal(size=800)
    fitted = GradientBoostedTrees(
        n_trees=N_TREES, patience=N_TREES, random_state=0
    ).fit(X, y)
    assert fitted.n_trees_fitted >= N_TREES
    return fitted


def _throughput(fn, X, min_seconds: float = 0.4, max_repeats: int = 400):
    """(rows/second, calls) for ``fn(X)``, timed over >= min_seconds."""
    fn(X)  # warm up: flat-table build
    repeats = 0
    start = time.perf_counter()
    while True:
        fn(X)
        repeats += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or repeats >= max_repeats:
            return len(X) * repeats / elapsed, repeats


def test_batch_predict_speedup(model):
    rng = np.random.default_rng(1)
    results = {"n_trees": N_TREES, "population": POPULATION, "grid": []}

    for population in (POPULATION, 256, 1024):
        X = rng.random((population, N_FEATURES))
        flat_rps, _ = _throughput(model.predict, X)
        walk_rps, _ = _throughput(model.predict_walk, X, min_seconds=0.8,
                                  max_repeats=20)
        speedup = flat_rps / walk_rps
        results["grid"].append(
            {
                "population": population,
                "walk_rows_per_s": round(walk_rps, 1),
                "flat_rows_per_s": round(flat_rps, 1),
                "speedup": round(speedup, 2),
            }
        )

    gate = results["grid"][0]
    results["speedup_at_gate"] = gate["speedup"]
    results["speedup_floor"] = SPEEDUP_FLOOR

    # -- GA search throughput with the memoized model-backed fitness.
    space = spark_configuration_space()
    binner_rng = np.random.default_rng(2)
    projection = binner_rng.random((len(space), N_FEATURES))

    def fitness(population_matrix):
        return model.predict(np.asarray(population_matrix) @ projection)

    memo = MemoizedFitness(fitness)
    ga = GeneticAlgorithm(space, population_size=POPULATION)
    generations = 25
    start = time.perf_counter()
    ga.minimize(memo, derive_rng("bench-predict"), generations=generations,
                patience=None)
    ga_seconds = time.perf_counter() - start
    results["ga"] = {
        "population": POPULATION,
        "generations": generations,
        "generations_per_s": round(generations / ga_seconds, 2),
        "fitness_cache_hits": memo.hits,
        "fitness_cache_misses": memo.misses,
    }

    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    rows = "\n".join(
        f"  pop={entry['population']:>5}  walk {entry['walk_rows_per_s']:>10.1f} rows/s"
        f"  flat {entry['flat_rows_per_s']:>12.1f} rows/s"
        f"  speedup {entry['speedup']:>7.2f}x"
        for entry in results["grid"]
    )
    print(
        f"\nbatch predict, {N_TREES} trees (floor {SPEEDUP_FLOOR}x at "
        f"pop={POPULATION}):\n{rows}\n"
        f"  GA: {results['ga']['generations_per_s']} generations/s, "
        f"{memo.hits} fitness cache hits\n"
    )

    assert gate["speedup"] >= SPEEDUP_FLOOR, (
        f"flat predict only {gate['speedup']:.1f}x over node walk at "
        f"population {POPULATION} (floor {SPEEDUP_FLOOR}x) — "
        "regression on the vectorized inference path"
    )
    assert memo.hits > 0  # elites re-served from the fitness memo


def test_flat_equals_walk_at_bench_scale(model):
    """The two timed paths must agree bitwise, or the bench is moot."""
    X = np.random.default_rng(3).random((POPULATION, N_FEATURES))
    assert model.predict(X).tobytes() == model.predict_walk(X).tobytes()
