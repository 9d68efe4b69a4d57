"""Micro-benchmarks of the substrates: simulator, models, GA throughput.

These are conventional pytest-benchmark measurements (multiple rounds)
quantifying why model-driven search is feasible at all — Section 5.5's
point that one simulated/predicted evaluation costs milliseconds while
a real execution costs minutes.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.common.rng import derive_rng
from repro.core.collecting import Collector
from repro.core.ga import GeneticAlgorithm
from repro.engine import (
    CachedBackend,
    ExecRequest,
    InProcessBackend,
    ProcessPoolBackend,
)
from repro.models import GradientBoostedTrees, RandomForest
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.simulator import SparkSimulator
from repro.workloads import get_workload

from conftest import report


def test_simulator_single_run(benchmark):
    """One simulated TeraSort execution (the collecting component's unit)."""
    simulator = SparkSimulator()
    job = get_workload("TS").job(30.0)
    config = SPARK_CONF_SPACE.default()
    result = benchmark(simulator.run, job, config)
    assert result.seconds > 0


def test_simulator_random_config_run(benchmark):
    simulator = SparkSimulator()
    job = get_workload("KM").job(224.0)
    rng = derive_rng("bench-sim")
    configs = [SPARK_CONF_SPACE.random(rng) for _ in range(64)]
    it = iter(range(10**9))

    def run_one():
        return simulator.run(job, configs[next(it) % len(configs)])

    assert benchmark(run_one).seconds > 0


def test_gbt_fit_500x42(benchmark):
    """Fitting one HM first-order component at FAST scale."""
    rng = np.random.default_rng(0)
    X = rng.random((500, 42))
    y = rng.random(500)

    def fit():
        return GradientBoostedTrees(n_trees=100, learning_rate=0.1).fit(X, y)

    model = benchmark(fit)
    assert model.n_trees_fitted <= 100


def test_model_predict_throughput(benchmark):
    """Model queries must be >> faster than real runs (Section 5.5)."""
    rng = np.random.default_rng(1)
    X = rng.random((500, 42))
    y = rng.random(500)
    model = GradientBoostedTrees(n_trees=100, learning_rate=0.1).fit(X, y)
    batch = rng.random((1000, 42))
    pred = benchmark(model.predict, batch)
    assert pred.shape == (1000,)


def test_rf_fit_500x41(benchmark):
    rng = np.random.default_rng(2)
    X = rng.random((500, 41))
    y = rng.random(500)
    model = benchmark(lambda: RandomForest(n_trees=40).fit(X, y))
    assert len(model._trees) == 40


@pytest.fixture(scope="module")
def _pool4():
    """One persistent 4-worker pool shared across benchmark rounds, so
    the measurement is batch throughput, not pool start-up."""
    with ProcessPoolBackend(jobs=4) as pool:
        yield pool


def test_collect_200_serial(benchmark, once):
    """200-example TeraSort collection through the in-process backend."""
    def collect():
        collector = Collector(get_workload("TS"), seed=11, engine=InProcessBackend())
        return collector.collect(200)

    assert len(benchmark.pedantic(collect, **once)) == 200


def test_collect_200_processpool_jobs4(benchmark, once, _pool4):
    """Same 200-example collection fanned out with ``--jobs 4``.

    Identical results to the serial run (the simulator seeds every draw
    from the request triple); on a multi-core runner the speedup is the
    collecting component's batch parallelism.
    """
    def collect():
        collector = Collector(get_workload("TS"), seed=11, engine=_pool4)
        return collector.collect(200)

    assert len(benchmark.pedantic(collect, **once)) == 200


def test_engine_queue_wait_and_cache_latency(benchmark, once):
    """Engine observability: queue-wait and cache-hit records.

    Submits a 64-request batch through a bare in-process engine (whose
    sequential queue wait is the time spent on the requests ahead), then
    the same batch twice through a cached engine — first pass misses,
    second hits — under a telemetry session, counts each pass's
    ``engine.request`` events in the ring, and prints the queue-wait and
    wall-time quantiles they carry.  Every executed request, bare or a
    cache miss, carries its queue wait; a hit carries none.
    """
    job = get_workload("TS").job(30.0)
    rng = derive_rng("bench-engine-tele")
    requests = [
        ExecRequest(job=job, config=SPARK_CONF_SPACE.random(rng))
        for _ in range(64)
    ]

    def run_batches():
        with telemetry.session() as tel:
            with InProcessBackend() as engine:
                engine.submit(requests)
            with CachedBackend(InProcessBackend()) as cached:
                cached.submit(requests)
                cached.submit(requests)
            return [record["fields"] for record in tel.records
                    if record.get("name") == "engine.request"]

    fields = benchmark.pedantic(run_batches, **once)
    executed = [f for f in fields if not f["cache_hit"]]
    hits = [f for f in fields if f["cache_hit"]]
    queued = [f["queue_wait"] for f in executed if "queue_wait" in f]
    misses = [f["wall_seconds"] for f in fields[64:128]]
    assert len(fields) == 3 * 64
    assert (len(executed), len(queued), len(hits)) == (128, 128, 64)
    assert not any("queue_wait" in f for f in hits)
    report(
        f"engine.request: queue wait p50 {np.median(queued) * 1e3:.2f}ms "
        f"p99 {np.quantile(queued, 0.99) * 1e3:.2f}ms; cache misses "
        f"wall p50 {np.median(misses) * 1e3:.2f}ms; {len(hits)} cache hits"
    )


def test_ga_generation_throughput(benchmark):
    """One full GA search over the 41-dim space with a cheap objective."""
    ga = GeneticAlgorithm(SPARK_CONF_SPACE, population_size=60)
    weights = np.linspace(0.1, 1.0, 41)

    def search():
        return ga.minimize(
            lambda pop: pop @ weights,
            derive_rng("bench-ga"),
            generations=50,
            patience=None,
        )

    result = benchmark(search)
    assert result.best_fitness >= 0.0
