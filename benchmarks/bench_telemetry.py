"""Telemetry overhead: the disabled path must be effectively free.

The instrumentation contract (ISSUE: "provably negligible") is that a
``tele.event(...)``/``tele.span(...)`` call site with telemetry off
costs one module-global load and a ``None`` check.  Two measurements
back that up:

* micro: the per-call cost of the disabled fast path (ns-scale);
* macro: a standard FAST tune run with telemetry off vs on, plus an
  arithmetic bound — (disabled per-call cost) x (records a telemetry'd
  run emits) must stay under 1% of the run's wall time, which holds by
  orders of magnitude and, unlike a wall-clock A/B on a noisy CI
  runner, cannot flake.
"""

import time

from repro import telemetry
from repro.core.tuner import DacTuner
from repro.engine import InProcessBackend
from repro.telemetry import events as tele
from repro.workloads import get_workload

#: The "standard tune run" both overhead benchmarks execute.
TUNE = dict(n_train=60, n_trees=30, seed=0)
TUNE_SIZE, TUNE_GENERATIONS = 10.0, 5


def _tune_once() -> float:
    """One full pipeline run (collect, fit, search); returns wall time."""
    start = time.perf_counter()
    tuner = DacTuner(get_workload("TS"), engine=InProcessBackend(), **TUNE)
    tuner.collect()
    tuner.fit()
    tuner.tune(TUNE_SIZE, generations=TUNE_GENERATIONS)
    return time.perf_counter() - start


def test_event_call_disabled(benchmark):
    """The instrumented hot path with telemetry off (the default)."""
    assert not tele.enabled()
    benchmark(tele.event, "bench.noop", value=1)


def test_event_call_enabled(benchmark):
    """The same call with telemetry on, recording to the ring buffer."""
    with telemetry.session():
        benchmark(tele.event, "bench.noop", value=1)


def test_span_disabled(benchmark):
    assert not tele.enabled()

    def enter_exit():
        with tele.span("bench.span", value=1):
            pass

    benchmark(enter_exit)


def test_tune_run_telemetry_off(benchmark, once):
    """Baseline: the standard tune run with telemetry off."""
    assert benchmark.pedantic(_tune_once, **once) > 0


def test_tune_run_telemetry_on(benchmark, once):
    """The same run with the full pipeline on (ring buffer)."""
    def tune_with_telemetry():
        with telemetry.session():
            return _tune_once()

    assert benchmark.pedantic(tune_with_telemetry, **once) > 0


def test_disabled_overhead_below_one_percent():
    """Arithmetic bound: per-call no-op cost x call count < 1% of wall.

    Counts how many records a telemetry'd standard tune run emits, times
    the disabled fast path directly, and bounds the total disabled-path
    overhead the instrumentation adds to the plain run.
    """
    with telemetry.session() as tel:
        wall = _tune_once()
        calls = tel.ring.total_written

    n = 100_000
    start = time.perf_counter()
    for _ in range(n):
        tele.event("bench.noop", value=1)
    per_call = (time.perf_counter() - start) / n

    overhead = per_call * calls
    assert calls > 100  # the run is actually instrumented
    assert overhead < 0.01 * wall, (
        f"disabled path: {per_call * 1e9:.0f}ns x {calls} calls = "
        f"{overhead * 1e3:.3f}ms vs {wall:.3f}s run"
    )


def test_dashboard_ingests_100k_events_under_budget(tmp_path):
    """Aggregation throughput: 100k logged events ingest within budget.

    `repro top` must catch up on a large backlog (a long fleet run it
    was not watching from the start) fast enough to feel instant.  The
    budget is deliberately loose for noisy CI runners; locally this
    runs an order of magnitude faster.
    """
    import json

    from repro.store import RunStore
    from repro.telemetry.dashboard import FleetDashboard

    n = 100_000
    lines = [json.dumps({"kind": "meta", "version": 1, "wall_start": 0.0,
                         "pid": 1})]
    for i in range(n):
        lines.append(json.dumps({
            "kind": "event", "name": "engine.request",
            "ts": i * 0.001, "parent": 0,
            "fields": {"queue_wait": (i % 50) * 0.01, "ok": True},
        }))
    store = RunStore(tmp_path / "store")
    store.events_dir.mkdir(parents=True, exist_ok=True)
    store.event_log_path("worker-bench").write_text("\n".join(lines) + "\n")

    dashboard = FleetDashboard(store)
    start = time.perf_counter()
    ingested = dashboard.refresh()
    elapsed = time.perf_counter() - start

    assert ingested == n
    assert dashboard.snapshot()["engine"]["requests"] == n
    assert elapsed < 10.0, f"100k-event ingest took {elapsed:.2f}s"
    print(f"\n100k events ingested in {elapsed:.3f}s "
          f"({n / elapsed / 1e3:.0f}k records/s)")


def test_dashboard_refresh_overhead_below_one_percent(tmp_path):
    """Arithmetic bound: watching a fleet costs <1% of its wall clock.

    `repro top` polls at 1 Hz, so its worst-case tax on the machine is
    (per-snapshot cost) x (1 snapshot per second of run).  Measure one
    real job's wall time and the dashboard's steady-state snapshot cost
    against the store that run left behind; the bound holds when a
    snapshot costs under 10ms.
    """
    from repro.service import JobService, TuneRequest
    from repro.telemetry.dashboard import FleetDashboard
    from repro.store import RunStore

    store_root = tmp_path / "store"
    service = JobService(store_root, use_cache=False, worker_id="bench")
    service.submit(TuneRequest(program="TS", size=10.0, n_train=40,
                               n_trees=15, generations=3, seed=2))
    start = time.perf_counter()
    service.work(poll_interval=0.01, max_jobs=1, idle_polls=2)
    wall = time.perf_counter() - start

    dashboard = FleetDashboard(RunStore(store_root))
    dashboard.snapshot()  # first call pays the backlog; steady state next
    n = 50
    start = time.perf_counter()
    for _ in range(n):
        dashboard.snapshot()
    per_snapshot = (time.perf_counter() - start) / n

    overhead = per_snapshot * max(1.0, wall)  # 1 Hz refresh for the run
    assert overhead < 0.01 * max(1.0, wall), (
        f"snapshot {per_snapshot * 1e3:.2f}ms x 1 Hz over a {wall:.2f}s "
        f"run = {overhead / max(1.0, wall):.2%} overhead"
    )
    print(f"\nsnapshot {per_snapshot * 1e3:.2f}ms; "
          f"{per_snapshot / max(1.0, wall):.3%} of a {wall:.2f}s run at 1 Hz")
