"""Shared-cluster scenarios: the event-loop physics, trace determinism,
fingerprint replay (including across backends and through the CLI), and
tuning under interference.

The determinism tests are the heart: one ``(TraceSpec, seed)`` pair must
produce a byte-identical :class:`ScenarioReport` on every run and every
backend — :func:`scenario_fingerprint` is the equality test.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli.main import main as cli_main
from repro.core.tuner import DacTuner
from repro.engine import InProcessBackend, ProcessPoolBackend
from repro.sparksim.arrivals import (
    FAIR,
    FIFO,
    JobTemplate,
    Revocation,
    TraceSpec,
    generate_trace,
    load_trace_spec,
    resolve_revocations,
)
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.scenario import (
    BUILTIN_TRACES,
    InterferenceBackend,
    JobLoad,
    ScenarioRunner,
    allocate,
    builtin_trace,
    demand_for,
    io_fraction_of,
    render_scenario_report,
    report_from_dict,
    report_to_dict,
    scenario_fingerprint,
    simulate,
)
from repro.workloads import get_workload


def load(job_id, arrival=0.0, demand=4, isolated=100.0, **kw) -> JobLoad:
    return JobLoad(
        job_id=job_id, arrival_s=arrival, demand=demand, isolated_s=isolated, **kw
    )


def by_id(outcomes):
    return {o.job_id: o for o in outcomes}


# ----------------------------------------------------------------------
# The pure event loop
# ----------------------------------------------------------------------
class TestSimulate:
    def test_lone_job_runs_at_isolated_speed(self):
        outcomes, pool_busy = simulate([load("a")], slots=8)
        (a,) = outcomes
        assert a.start_s == 0.0
        assert a.finish_s == pytest.approx(100.0)
        assert a.busy_executor_s == pytest.approx(400.0)  # 4 slots x 100 s
        assert pool_busy == pytest.approx(400.0)

    def test_fifo_head_of_line_blocks_even_small_jobs(self):
        # b would fit in the free slots, but FIFO queues it behind a.
        outcomes, _ = simulate(
            [
                load("a", demand=4, isolated=100.0),
                load("b", arrival=10.0, demand=4),
                load("c", arrival=20.0, demand=1),
            ],
            slots=6,
            policy=FIFO,
        )
        got = by_id(outcomes)
        assert got["b"].start_s == pytest.approx(100.0)
        assert got["c"].start_s == pytest.approx(100.0)

    def test_fair_splits_the_pool(self):
        outcomes, _ = simulate(
            [load("a", demand=4), load("b", demand=4)], slots=4, policy=FAIR
        )
        got = by_id(outcomes)
        # Each holds 2 of its 4 demanded slots: half speed, 200 s.
        assert got["a"].finish_s == pytest.approx(200.0)
        assert got["b"].finish_s == pytest.approx(200.0)
        assert got["a"].start_s == got["b"].start_s == 0.0

    def test_fifo_and_fair_differ_under_contention(self):
        loads = [load("a", demand=4), load("b", arrival=1.0, demand=4)]
        fifo, _ = simulate(loads, slots=4, policy=FIFO)
        fair, _ = simulate(loads, slots=4, policy=FAIR)
        assert by_id(fifo)["b"].start_s != by_id(fair)["b"].start_s

    def test_straggler_and_slow_nodes_scale_run_time(self):
        (slow,), _ = simulate([load("a", straggler_factor=2.0)], slots=4)
        assert slow.finish_s == pytest.approx(200.0)
        (hetero,), _ = simulate([load("a")], slots=4, slot_speeds=(0.5,) * 4)
        assert hetero.finish_s == pytest.approx(200.0)

    def test_io_contention_slows_co_runners(self):
        loads = [
            load("a", demand=2, io_fraction=1.0),
            load("b", demand=2, io_fraction=1.0),
        ]
        quiet, _ = simulate(loads, slots=4, interference_coefficient=0.0)
        noisy, _ = simulate(loads, slots=4, interference_coefficient=1.0)
        assert by_id(noisy)["a"].finish_s > by_id(quiet)["a"].finish_s

    def test_revocation_delays_and_charges_rework(self):
        revocation = Revocation(at_s=50.0, slots=2, duration_s=30.0)
        outcomes, _ = simulate(
            [load("a", demand=4, isolated=100.0)],
            slots=4,
            revocations=[revocation],
            rework=0.5,
        )
        (a,) = outcomes
        # Lost half its share at t=50 with 50 s of work done: redoes
        # 0.5 * 50 * 0.5 = 12.5 s, and runs at half speed meanwhile.
        assert a.revocation_hits == 1
        assert a.finish_s > 100.0

    def test_no_rework_revocation_still_slows(self):
        revocation = Revocation(at_s=50.0, slots=2, duration_s=30.0)
        with_rework, _ = simulate(
            [load("a")], slots=4, revocations=[revocation], rework=0.5
        )
        without, _ = simulate(
            [load("a")], slots=4, revocations=[revocation], rework=0.0
        )
        assert without[0].finish_s > 100.0
        assert with_rework[0].finish_s > without[0].finish_s

    def test_busy_time_conservation(self):
        loads = [
            load("a", demand=3, isolated=50.0, io_fraction=0.5),
            load("b", arrival=5.0, demand=4, isolated=80.0),
            load("c", arrival=7.0, demand=2, isolated=30.0, straggler_factor=1.5),
        ]
        outcomes, pool_busy = simulate(
            loads,
            slots=6,
            policy=FAIR,
            interference_coefficient=0.4,
            revocations=[Revocation(at_s=20.0, slots=2, duration_s=15.0)],
        )
        assert sum(o.busy_executor_s for o in outcomes) == pytest.approx(
            pool_busy, rel=1e-9
        )

    def test_observer_sees_lifecycle_events(self):
        seen = []
        simulate(
            [load("a"), load("b", arrival=10.0)],
            slots=4,
            observer=lambda kind, **fields: seen.append((kind, fields)),
        )
        kinds = [kind for kind, _ in seen]
        assert kinds.count("arrived") == 2
        assert kinds.count("started") == 2
        assert kinds.count("finished") == 2
        assert "alloc" in kinds
        started = next(fields for kind, fields in seen if kind == "started")
        assert started["queue_s"] >= 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one slot"):
            simulate([load("a")], slots=0)
        with pytest.raises(ValueError, match="one entry per slot"):
            simulate([load("a")], slots=4, slot_speeds=(1.0, 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            simulate([load("a"), load("a")], slots=4)
        with pytest.raises(ValueError, match="demand"):
            load("a", demand=0)
        with pytest.raises(ValueError, match="io_fraction"):
            load("a", io_fraction=1.5)


class TestAllocate:
    def test_fifo_grants_in_order_until_blocked(self):
        grants = allocate(
            [("a", 3, False), ("b", 4, False), ("c", 1, False)], 5, FIFO
        )
        assert grants == {"a": 3, "b": 0, "c": 0}

    def test_fifo_started_jobs_degrade_instead_of_pausing(self):
        grants = allocate([("a", 4, True), ("b", 4, True)], 6, FIFO)
        assert grants == {"a": 4, "b": 2}

    def test_fair_water_fills_round_robin(self):
        grants = allocate([("a", 4, False), ("b", 2, False)], 5, FAIR)
        assert grants == {"a": 3, "b": 2}

    def test_zero_capacity_grants_nothing(self):
        assert allocate([("a", 4, True)], 0, FIFO) == {"a": 0}

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            allocate([("a", 1, False), ("a", 2, False)], 4, FIFO)
        with pytest.raises(ValueError, match="unknown policy"):
            allocate([("a", 1, False)], 4, "lifo")


# ----------------------------------------------------------------------
# Traces: generation determinism and spec round-trips
# ----------------------------------------------------------------------
class TestTraces:
    def test_generate_trace_is_deterministic(self):
        spec = builtin_trace("rush")
        one = generate_trace(spec, seed=7)
        two = generate_trace(spec, seed=7)
        assert len(one.arrivals) == spec.n_jobs
        for a, b in zip(one.arrivals, two.arrivals):
            assert (a.job_id, a.program, a.arrival_s, a.straggler_factor) == (
                b.job_id, b.program, b.arrival_s, b.straggler_factor
            )
            assert dict(a.config) == dict(b.config)
        assert one.revocations == two.revocations

    def test_different_seeds_differ(self):
        spec = builtin_trace("rush")
        one = generate_trace(spec, seed=1)
        two = generate_trace(spec, seed=2)
        assert [a.arrival_s for a in one.arrivals] != [
            a.arrival_s for a in two.arrivals
        ]

    def test_zero_rate_is_a_burst_at_t0(self):
        spec = TraceSpec(
            name="burst",
            templates=(JobTemplate(program="WC", size=10.0),),
            n_jobs=3,
            arrival_rate_per_min=0.0,
        )
        trace = generate_trace(spec)
        assert [a.arrival_s for a in trace.arrivals] == [0.0, 0.0, 0.0]

    def test_spec_round_trips_through_json(self, tmp_path):
        spec = builtin_trace("spot")
        doc = json.loads(json.dumps(spec.to_dict()))
        assert TraceSpec.from_dict(doc) == spec
        path = tmp_path / "spot.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_trace_spec(path) == spec

    def test_resolve_revocations_binds_pool_fraction(self):
        spec = builtin_trace("spot")
        trace = generate_trace(spec, seed=0)
        assert trace.revocations  # spot's rate guarantees events
        resolved = resolve_revocations(trace, slots=48)
        assert all(r.slots == 12 for r in resolved)  # ceil(0.25 * 48)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="policy"):
            TraceSpec(
                name="x",
                templates=(JobTemplate(program="WC", size=1.0),),
                n_jobs=1,
                policy="lifo",
            )
        with pytest.raises(ValueError, match="template"):
            TraceSpec(name="x", templates=(), n_jobs=1)

    def test_builtin_traces_listing(self):
        assert BUILTIN_TRACES == ("rush", "smoke", "spot")
        for name in BUILTIN_TRACES:
            assert builtin_trace(name).name == name
        with pytest.raises(KeyError, match="built-ins"):
            builtin_trace("nope")


# ----------------------------------------------------------------------
# The runner: end-to-end determinism and replay
# ----------------------------------------------------------------------
class TestScenarioRunner:
    def test_same_seed_gives_identical_fingerprints(self):
        spec = builtin_trace("smoke")
        runner = ScenarioRunner()
        one = runner.run(spec, seed=3)
        two = runner.run(spec, seed=3)
        assert scenario_fingerprint(one) == scenario_fingerprint(two)
        assert scenario_fingerprint(runner.run(spec, seed=4)) != (
            scenario_fingerprint(one)
        )

    def test_process_pool_matches_in_process_byte_for_byte(self):
        # The satellite determinism regression: the isolated measurements
        # go through the engine, so backend choice must not leak into
        # the report.
        spec = builtin_trace("smoke")
        solo = ScenarioRunner(engine=InProcessBackend(PAPER_CLUSTER)).run(
            spec, seed=3
        )
        with ProcessPoolBackend(jobs=2, cluster=PAPER_CLUSTER) as pool:
            pooled = ScenarioRunner(engine=pool).run(spec, seed=3)
        assert scenario_fingerprint(solo) == scenario_fingerprint(pooled)

    def test_report_round_trips_with_fingerprint(self):
        report = ScenarioRunner().run(builtin_trace("smoke"), seed=1)
        doc = json.loads(json.dumps(report_to_dict(report)))
        rebuilt = report_from_dict(doc)
        assert scenario_fingerprint(rebuilt) == scenario_fingerprint(report)
        assert doc["fingerprint"] == scenario_fingerprint(report)

    def test_contention_produces_queueing_and_slowdown(self):
        report = ScenarioRunner().run(builtin_trace("smoke"), seed=3)
        assert report.mean_slowdown >= 1.0
        assert all(j.queue_s >= 0.0 for j in report.jobs)
        assert 0.0 < report.utilization <= 1.0
        rendered = render_scenario_report(report)
        for job in report.jobs:
            assert job.job_id in rendered
        assert "makespan" in rendered

    def test_spot_trace_revokes(self):
        report = ScenarioRunner().run(builtin_trace("spot"), seed=0)
        assert report.revocations
        assert any(j.revocation_hits > 0 for j in report.jobs)

    def test_scenario_emits_telemetry_events(self):
        spec = builtin_trace("smoke")
        with telemetry.session() as tel:
            ScenarioRunner().run(spec, seed=0)
            events = {
                r["name"] for r in tel.records if r["kind"] == "event"
            }
            spans = {r["name"] for r in tel.records if r["kind"] == "span"}
        assert "scenario.job_arrived" in events
        assert "scenario.job_started" in events
        assert "scenario.job_finished" in events
        assert "scenario.run" in spans


# ----------------------------------------------------------------------
# CLI: run / replay / report
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_list(self):
        assert cli_main(["scenario", "list"]) == 0

    def test_run_twice_writes_identical_fingerprints(self, tmp_path):
        # The acceptance criterion: `repro scenario run --seed S` twice
        # produces fingerprint-identical reports.
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        for out in (first, second):
            rc = cli_main(
                ["scenario", "run", "smoke", "--seed", "3", "--out", str(out)]
            )
            assert rc == 0
        one = json.loads(first.read_text())
        two = json.loads(second.read_text())
        assert one["fingerprint"] == two["fingerprint"]
        assert one == two

    def test_replay_verifies_and_detects_tampering(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli_main(
            ["scenario", "run", "smoke", "--seed", "5", "--out", str(out)]
        ) == 0
        assert cli_main(["scenario", "replay", str(out)]) == 0
        assert cli_main(["scenario", "report", str(out)]) == 0

        doc = json.loads(out.read_text())
        doc["fingerprint"] = "0" * len(doc["fingerprint"])
        out.write_text(json.dumps(doc))
        assert cli_main(["scenario", "replay", str(out)]) == 1

    def test_replay_detects_tampered_content(self, tmp_path):
        # Editing a job row while leaving the original fingerprint
        # string in place must still fail: replay digests the saved
        # content, it does not trust the stored claim.
        out = tmp_path / "report.json"
        assert cli_main(
            ["scenario", "run", "smoke", "--seed", "5", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        doc["jobs"][0]["finish_s"] += 1.0
        out.write_text(json.dumps(doc))
        assert cli_main(["scenario", "replay", str(out)]) == 1

    def test_run_accepts_spec_file(self, tmp_path):
        spec_path = tmp_path / "custom.json"
        spec_path.write_text(json.dumps(builtin_trace("smoke").to_dict()))
        assert cli_main(["scenario", "run", str(spec_path)]) == 0

    def test_unknown_trace_is_an_error(self):
        assert cli_main(["scenario", "run", "nope"]) == 2


# ----------------------------------------------------------------------
# Tuning under interference
# ----------------------------------------------------------------------
class TestInterference:
    def test_contended_time_includes_queueing_and_contention(self):
        base = InProcessBackend(PAPER_CLUSTER)
        backend = InterferenceBackend(base, builtin_trace("rush"), seed=0)
        job = get_workload("TS").job(min(get_workload("TS").paper_sizes))
        config = SPARK_CONF_SPACE.default()
        isolated = base.run(job, config).seconds
        contended = backend.run(job, config).seconds
        assert contended >= isolated

    def test_backend_is_deterministic(self):
        job = get_workload("WC").job(min(get_workload("WC").paper_sizes))
        config = SPARK_CONF_SPACE.default()
        seconds = [
            InterferenceBackend(
                InProcessBackend(PAPER_CLUSTER), builtin_trace("rush"), seed=2
            ).run(job, config).seconds
            for _ in range(2)
        ]
        assert seconds[0] == seconds[1]

    def test_signature_pins_scenario_and_seed(self):
        base = InProcessBackend(PAPER_CLUSTER)
        spec = builtin_trace("smoke")
        sig = InterferenceBackend(base, spec, seed=9).signature()
        assert sig.startswith("interference|")
        assert base.signature() in sig
        assert "seed=9" in sig
        assert sig != InterferenceBackend(base, spec, seed=8).signature()

    def test_demand_for_bounds(self):
        config = SPARK_CONF_SPACE.default()
        assert 1 <= demand_for(config, PAPER_CLUSTER, 4) <= 4
        assert demand_for(config, PAPER_CLUSTER, 10_000) >= 1

    def test_io_fraction_of_is_bounded(self):
        run = InProcessBackend(PAPER_CLUSTER).run(
            get_workload("TS").job(min(get_workload("TS").paper_sizes)),
            SPARK_CONF_SPACE.default(),
        )
        assert 0.0 <= io_fraction_of(run) <= 1.0

    def test_tuner_entry_point_wraps_the_engine(self):
        tuner = DacTuner.under_interference(
            get_workload("TS"), "smoke", scenario_seed=1
        )
        assert tuner.engine.signature().startswith("interference|")

    def test_each_request_is_telemetered_once_with_contended_seconds(self):
        """One ``engine.request`` per request the wrapper served: none
        for the base's isolated runs or the background's, and each
        carries the contended time the collector stored."""
        workload = get_workload("TS")
        tuner = DacTuner.under_interference(
            workload, "smoke", n_train=16, n_trees=8, seed=3
        )
        with telemetry.session() as tel:
            training = tuner.collect()
            tuner.fit()
            tuner.tune(min(workload.paper_sizes), generations=2)
        seconds = [
            r["fields"].get("seconds")
            for r in tel.records
            if r.get("name") == "engine.request"
        ]
        assert len(seconds) == tuner.engine.stats.runs == len(training)
        assert sorted(seconds) == sorted(training.times().tolist())

        # The base may be shared: its direct callers stay telemetered.
        job = workload.job(min(workload.paper_sizes))
        with telemetry.session() as tel:
            tuner.engine.base.run(job, SPARK_CONF_SPACE.default())
        assert [r.get("name") for r in tel.records].count("engine.request") == 1
