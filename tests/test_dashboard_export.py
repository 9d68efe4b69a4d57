"""The `repro top` dashboard and the Prometheus/JSON exporters."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.cli.main import main
from repro.service import DONE, JobService, TuneRequest
from repro.store import RunStore
from repro.telemetry.dashboard import (
    FleetDashboard,
    render_snapshot,
    run_top,
    sparkline,
)
from repro.telemetry.events import Telemetry, install
from repro.telemetry.export import (
    ExpositionError,
    parse_exposition,
    prometheus_from_fleet,
    write_json_snapshot,
    write_prometheus,
)
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.trace import read_event_log

FAST = dict(n_train=40, n_trees=15, generations=3, patience=None, seed=2)


def _request(**overrides) -> TuneRequest:
    return TuneRequest(**{"program": "TS", "size": 10.0, **FAST, **overrides})


@pytest.fixture(scope="module")
def finished_store(tmp_path_factory):
    """One store with a completed tune job (module-scoped: jobs are slow)."""
    root = tmp_path_factory.mktemp("fleet") / "store"
    service = JobService(root, use_cache=False, worker_id="w1")
    service.submit(_request())
    finished = service.work(poll_interval=0.01, max_jobs=1, idle_polls=2)
    assert finished[0].state == DONE
    return root


@pytest.fixture(scope="module")
def worker_store(tmp_path_factory):
    """A job drained by ``JobService.work`` under an installed worker
    session, as ``repro worker`` runs it (cached engine)."""
    service = JobService(tmp_path_factory.mktemp("worker") / "store",
                         worker_id="w1")
    job_id = service.submit(_request()).job_id
    worker_log = service.store.event_log_path("worker-w1")
    session = Telemetry([JsonlSink(worker_log, append=True, live=True)])
    previous = install(session)
    try:
        finished = service.work(poll_interval=0.01, max_jobs=1, idle_polls=2)
    finally:
        install(previous)
        session.close()
    assert finished[0].state == DONE
    return service.store, job_id


def _names(path):
    return [record.get("name") for record in read_event_log(path).records]


def _write_log(store, name, records):
    """Write event log ``name``: one session from wall 1000.0 holding
    ``(record name, ts, fields)`` events."""
    store.events_dir.mkdir(parents=True, exist_ok=True)
    meta = {"kind": "meta", "version": 1, "wall_start": 1000.0, "pid": 1}
    lines = [json.dumps(meta)] + [
        json.dumps({"kind": "event", "name": record, "ts": ts, "parent": 0,
                    "fields": fields})
        for record, ts, fields in records
    ]
    with store.event_log_path(name).open("a") as handle:
        handle.write("\n".join(lines) + "\n")


class TestSparkline:
    def test_empty_is_blank(self):
        assert sparkline([], width=4) == "    "

    def test_monotone_series_ramps(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0], width=4)
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_series_renders_mid_ramp(self):
        assert set(sparkline([5.0, 5.0, 5.0], width=3)) == {"▅"}

    def test_long_series_resampled_to_width(self):
        assert len(sparkline([float(i) for i in range(100)], width=8)) == 8


class TestFleetDashboard:
    def test_snapshot_consistent_with_store_records(self, finished_store):
        store = RunStore(finished_store)
        dashboard = FleetDashboard(store)
        snap = dashboard.snapshot()
        records = store.list_jobs()
        assert len(snap["jobs"]) == len(records)
        by_id = {job["job_id"]: job for job in snap["jobs"]}
        for record in records:
            row = by_id[record["job_id"]]
            assert row["state"] == record["state"]
            assert row["phase"] == record["phase"]
        (job,) = snap["jobs"]
        # GA panel reconstructed from the job's own event log.
        assert job["ga"]["generation"] == FAST["generations"]
        # generation 0 (initial population) + one event per generation.
        assert len(job["ga"]["history"]) == FAST["generations"] + 1
        assert job["ga"]["best"] == job["ga"]["history"][-1]
        assert snap["engine"]["requests"] > 0
        assert snap["events"]["records"] > 0

    def test_refresh_is_incremental(self, finished_store):
        dashboard = FleetDashboard(RunStore(finished_store))
        first = dashboard.refresh()
        assert first > 0
        assert dashboard.refresh() == 0  # nothing new appended

    def test_render_has_all_panels(self, finished_store):
        dashboard = FleetDashboard(RunStore(finished_store))
        frame = render_snapshot(dashboard.snapshot(), color=False)
        for heading in ("JOBS", "WORKERS", "ENGINE"):
            assert heading in frame
        assert "100%" in frame  # the finished job's progress bar

    def test_run_top_once_json_writes_snapshot(self, finished_store, capsys):
        import io

        buffer = io.StringIO()
        assert run_top(
            RunStore(finished_store), once=True, as_json=True, out=buffer
        ) == 0
        snap = json.loads(buffer.getvalue())
        assert snap["summary"]["jobs_done"] == 1

    def test_empty_store_renders(self, tmp_path):
        store = RunStore(tmp_path / "empty")
        frame = render_snapshot(FleetDashboard(store).snapshot(), color=False)
        assert "(no jobs)" in frame and "(no heartbeats)" in frame


class TestPanels:
    """What the dashboard keeps of each record: exact counts, the
    trailing-window rates, nearest-rank quantiles and per-job GA curves."""

    def test_counts_stay_exact_past_the_sample_window(self, tmp_path):
        store = RunStore(tmp_path / "store")
        records = []
        for i in range(6000):
            first_half = i < 3000
            records += [
                ("api.request", 0.003 * i,
                 {"status": 500 if first_half else 200, "seconds": 0.01,
                  "deduplicated": first_half}),
                ("engine.request", 0.003 * i + 0.001,
                 {"cache_hit": first_half, "queue_wait": 0.001,
                  "wall_seconds": 0.01}),
                ("model.fit", 0.003 * i + 0.002, {"seconds": 0.1, "trees": 10}),
            ]
        _write_log(store, "ts-exact", records)
        snap = FleetDashboard(store).snapshot()
        api, engine = snap["api"], snap["engine"]
        assert (api["requests"], api["errors"], api["deduplicated"]) == (
            6000, 3000, 3000)
        assert api["rate"] == 100.0
        assert engine["requests"] == 6000
        assert engine["cache_hit_rate"] == 0.5
        assert engine["runs_per_sec"] == 100.0
        assert (engine["fits"], engine["fit_trees"]) == (6000, 60_000)
        assert snap["events"] == {"records": 18_000, "logs": 1}

    def test_memory_is_bounded_by_constants(self, tmp_path):
        """Records of kinds no panel reads are counted, not kept."""
        store = RunStore(tmp_path / "store")
        stage = {"stage": "sort", "seconds": 3.1, "gc_seconds": 0.2,
                 "spill_bytes": 0, "num_tasks": 64}
        for job in range(5):
            _write_log(store, f"ts-{job}", [
                ("stage.completed", 0.001 * i, stage) for i in range(5000)
            ])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dashboard = FleetDashboard(store)
            dashboard.snapshot()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert dashboard.snapshot()["events"]["records"] == 25_000
        assert grown < 1_000_000, f"dashboard kept {grown / 1e6:.2f} MB"

    def test_rate_over_the_trailing_window(self, tmp_path):
        store = RunStore(tmp_path / "store")
        _write_log(store, "worker-w1", [
            ("engine.request", float(t), {}) for t in range(120)
        ])
        dashboard = FleetDashboard(store)
        # now = 119: the window [59, 119] holds 61 arrivals.
        assert dashboard.snapshot()["engine"]["runs_per_sec"] == round(61 / 60, 3)
        # Any record moves "now": a stage at 300 leaves only the request
        # at 250 inside the window [240, 300].
        _write_log(store, "worker-w1", [("stage.completed", 300.0, {}),
                                        ("engine.request", 250.0, {})])
        assert dashboard.snapshot()["engine"]["runs_per_sec"] == round(1 / 60, 3)

    def test_queue_wait_quantiles_are_nearest_rank(self, tmp_path):
        store = RunStore(tmp_path / "store")
        _write_log(store, "worker-w1", [
            ("engine.request", float(i), {"queue_wait": float(i)})
            for i in range(1, 101)
        ])
        engine = FleetDashboard(store).snapshot()["engine"]
        assert (engine["queue_wait_p50"], engine["queue_wait_p99"]) == (50, 99)

    def test_ga_panel_keeps_each_jobs_curve_apart(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        first = service.submit(_request(seed=1)).job_id
        second = service.submit(_request(seed=2)).job_id
        _write_log(service.store, first, [
            ("ga.generation", 1.0, {"generation": 0, "best": 5.0}),
        ])
        _write_log(service.store, second, [
            ("ga.generation", 2.0, {"generation": 0, "best": 7.0}),
        ])
        ga = {job["job_id"]: job["ga"]
              for job in FleetDashboard(service.store).snapshot()["jobs"]}
        assert ga[first] == {"generation": 0, "best": 5.0, "history": [5.0]}
        assert ga[second] == {"generation": 0, "best": 7.0, "history": [7.0]}

    def test_ga_panel_shows_the_newest_generation(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        first = service.submit(_request(seed=1)).job_id
        second = service.submit(_request(seed=2)).job_id
        dashboard = FleetDashboard(service.store)
        _write_log(service.store, first, [
            ("ga.generation", float(g), {"generation": g, "best": 100.0 - g})
            for g in range(100)
        ])
        # A newer generation of another job does not stand in for this one's.
        _write_log(service.store, second, [
            ("ga.generation", 200.0, {"generation": 0, "best": 7.0}),
        ])
        dashboard.snapshot()
        _write_log(service.store, first, [
            ("ga.generation", 300.0, {"generation": 100, "best": 0.5}),
        ])
        ga = {job["job_id"]: job["ga"] for job in dashboard.snapshot()["jobs"]}
        assert (ga[first]["generation"], ga[first]["best"]) == (100, 0.5)
        assert ga[first]["history"] == [100.0 - g for g in range(37, 100)] + [0.5]
        assert (ga[second]["generation"], ga[second]["best"]) == (0, 7.0)

    def test_empty_store_panels(self, tmp_path):
        snap = FleetDashboard(RunStore(tmp_path / "empty")).snapshot()
        assert snap["engine"] == {
            "requests": 0, "runs_per_sec": 0.0, "cache_hit_rate": None,
            "queue_wait_p50": None, "queue_wait_p99": None, "wall_p50": None,
            "fits": 0, "fit_seconds_p50": None, "fit_trees": 0,
        }
        assert snap["api"] == {
            "requests": 0, "rate": 0.0, "errors": 0, "deduplicated": 0,
            "latency_p50": None, "latency_p99": None,
        }
        assert snap["events"] == {"records": 0, "logs": 0}


class TestOneWriterPerLog:
    def test_job_log_opens_with_meta(self, worker_store):
        store, job_id = worker_store
        first = store.event_log_path(job_id).read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "meta"

    def test_worker_log_holds_no_job_records(self, worker_store):
        store, _ = worker_store
        names = set(_names(store.event_log_path("worker-w1")))
        assert {"lease.acquired", "lease.released"} <= names
        assert not names & {"engine.request", "model.fit", "job.completed"}

    def test_engine_panel_counts_each_record_once(self, worker_store):
        store, job_id = worker_store
        names = _names(store.event_log_path(job_id))
        engine = FleetDashboard(store).snapshot()["engine"]
        assert engine["requests"] == names.count("engine.request") > 0
        assert engine["fits"] == names.count("model.fit") > 0

    def test_executed_requests_carry_queue_wait(self, worker_store):
        store, job_id = worker_store
        requests = [
            record["fields"]
            for record in read_event_log(store.event_log_path(job_id)).records
            if record.get("name") == "engine.request"
        ]
        executed = [fields for fields in requests if not fields["cache_hit"]]
        assert executed and all("queue_wait" in fields for fields in executed)
        engine = FleetDashboard(store).snapshot()["engine"]
        assert engine["queue_wait_p50"] is not None


class TestTopCli:
    def test_top_once_json(self, finished_store, capsys):
        assert main(["top", "--store", str(finished_store), "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["summary"]["jobs_total"] == 1
        assert snap["jobs"][0]["state"] == "done"
        assert snap["workers"][0]["worker"] == "w1"

    def test_top_once_frame_and_exports(self, finished_store, tmp_path, capsys):
        prom = tmp_path / "fleet.prom"
        snap_path = tmp_path / "fleet.json"
        assert main([
            "top", "--store", str(finished_store), "--once", "--no-color",
            "--prometheus", str(prom), "--snapshot", str(snap_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "JOBS" in out and "ENGINE" in out
        parse_exposition(prom.read_text())  # must satisfy the grammar
        assert json.loads(snap_path.read_text())["summary"]["jobs_done"] == 1

    def test_top_frames_json_and_exports(self, finished_store, tmp_path, capsys):
        prom = tmp_path / "fleet.prom"
        snap_path = tmp_path / "fleet.json"
        assert main([
            "top", "--store", str(finished_store), "--frames", "2", "--json",
            "--interval", "0.01",
            "--prometheus", str(prom), "--snapshot", str(snap_path),
        ]) == 0
        frames = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(frames) == 2
        assert all(frame["summary"]["jobs_done"] == 1 for frame in frames)
        parse_exposition(prom.read_text())
        assert json.loads(snap_path.read_text())["summary"]["jobs_done"] == 1


class TestPrometheusExport:
    def test_fleet_export_parses_and_covers_panels(self, finished_store):
        snap = FleetDashboard(RunStore(finished_store)).snapshot()
        text = prometheus_from_fleet(snap)
        families = parse_exposition(text)
        for family in (
            "repro_fleet_jobs_done",
            "repro_fleet_job_progress",
            "repro_fleet_worker_heartbeat_age_seconds",
            "repro_fleet_engine_cache_hit_rate",
        ):
            assert family in families, f"missing {family}"
        (sample,) = families["repro_fleet_jobs_done"]["samples"]
        assert sample[2] == 1.0
        progress = families["repro_fleet_job_progress"]["samples"][0]
        assert progress[1]["program"] == "TS"
        assert progress[2] == 1.0

    def test_label_values_escaped(self):
        text = prometheus_from_fleet(
            {"jobs": [{"job_id": 'tricky"job\n', "program": "TS",
                       "progress": {"phase": "collect", "fraction": 0.5},
                       "state": "running"}]}
        )
        families = parse_exposition(text)
        sample = families["repro_fleet_job_progress"]["samples"][0]
        assert sample[1]["job"] == 'tricky\\"job\\n'

    def test_each_family_is_one_group(self):
        """Two jobs and two workers: every family's header and samples
        stay together, so the per-job and per-worker families do not
        interleave."""
        text = prometheus_from_fleet({
            "jobs": [{"job_id": job, "program": "TS", "sessions": 1,
                      "state": "done", "ga": {"generation": 3, "best": 1.0},
                      "progress": {"phase": "search", "fraction": 1.0}}
                     for job in ("a", "b")],
            "workers": [{"worker": worker, "host": "h", "age": 0.5,
                         "status": "alive", "jobs_done": 1, "seq": 4}
                        for worker in ("w1", "w2")],
        })
        runs = []
        for line in text.splitlines():
            name = line.split()[2] if line.startswith("#") else (
                line.split("{")[0].split()[0])
            if not runs or runs[-1] != name:
                runs.append(name)
        assert len(runs) == len(set(runs)), runs
        families = parse_exposition(text)
        assert len(families["repro_fleet_job_progress"]["samples"]) == 2
        assert len(families["repro_fleet_worker_up"]["samples"]) == 2

    def test_parser_rejects_interleaved_families(self):
        with pytest.raises(ExpositionError, match="group"):
            parse_exposition(
                "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na{x=\"2\"} 2\n"
            )

    def test_parser_rejects_violations(self):
        with pytest.raises(ExpositionError):
            parse_exposition("9bad_name 1\n")
        with pytest.raises(ExpositionError):
            parse_exposition('ok{label=unquoted} 1\n')
        with pytest.raises(ExpositionError):
            parse_exposition("ok notanumber\n")
        with pytest.raises(ExpositionError):
            parse_exposition("# TYPE x wrongtype\nx 1\n")
        with pytest.raises(ExpositionError):
            # histogram without _sum/_count
            parse_exposition(
                "# TYPE h histogram\n" 'h_bucket{le="+Inf"} 1\n'
            )

    def test_write_prometheus_and_json_atomic(self, finished_store, tmp_path):
        snap = FleetDashboard(RunStore(finished_store)).snapshot()
        prom = write_prometheus(tmp_path / "out" / "fleet.prom", fleet_snapshot=snap)
        parse_exposition(prom.read_text())
        # No leftover temp files from the atomic replace.
        assert [p.name for p in prom.parent.iterdir()] == ["fleet.prom"]
        jpath = write_json_snapshot(tmp_path / "snap.json", snap)
        assert json.loads(jpath.read_text())["summary"]["jobs_total"] == 1
