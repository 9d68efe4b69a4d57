"""Worker heartbeats, heartbeat-accelerated takeover, and the fleet view.

The properties under test:

* heartbeat files are atomic, monotonically sequenced, and classified
  (ALIVE/STALE/DEAD/EXITED) from the writer's own beat interval;
* a lease whose holder's heartbeat proves it dead is expired — and
  taken over — well before the lease TTL (the ROADMAP's cross-host
  dead-worker detection), while holders with *no* heartbeat keep the
  old TTL-only behavior;
* :class:`FleetView` joins heartbeats, leases, and job records into
  worker/job rows consistent with the store;
* across real processes: a SIGKILLed worker is seen DEAD and its job
  reclaimed in far less than half the lease TTL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    ALIVE,
    DEAD,
    DONE,
    EXITED,
    QUEUED,
    STALE,
    FleetView,
    HeartbeatWriter,
    JobService,
    LeaseManager,
    TuneRequest,
    dead_worker_check,
    default_heartbeat_interval,
    heartbeat_status,
    job_progress,
    read_heartbeat,
    read_heartbeats,
)
from repro.service.jobs import JobRecord
from repro.store import RunStore

SRC = str(Path(__file__).parent.parent / "src")

FAST = dict(n_train=40, n_trees=15, generations=3, patience=None, seed=2)


def _request(**overrides) -> TuneRequest:
    return TuneRequest(**{"program": "TS", "size": 10.0, **FAST, **overrides})


class FakeClock:
    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# The heartbeat file
# ----------------------------------------------------------------------
class TestHeartbeatWriter:
    def test_beat_roundtrip_and_monotonic_seq(self, tmp_path):
        clock = FakeClock()
        writer = HeartbeatWriter(tmp_path, "w1", interval=2.0, clock=clock)
        writer.beat()
        writer.update(job="job-7")
        heartbeat = read_heartbeat(writer.path)
        assert heartbeat.worker == "w1"
        assert heartbeat.pid == os.getpid()
        assert heartbeat.seq == 2
        assert heartbeat.job == "job-7"
        assert heartbeat.wall == clock.now
        assert heartbeat.interval == 2.0

    def test_update_clears_job_and_counts_done(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "w1", interval=2.0)
        writer.update(job="j")
        writer.update(clear_job=True, jobs_done=3)
        heartbeat = read_heartbeat(writer.path)
        assert heartbeat.job is None
        assert heartbeat.jobs_done == 3

    def test_stop_publishes_exited(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "w1", interval=0.05)
        writer.start()
        writer.stop()
        heartbeat = read_heartbeat(writer.path)
        assert heartbeat.state == EXITED

    def test_background_thread_beats_without_calls(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "w1", interval=0.02)
        writer.start()
        try:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                heartbeat = read_heartbeat(writer.path)
                if heartbeat is not None and heartbeat.seq >= 3:
                    break
                time.sleep(0.01)
            assert read_heartbeat(writer.path).seq >= 3
        finally:
            writer.stop()

    def test_maybe_beat_rate_limits(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "w1", interval=60.0)
        assert writer.maybe_beat() is True
        assert writer.maybe_beat() is False  # within the interval
        assert read_heartbeat(writer.path).seq == 1

    def test_torn_or_garbage_files_read_as_none(self, tmp_path):
        (tmp_path / "bad.hb").write_text("{not json")
        (tmp_path / "list.hb").write_text("[1, 2]")
        good = HeartbeatWriter(tmp_path, "ok", interval=1.0)
        good.beat()
        beats = read_heartbeats(tmp_path)
        assert list(beats) == ["ok"]

    def test_invalid_interval_raises(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatWriter(tmp_path, "w", interval=0)

    def test_default_interval_tracks_ttl_with_floor(self):
        assert default_heartbeat_interval(30.0) == 3.0
        assert default_heartbeat_interval(1.0) == 0.5


class TestHeartbeatStatus:
    def _beat(self, tmp_path, clock, interval=2.0, state=ALIVE):
        writer = HeartbeatWriter(tmp_path, "w1", interval=interval, clock=clock)
        writer.beat(state=state)
        return read_heartbeat(writer.path)

    def test_thresholds_scale_with_writer_interval(self, tmp_path):
        clock = FakeClock()
        heartbeat = self._beat(tmp_path, clock, interval=2.0)
        assert heartbeat_status(heartbeat, clock.now) == ALIVE
        assert heartbeat_status(heartbeat, clock.now + 3.9) == ALIVE
        assert heartbeat_status(heartbeat, clock.now + 4.0) == STALE
        assert heartbeat_status(heartbeat, clock.now + 5.9) == STALE
        assert heartbeat_status(heartbeat, clock.now + 6.0) == DEAD

    def test_exited_wins_regardless_of_age(self, tmp_path):
        clock = FakeClock()
        heartbeat = self._beat(tmp_path, clock, state=EXITED)
        assert heartbeat_status(heartbeat, clock.now) == EXITED
        assert heartbeat_status(heartbeat, clock.now + 1e6) == EXITED


# ----------------------------------------------------------------------
# Heartbeat-accelerated lease takeover
# ----------------------------------------------------------------------
class TestHeartbeatTakeover:
    def _managers(self, tmp_path, clock, ttl=30.0):
        health = tmp_path / "health"
        health.mkdir()
        check = dead_worker_check(health, clock=clock)
        alpha = LeaseManager(
            tmp_path / "leases", worker_id="alpha", ttl=ttl, clock=clock,
            dead_worker_check=check,
        )
        beta = LeaseManager(
            tmp_path / "leases", worker_id="beta", ttl=ttl, clock=clock,
            dead_worker_check=check,
        )
        return health, alpha, beta

    def _fake_cross_host(self, tmp_path, job_id):
        """Rewrite a lease as held from another host, so only the TTL
        or the heartbeat — never the same-host pid probe — can kill it."""
        path = tmp_path / "leases" / f"{job_id}.lease"
        data = json.loads(path.read_text())
        data["host"] = "elsewhere"
        path.write_text(json.dumps(data))

    def test_dead_heartbeat_expires_lease_before_ttl(self, tmp_path):
        clock = FakeClock()
        health, alpha, beta = self._managers(tmp_path, clock, ttl=30.0)
        writer = HeartbeatWriter(health, "alpha", interval=1.0, clock=clock)
        writer.beat()
        first = alpha.acquire("job-1")
        self._fake_cross_host(tmp_path, "job-1")
        clock.advance(2.5)  # < 3 intervals: still just stale
        assert beta.acquire("job-1") is None
        clock.advance(1.0)  # 3.5 intervals silent: dead
        assert clock.now < first.expires  # TTL alone would still hold it
        stolen = beta.acquire("job-1")
        assert stolen is not None and stolen.stolen
        assert stolen.token > first.token

    def test_exited_holder_with_leftover_lease_is_expired(self, tmp_path):
        clock = FakeClock()
        health, alpha, beta = self._managers(tmp_path, clock)
        alpha.acquire("job-1")
        self._fake_cross_host(tmp_path, "job-1")
        writer = HeartbeatWriter(health, "alpha", interval=1.0, clock=clock)
        writer.beat(state=EXITED)  # said goodbye but lease remains
        assert beta.acquire("job-1") is not None

    def test_no_heartbeat_file_falls_back_to_ttl(self, tmp_path):
        # Resume CLIs and older workers never beat; their leases keep
        # the original TTL-only lifetime.
        clock = FakeClock()
        health, alpha, beta = self._managers(tmp_path, clock, ttl=10.0)
        alpha.acquire("job-1")
        self._fake_cross_host(tmp_path, "job-1")
        clock.advance(9.9)
        assert beta.acquire("job-1") is None  # no evidence: honor the TTL
        clock.advance(0.2)
        assert beta.acquire("job-1") is not None  # TTL still works

    def test_fresh_heartbeat_keeps_lease_alive(self, tmp_path):
        clock = FakeClock()
        health, alpha, beta = self._managers(tmp_path, clock)
        writer = HeartbeatWriter(health, "alpha", interval=1.0, clock=clock)
        alpha.acquire("job-1")
        self._fake_cross_host(tmp_path, "job-1")
        for _ in range(5):
            clock.advance(1.0)
            writer.beat()
            assert beta.acquire("job-1") is None


# ----------------------------------------------------------------------
# Progress shapes
# ----------------------------------------------------------------------
class TestJobProgress:
    def _record(self, **kwargs):
        record = JobRecord.new(_request())
        for key, value in kwargs.items():
            setattr(record, key, value)
        return record

    def test_collect_counts_batches(self):
        record = self._record(
            phase="collect",
            progress={"collect": {"batches_done": 2, "total_batches": 8}},
        )
        progress = job_progress(record)
        assert progress == {
            "phase": "collect", "done": 2, "total": 8, "fraction": 0.25,
        }

    def test_fit_counts_its_one_checkpoint(self):
        record = self._record(phase="fit", progress={"fit": {}})
        assert job_progress(record) == {
            "phase": "fit", "done": 0, "total": 1, "fraction": 0.0,
        }
        record.progress["fit"]["done"] = True
        assert job_progress(record)["fraction"] == 1.0

    def test_search_counts_generations(self):
        record = self._record(
            phase="search", progress={"search": {"generation": 2}}
        )
        progress = job_progress(record)
        assert progress["total"] == FAST["generations"]
        assert progress["fraction"] == pytest.approx(2 / 3, abs=1e-3)

    def test_done_job_is_full(self):
        record = self._record(state=DONE, phase="report")
        assert job_progress(record)["fraction"] == 1.0

    def test_empty_progress_is_zero_not_error(self):
        assert job_progress(self._record())["fraction"] == 0.0


# ----------------------------------------------------------------------
# The joined fleet view
# ----------------------------------------------------------------------
class TestFleetView:
    def test_snapshot_joins_store_jobs_and_heartbeats(self, tmp_path):
        store = RunStore(tmp_path / "store")
        service = JobService(store, use_cache=False, worker_id="w1")
        record = service.submit(_request())
        finished = service.work(poll_interval=0.01, max_jobs=1, idle_polls=2)
        assert finished[0].state == DONE

        view = FleetView(store)
        snap = view.snapshot()
        assert snap["summary"]["jobs_total"] == 1
        assert snap["summary"]["jobs_done"] == 1
        (job,) = snap["jobs"]
        assert job["job_id"] == record.job_id
        assert job["state"] == DONE
        assert job["progress"]["fraction"] == 1.0
        assert job["worker"] == "w1"
        assert not job["claimable"]
        (worker,) = snap["workers"]
        assert worker["worker"] == "w1"
        assert worker["status"] == EXITED  # clean shutdown, not a death
        assert worker["jobs_done"] == 1

    def test_queued_job_is_claimable_and_dead_holder_flagged(self, tmp_path):
        clock = FakeClock()
        store = RunStore(tmp_path / "store")
        service = JobService(store, use_cache=False, worker_id="w1")
        record = service.submit(_request())
        view = FleetView(store, clock=clock)
        (job,) = view.snapshot()["jobs"]
        assert job["state"] == QUEUED and job["claimable"]

        # Lease it from a "crashed" worker with a dead heartbeat.
        manager = LeaseManager(
            store.lease_dir, worker_id="ghost", ttl=1000.0, clock=clock
        )
        manager.acquire(record.job_id)
        writer = HeartbeatWriter(
            store.health_dir, "ghost", interval=1.0, clock=clock
        )
        writer.beat()
        clock.advance(10.0)
        (job,) = view.snapshot()["jobs"]
        assert job["holder"] == "ghost"
        assert job["holder_status"] == DEAD
        assert job["claimable"]  # dead holder: anyone may take over

    def test_snapshot_reads_each_source_once(self, tmp_path, monkeypatch):
        """One snapshot loads each job record once, peeks each lease
        once and lists the heartbeat directory once."""
        import repro.service.health as health

        store = RunStore(tmp_path / "store")
        service = JobService(store, use_cache=False)
        records = [service.submit(_request(seed=seed)) for seed in range(5)]
        LeaseManager(store.lease_dir, worker_id="w1").acquire(records[0].job_id)
        HeartbeatWriter(store.health_dir, "w1").beat()

        reads = {"load_job": 0, "peek": 0, "listing": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                reads[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(store, "load_job", counted("load_job", store.load_job))
        monkeypatch.setattr(LeaseManager, "peek", counted("peek", LeaseManager.peek))
        monkeypatch.setattr(
            health, "read_heartbeats", counted("listing", health.read_heartbeats)
        )
        snap = FleetView(store).snapshot()
        assert reads == {"load_job": 5, "peek": 5, "listing": 1}
        assert snap["jobs"][0]["holder"] == "w1"
        assert snap["workers"][0]["leases"] == [records[0].job_id]


# ----------------------------------------------------------------------
# Across real processes: DEAD + reclaimed in far less than TTL/2
# ----------------------------------------------------------------------
WORKER = """
import sys
from repro.service import JobService

service = JobService(
    sys.argv[1], use_cache=False, worker_id=sys.argv[2],
    lease_ttl=30.0, heartbeat_interval=0.25,
)
service.work(poll_interval=0.02, idle_polls=50)
"""


@pytest.mark.stress
def test_sigkilled_worker_dead_and_reclaimed_under_half_ttl(tmp_path):
    """Kill a worker mid-collect on a 30 s lease: its heartbeat goes
    silent, other hosts see DEAD, and the job is reclaimed in a few
    heartbeat intervals — far less than the 15 s half-TTL bound."""
    root = tmp_path / "store"
    submitter = JobService(root, use_cache=False)
    record = submitter.submit(
        _request(n_train=100, n_trees=20, seed=5)
    )

    child = subprocess.Popen(
        [sys.executable, "-c", WORKER, str(root), "victim"],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120
    killed_at = None
    while time.monotonic() < deadline:
        data = RunStore(root).load_job(record.job_id) or {}
        batches = data.get("progress", {}).get("collect", {}).get("batches_done", 0)
        if batches >= 1:
            child.send_signal(signal.SIGKILL)
            child.wait()
            killed_at = time.monotonic()
            break
        if child.poll() is not None:
            pytest.fail("worker finished before the kill point")
        time.sleep(0.005)
    assert killed_at is not None, "never saw collect progress"

    # Pretend the victim ran on another host, so neither the TTL (30 s,
    # untouched) nor the same-host pid probe can explain a takeover —
    # only the heartbeat can.
    store = RunStore(root)
    lease_path = store.lease_dir / f"{record.job_id}.lease"
    lease = json.loads(lease_path.read_text())
    assert lease["worker"] == "victim"
    lease["host"] = "elsewhere"
    lease_path.write_text(json.dumps(lease))

    rescuer = JobService(root, use_cache=False, worker_id="rescuer")
    view = FleetView(store)
    finished = []
    half_ttl_deadline = killed_at + 15.0
    while time.monotonic() < half_ttl_deadline and not finished:
        finished = rescuer.work(poll_interval=0.05, max_jobs=1, idle_polls=1)
    reclaimed_at = time.monotonic()
    assert finished, "job not reclaimed within half the lease TTL"
    assert finished[0].state == DONE
    assert finished[0].worker == "rescuer"
    assert reclaimed_at - killed_at < 15.0

    victim_rows = [
        w for w in view.snapshot()["workers"] if w["worker"] == "victim"
    ]
    assert victim_rows and victim_rows[0]["status"] == DEAD
