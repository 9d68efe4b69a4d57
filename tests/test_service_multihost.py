"""Multi-host job service: leases, fencing, takeover, exactly-once.

Several workers — separate processes or separate :class:`JobService`
objects standing in for separate hosts — drain one store.  The
properties under test:

* a job under a valid lease cannot be claimed by anyone else;
* claiming re-reads the record *after* the lease lands, so a stale
  queue listing never double-runs a job another process finished;
* an expired (or dead-process) lease is taken over, and the takeover
  resumes from the last durable checkpoint to the same
  ``report_fingerprint`` as an uninterrupted same-seed run;
* a stale worker — paused past its TTL, its job stolen — cannot commit
  a checkpoint: the fencing token rejects the write (the issue's
  old-version-or-nothing standard, extended to old-*worker*-or-nothing).

The full N-workers × M-jobs × random-SIGKILL torture lives in
``scripts/multihost_stress.py``; the ``stress``-marked test here runs a
small configuration of it end to end (excluded from tier-1).
"""

from __future__ import annotations

import errno
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.tuner import DacTuner
from repro.service import (
    DONE,
    QUEUED,
    JobRecord,
    JobRunner,
    JobService,
    LeaseHeld,
    LeaseLost,
    LeaseManager,
    TuneRequest,
)
from repro.store import RunStore, report_fingerprint
from repro.workloads import get_workload

SRC = str(Path(__file__).parent.parent / "src")

#: Tiny-but-complete pipeline parameters (mirrors test_service.FAST).
FAST = dict(n_train=40, n_trees=15, generations=3, patience=None, seed=2)


def _request(**overrides) -> TuneRequest:
    return TuneRequest(**{"program": "TS", "size": 10.0, **FAST, **overrides})


class FakeClock:
    """A settable wall clock for deterministic lease expiry."""

    def __init__(self, start: float = 1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _manager(tmp_path, worker: str, clock, ttl: float = 10.0) -> LeaseManager:
    return LeaseManager(
        tmp_path / "leases", worker_id=worker, ttl=ttl, clock=clock
    )


# ----------------------------------------------------------------------
# The lease protocol
# ----------------------------------------------------------------------
class TestLeaseProtocol:
    def test_acquire_renew_release(self, tmp_path):
        clock = FakeClock()
        manager = _manager(tmp_path, "alpha", clock)
        lease = manager.acquire("job-1")
        assert lease is not None and lease.token == 1 and not lease.stolen
        clock.advance(5)
        lease.renew()
        assert lease.expires == clock.now + manager.ttl
        lease.release()
        assert manager.peek("job-1") is None

    @staticmethod
    def _file_state(tmp_path):
        path = tmp_path / "leases" / "job-1.lease"
        return path.stat().st_ino, path.read_bytes()

    def test_renewal_within_a_tenth_of_the_ttl_leaves_the_file(self, tmp_path):
        """Renewals inside a tenth of the TTL verify the lease but do
        not rewrite it, so they do not extend it either."""
        clock = FakeClock()
        manager = _manager(tmp_path, "alpha", clock)
        lease = manager.acquire("job-1")
        written = self._file_state(tmp_path)
        for _ in range(3):
            clock.advance(0.3)  # 0.9 s in all; a tenth of the 10 s TTL is 1 s
            lease.renew()
            assert self._file_state(tmp_path) == written
            assert lease.expires == 1_000.0 + manager.ttl
        clock.now = 1_000.0 + manager.ttl  # one TTL after the only write
        with pytest.raises(LeaseLost):
            lease.renew()

    def test_unwritten_renewal_still_sees_a_steal(self, tmp_path):
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        beta = LeaseManager(
            tmp_path / "leases", worker_id="beta", ttl=10.0, clock=clock,
            dead_worker_check=lambda info: True,  # alpha looks dead to beta
        )
        lease = alpha.acquire("job-1")
        clock.advance(0.5)
        lease.renew()
        assert beta.acquire("job-1") is not None
        clock.advance(0.1)
        with pytest.raises(LeaseLost, match="held by beta"):
            lease.renew()

    def test_renewal_after_a_tenth_of_the_ttl_rewrites(self, tmp_path):
        clock = FakeClock()
        manager = _manager(tmp_path, "alpha", clock)
        lease = manager.acquire("job-1")
        inode, _ = self._file_state(tmp_path)
        clock.advance(1.5)
        lease.renew()
        assert self._file_state(tmp_path)[0] != inode
        assert lease.expires == manager.peek("job-1").expires == clock.now + 10.0

    def test_renewal_085_ttl_after_the_last_write_succeeds(self, tmp_path):
        """A holder survives any stall shorter than 0.9 TTL, counted
        from the renewal that last wrote the file."""
        clock = FakeClock()
        manager = _manager(tmp_path, "alpha", clock)
        lease = manager.acquire("job-1")
        clock.advance(0.5)
        lease.renew()  # not written: the expiry stays at 1010
        clock.advance(8.0)  # 8.5 s, 0.85 TTL, after the write
        lease.renew()
        assert lease.expires == clock.now + manager.ttl

    def test_valid_lease_blocks_everyone(self, tmp_path):
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        beta = _manager(tmp_path, "beta", clock)
        assert alpha.acquire("job-1") is not None
        assert beta.acquire("job-1") is None
        # even the same worker id: the lease object lives elsewhere
        assert alpha.acquire("job-1") is None

    def test_expiry_enables_takeover_with_higher_token(self, tmp_path):
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        beta = _manager(tmp_path, "beta", clock)
        first = alpha.acquire("job-1")
        clock.advance(11)  # past the 10s TTL
        stolen = beta.acquire("job-1")
        assert stolen is not None and stolen.stolen
        assert stolen.token > first.token

    def test_stale_holder_renewal_raises(self, tmp_path):
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        beta = _manager(tmp_path, "beta", clock)
        first = alpha.acquire("job-1")
        clock.advance(11)
        beta.acquire("job-1")
        with pytest.raises(LeaseLost, match="held by beta"):
            first.renew()

    def test_expired_lease_never_revives(self, tmp_path):
        """A late renewal of an expired-but-unstolen lease is a loss —
        a stealer may already be mid-takeover."""
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        lease = alpha.acquire("job-1")
        clock.advance(11)
        with pytest.raises(LeaseLost):
            lease.renew()

    def test_tokens_survive_release_cycles(self, tmp_path):
        """The fencing ledger outlives individual leases: tokens only
        ever go up, even through clean release/re-acquire cycles."""
        clock = FakeClock()
        manager = _manager(tmp_path, "alpha", clock)
        seen = []
        for _ in range(4):
            lease = manager.acquire("job-1")
            seen.append(lease.token)
            lease.release()
        assert seen == sorted(seen) and len(set(seen)) == 4

    def test_dead_pid_on_same_host_expires_immediately(self, tmp_path):
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        beta = _manager(tmp_path, "beta", clock)
        lease = alpha.acquire("job-1")
        assert beta.acquire("job-1") is None  # valid, holder pid alive
        # Rewrite the lease as if held by a process that since died.
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        path = tmp_path / "leases" / "job-1.lease"
        data = json.loads(path.read_text())
        data["pid"] = corpse.pid
        data["host"] = socket.gethostname()
        path.write_text(json.dumps(data))
        stolen = beta.acquire("job-1")  # no TTL wait needed
        assert stolen is not None and stolen.token > lease.token

    def test_release_of_lost_lease_leaves_usurper_alone(self, tmp_path):
        clock = FakeClock()
        alpha = _manager(tmp_path, "alpha", clock)
        beta = _manager(tmp_path, "beta", clock)
        first = alpha.acquire("job-1")
        clock.advance(11)
        beta.acquire("job-1")
        first.release()  # must not unlink beta's lease
        assert beta.holder("job-1") is not None


# ----------------------------------------------------------------------
# Fencing: stale workers cannot commit
# ----------------------------------------------------------------------
class TestFencing:
    def _store_with_job(self, tmp_path):
        store = RunStore(tmp_path / "store")
        record = JobRecord.new(_request())
        store.save_job(record.job_id, record.to_dict())
        return store, record

    def test_stale_worker_checkpoint_rejected(self, tmp_path):
        """Pause worker A past its TTL, let B take the job over: A's
        next checkpoint must be rejected and the record untouched."""
        store, record = self._store_with_job(tmp_path)
        clock = FakeClock()
        alpha = LeaseManager(store.lease_dir, "alpha", ttl=10, clock=clock)
        beta = LeaseManager(store.lease_dir, "beta", ttl=10, clock=clock)

        lease_a = alpha.acquire(record.job_id)
        clock.advance(11)  # A stalls (GC pause, SIGSTOP, NFS hiccup...)
        lease_b = beta.acquire(record.job_id)
        assert lease_b.token > lease_a.token

        runner = JobRunner(store, use_cache=False)
        runner._lease = lease_a
        before = store.load_job(record.job_id)
        with pytest.raises(LeaseLost):
            runner._save(record, engine=None, session="1")
        assert store.load_job(record.job_id) == before  # nothing committed

    def test_lower_token_rejected_even_with_live_lease(self, tmp_path):
        """Even a worker whose lease file still validates must lose to
        a higher token already committed to the record (the window the
        lease file alone cannot close)."""
        store, record = self._store_with_job(tmp_path)
        clock = FakeClock()
        alpha = LeaseManager(store.lease_dir, "alpha", ttl=10, clock=clock)
        lease_a = alpha.acquire(record.job_id)
        committed = dict(store.load_job(record.job_id))
        committed["fencing_token"] = lease_a.token + 5
        store.save_job(record.job_id, committed)
        runner = JobRunner(store, use_cache=False)
        runner._lease = lease_a
        with pytest.raises(LeaseLost, match="outranks"):
            runner._save(record, engine=None, session="1")

    def test_cancelled_record_stops_inflight_worker(self, tmp_path):
        """Cancellation lands at the running worker's next checkpoint."""
        store, record = self._store_with_job(tmp_path)
        alpha = LeaseManager(store.lease_dir, "alpha", ttl=30)
        lease = alpha.acquire(record.job_id)
        cancelled = dict(store.load_job(record.job_id))
        cancelled["state"] = "cancelled"
        store.save_job(record.job_id, cancelled)
        runner = JobRunner(store, use_cache=False)
        runner._lease = lease
        with pytest.raises(LeaseLost, match="cancelled"):
            runner._save(record, engine=None, session="1")

    def test_run_abandons_job_on_lost_lease(self, tmp_path):
        """Through the public entry point: run() swallows the loss,
        commits nothing, and leaves the usurper's lease in place."""
        store, record = self._store_with_job(tmp_path)
        clock = FakeClock()
        alpha = LeaseManager(store.lease_dir, "alpha", ttl=10, clock=clock)
        beta = LeaseManager(store.lease_dir, "beta", ttl=10, clock=clock)
        lease_a = alpha.acquire(record.job_id)
        clock.advance(11)
        beta.acquire(record.job_id)

        before = store.load_job(record.job_id)
        result = JobRunner(store, use_cache=False).run(record, lease=lease_a)
        assert "lost" in (result.error or "")
        assert store.load_job(record.job_id) == before
        assert beta.holder(record.job_id) is not None  # not released by A


# ----------------------------------------------------------------------
# Claiming: the stale-listing window
# ----------------------------------------------------------------------
class TestClaiming:
    def test_claim_rereads_record_after_lease(self, tmp_path):
        """Service 1 lists the queue, service 2 finishes the job; the
        stale listing must not make service 1 run it again."""
        store = tmp_path / "store"
        one = JobService(store, use_cache=False, worker_id="one")
        two = JobService(store, use_cache=False, worker_id="two")
        record = one.submit(_request())

        stale_listing = one.pending()  # read before two runs it
        assert [j.job_id for j in stale_listing] == [record.job_id]
        finished = two.run_pending()
        assert [j.state for j in finished] == [DONE]
        sessions = finished[0].sessions

        # the stale path: claim with the old listing's state in hand
        assert one.claim(record.job_id, states=(QUEUED,)) is None
        assert one.run_pending() == []
        assert one.get(record.job_id).sessions == sessions  # never re-run

    def test_claim_respects_live_lease(self, tmp_path):
        store = tmp_path / "store"
        one = JobService(store, worker_id="one")
        two = JobService(store, worker_id="two")
        record = one.submit(_request())
        claimed = one.claim(record.job_id)
        assert claimed is not None
        assert two.claim(record.job_id) is None  # leased, not claimable
        claimed[1].release()
        assert two.claim(record.job_id) is not None

    def test_claim_failure_releases_lease(self, tmp_path):
        """A claim that loses the re-read check must not leave a lease
        behind (that would deadlock the job until TTL expiry)."""
        store = tmp_path / "store"
        service = JobService(store, worker_id="one")
        record = service.submit(_request())
        service.cancel(record.job_id)
        assert service.claim(record.job_id, states=(QUEUED,)) is None
        assert service.leases.peek(record.job_id) is None

    def test_resume_raises_lease_held(self, tmp_path):
        store = tmp_path / "store"
        one = JobService(store, worker_id="one")
        two = JobService(store, worker_id="two")
        record = one.submit(_request())
        claimed = one.claim(record.job_id)
        assert claimed is not None
        with pytest.raises(LeaseHeld, match="leased by worker one"):
            two.resume(record.job_id)

    def test_two_services_race_one_winner(self, tmp_path):
        """Both services try to claim the same queued job; exactly one
        wins the lease."""
        store = tmp_path / "store"
        one = JobService(store, worker_id="one")
        two = JobService(store, worker_id="two")
        record = one.submit(_request())
        claims = [one.claim(record.job_id), two.claim(record.job_id)]
        winners = [c for c in claims if c is not None]
        assert len(winners) == 1


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_work_drains_queue_and_releases_leases(self, tmp_path):
        store = tmp_path / "store"
        service = JobService(store, use_cache=False, worker_id="w1")
        for seed in (1, 2, 3):
            service.submit(
                TuneRequest(program="TS", kind="collect", n_train=20, seed=seed)
            )
        finished = service.work(poll_interval=0.01, idle_polls=2)
        assert [j.state for j in finished] == [DONE] * 3
        assert all(j.worker == "w1" for j in finished)
        assert all(j.fencing_token >= 1 for j in finished)
        assert not list(service.store.lease_dir.glob("*.lease"))

    def test_lease_io_error_skips_the_job_for_one_poll(
        self, tmp_path, monkeypatch
    ):
        """ENOSPC while linking the lease file does not end the loop: the
        poll reports a ``lease.error`` event and a later poll runs the
        job."""
        service = JobService(tmp_path / "store", use_cache=False,
                             worker_id="w1")
        record = service.submit(
            TuneRequest(program="TS", kind="collect", n_train=20, seed=1)
        )
        real_link, failed = os.link, []

        def link(src, dst, *args, **kwargs):
            if str(dst).endswith(".lease") and not failed:
                failed.append(dst)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_link(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "link", link)
        with telemetry.session() as tel:
            finished = service.work(poll_interval=0.01, idle_polls=2)
        assert failed
        assert [(j.job_id, j.state) for j in finished] == [
            (record.job_id, DONE)
        ]
        [error] = [r["fields"] for r in tel.records
                   if r.get("name") == "lease.error"]
        assert error["job_id"] == record.job_id
        assert error["errno"] == errno.ENOSPC
        assert not list(service.store.lease_dir.rglob("*.tmp"))

    def test_work_honours_max_jobs(self, tmp_path):
        store = tmp_path / "store"
        service = JobService(store, use_cache=False, worker_id="w1")
        for seed in (1, 2):
            service.submit(
                TuneRequest(program="TS", kind="collect", n_train=20, seed=seed)
            )
        finished = service.work(poll_interval=0.01, max_jobs=1)
        assert len(finished) == 1
        assert len(service.pending()) == 1

    def test_two_workers_split_the_queue(self, tmp_path):
        """Two worker loops on one store each run some jobs; no job
        runs twice, all complete."""
        store = tmp_path / "store"
        submitter = JobService(store, use_cache=False)
        ids = [
            submitter.submit(
                TuneRequest(program="TS", kind="collect", n_train=20, seed=s)
            ).job_id
            for s in (1, 2, 3, 4)
        ]
        w1 = JobService(store, use_cache=False, worker_id="w1")
        w2 = JobService(store, use_cache=False, worker_id="w2")
        # Interleave single-job turns, the deterministic stand-in for
        # two concurrent hosts (true concurrency: the stress harness).
        finished = []
        for _ in range(8):
            finished += w1.work(poll_interval=0.0, max_jobs=1, idle_polls=1)
            finished += w2.work(poll_interval=0.0, max_jobs=1, idle_polls=1)
        assert sorted(j.job_id for j in finished) == sorted(ids)  # exactly once
        assert all(j.state == DONE and j.sessions == 1 for j in finished)
        workers = {j.job_id: j.worker for j in finished}
        assert set(workers.values()) <= {"w1", "w2"}


# ----------------------------------------------------------------------
# Crash takeover across real processes
# ----------------------------------------------------------------------
#: Child: a worker loop draining the store until idle.
WORKER = """
import sys
from repro.service import JobService

service = JobService(sys.argv[1], use_cache=False, worker_id=sys.argv[2])
service.work(poll_interval=0.02, idle_polls=10)
"""

REQUEST = dict(
    program="TS", size=10.0, n_train=100, n_trees=20,
    generations=3, patience=None, seed=5,
)


def _spawn(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


@pytest.mark.stress
def test_sigkill_worker_takeover_matches_uninterrupted(tmp_path):
    """SIGKILL worker 1 mid-collection; worker 2 takes the lease over
    (dead-pid detection, no TTL wait) and finishes from the checkpoint
    to the uninterrupted reference fingerprint."""
    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(TuneRequest(**REQUEST))

    child = _spawn(WORKER, str(root), "w1")
    deadline = time.monotonic() + 120
    killed = False
    while time.monotonic() < deadline:
        data = RunStore(root).load_job(record.job_id) or {}
        batches = data.get("progress", {}).get("collect", {}).get("batches_done", 0)
        if batches >= 1:
            child.send_signal(signal.SIGKILL)
            child.wait()
            killed = True
            break
        if child.poll() is not None:
            pytest.fail("worker finished before the kill point")
        time.sleep(0.005)
    assert killed, "never saw collect progress"

    # The corpse's lease is still on disk, naming a dead pid.
    w2 = JobService(root, use_cache=False, worker_id="w2")
    corpse = w2.leases.peek(record.job_id)
    assert corpse is not None and corpse.worker == "w1"

    finished = w2.work(poll_interval=0.01, idle_polls=3)
    assert [j.job_id for j in finished] == [record.job_id]
    resumed = finished[0]
    assert resumed.state == DONE
    assert resumed.worker == "w2"
    assert resumed.fencing_token > corpse.token  # takeover fenced the corpse

    tuner = DacTuner(
        get_workload("TS"),
        n_train=REQUEST["n_train"],
        n_trees=REQUEST["n_trees"],
        seed=REQUEST["seed"],
    )
    tuner.collect()
    tuner.fit()
    reference = tuner.tune(
        REQUEST["size"], generations=REQUEST["generations"], patience=None
    )
    assert resumed.result["fingerprint"] == report_fingerprint(reference)

    # Resume efficiency: session 2 replayed only the unfinished suffix.
    runs = {int(k): v for k, v in resumed.runs_by_session.items()}
    assert runs[1] + runs[2] == REQUEST["n_train"]
    assert runs[2] < REQUEST["n_train"]


@pytest.mark.stress
def test_worker_drain_flag_sigterm_exits_zero(tmp_path):
    """``repro worker --drain`` + SIGTERM: the worker finishes the
    checkpoint in progress, releases the lease, and exits 0 with the
    job still RUNNING — immediately claimable by the next worker."""
    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(_request())

    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--store", str(root), "--drain",
            "--poll-interval", "0.02", "--exit-when-idle", "200",
        ],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 120
    signalled = False
    while time.monotonic() < deadline:
        data = RunStore(root).load_job(record.job_id) or {}
        batches = data.get("progress", {}).get("collect", {}).get("batches_done", 0)
        if batches >= 1:
            child.send_signal(signal.SIGTERM)
            signalled = True
            break
        if child.poll() is not None:
            pytest.fail("worker finished before the drain point")
        time.sleep(0.005)
    assert signalled, "never saw collect progress"
    child.wait(timeout=60)
    assert child.returncode == 0

    store = RunStore(root)
    paused = JobRecord.from_dict(store.load_job(record.job_id))
    assert paused.state == "running"
    assert paused.error is None
    assert LeaseManager(store.lease_dir).holder(record.job_id) is None

    # Anyone can pick the job straight back up from the checkpoint.
    w2 = JobService(root, use_cache=False, worker_id="w2")
    finished = w2.work(poll_interval=0.01, idle_polls=3)
    assert [job.job_id for job in finished] == [record.job_id]
    assert finished[0].state == DONE


# ----------------------------------------------------------------------
# The full stress harness (excluded from tier-1 by the `stress` marker)
# ----------------------------------------------------------------------
@pytest.mark.stress
def test_multihost_stress_harness(tmp_path):
    """A small configuration of scripts/multihost_stress.py end to end:
    real `repro worker` processes, real SIGKILLs, fingerprint equality."""
    script = Path(__file__).parent.parent / "scripts" / "multihost_stress.py"
    proc = subprocess.run(
        [
            sys.executable, str(script),
            "--store", str(tmp_path / "stress-store"),
            "--workers", "2", "--jobs", "3", "--kills", "2",
            "--train", "50", "--seed", "11",
        ],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout
