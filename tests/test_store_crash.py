"""Crash safety under SIGKILL: torn writes must read as old-or-absent.

A child process writes successive versions of one store key as fast as
it can; the parent SIGKILLs it at an arbitrary moment and then reads.
The store's contract: the parent sees a complete, digest-valid version
(any version) or nothing — never torn bytes.  A second test drives the
full job pipeline in a subprocess, kills it mid-collection, and resumes
to the byte-identical report (the serving layer's acceptance property);
a third crashes deterministically between a collect checkpoint's
training-set put and its record save, and a fourth inside the fit or
the search, which the resume redoes from its beginning.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.tuner import DacTuner
from repro.service import DONE, JobRecord, JobService, TuneRequest
from repro.store import RunStore, report_fingerprint
from repro.workloads import get_workload

SRC = str(Path(__file__).parent.parent / "src")


def _spawn(script: str, *args: str) -> subprocess.Popen:
    """Start a child that writes to the test's own stdout and stderr.

    No pipes: nothing reads them, so after the kill they would only be
    left open, and the test's captured output shows what the child wrote.
    """
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": SRC},
    )


#: Child: write version payloads under one key until killed.  Payloads
#: are large enough (~400 KB) that a kill lands mid-write often.
WRITER = """
import sys
from repro.store import RunStore

store = RunStore(sys.argv[1])
version = 0
while True:
    version += 1
    payload = (b"%08d" % version) * 50_000
    store.put_bytes("torture/key", payload)
"""


@pytest.mark.parametrize("delay", [0.05, 0.15, 0.4])
def test_sigkill_mid_write_never_torn(tmp_path, delay):
    root = tmp_path / "store"
    RunStore(root)
    child = _spawn(WRITER, str(root))
    try:
        time.sleep(delay)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()

    store = RunStore(root)  # fresh read of index + blobs
    payload = store.get_bytes("torture/key")
    if payload is None:
        # Killed before the first complete write landed: acceptable.
        return
    # Whatever version we see must be complete and self-consistent.
    assert len(payload) == 8 * 50_000
    version = payload[:8]
    assert payload == version * 50_000


def test_sigkill_leaves_valid_job_record(tmp_path):
    """Kill a child saving its job record in a loop; parent record
    must always parse (each save appends a line, a torn tail is
    skipped)."""
    root = tmp_path / "store"
    RunStore(root)
    script = """
import sys
from repro.store import RunStore

store = RunStore(sys.argv[1])
n = 0
while True:
    n += 1
    store.save_job("victim", {"job_id": "victim", "n": n, "pad": "x" * 100_000})
"""
    child = _spawn(script, str(root))
    time.sleep(0.3)
    child.send_signal(signal.SIGKILL)
    child.wait()
    record = RunStore(root).load_job("victim")
    if record is not None:  # None only if killed before the first write
        assert record["job_id"] == "victim"
        assert len(record["pad"]) == 100_000


#: Child: run one queued job to completion via the service.
JOB_RUNNER = """
import sys
from repro.service import JobService

service = JobService(sys.argv[1], use_cache=False)
service.resume(sys.argv[2])
"""

#: Small but not trivial: 10 collect batches of 10, so the kill window
#: during collection is wide enough to hit reliably.
REQUEST = dict(
    program="TS", size=10.0, n_train=100, n_trees=20,
    generations=3, patience=None, seed=5,
)


def _reference_fingerprint() -> str:
    """The report of the identical request, uninterrupted, no service."""
    tuner = DacTuner(
        get_workload("TS"),
        n_train=REQUEST["n_train"],
        n_trees=REQUEST["n_trees"],
        seed=REQUEST["seed"],
    )
    tuner.collect()
    tuner.fit()
    return report_fingerprint(
        tuner.tune(REQUEST["size"], generations=REQUEST["generations"], patience=None)
    )


def test_sigkill_mid_job_resume_matches_uninterrupted(tmp_path):
    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(TuneRequest(**REQUEST))

    child = _spawn(JOB_RUNNER, str(root), record.job_id)
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
            pytest.fail("job finished before the kill point")
        time.sleep(0.005)
    assert killed, "never saw collect progress"

    # The dying process never updated its state: still "running", which
    # the data model treats as resumable.
    crashed = JobRecord.from_dict(RunStore(root).load_job(record.job_id))
    assert crashed.state == "running"
    assert crashed.resumable
    # Each checkpoint puts the training set before it saves the record,
    # so the kill may land with the store one batch (10 rows) ahead.
    recorded = 10 * crashed.progress["collect"]["batches_done"]
    partial = RunStore(root).get_training_set(crashed.artifact_key("training"))
    assert len(partial) in (recorded, recorded + 10)

    resumed = JobService(root, use_cache=False).resume(record.job_id)
    assert resumed.state == DONE

    reference = _reference_fingerprint()
    stored = RunStore(root).get_report(resumed.artifact_key("report"))
    assert report_fingerprint(stored) == reference
    assert resumed.result["fingerprint"] == reference

    # Resume efficiency: the first session's saved record counts the
    # batches it recorded, and the second re-ran only the rows the
    # stored set lacked — not a re-collection from scratch.
    runs = {int(k): v for k, v in resumed.runs_by_session.items()}
    assert runs[1] == recorded
    assert runs[2] == REQUEST["n_train"] - len(partial)

    # The event logs of both sessions landed in one file that still
    # parses (torn tail from the kill is skipped).
    from repro.telemetry import read_event_log

    events = read_event_log(RunStore(root).event_log_path(record.job_id))
    names = {r.get("name") for r in events.records}
    assert "collect.size" in names
    assert "ga.generation" in names


class _Crash(BaseException):
    """Stands in for SIGKILL: no ``except Exception`` handler stops it."""


def test_crash_between_put_and_record_save_resumes_from_stored_set(
    tmp_path, monkeypatch
):
    """The second collect checkpoint's training set lands, then its
    record save dies: the store is one batch ahead of ``batches_done``.
    The resume continues from the stored 20 rows, not from scratch."""
    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(TuneRequest(**REQUEST))
    save_job = RunStore.save_job

    def save_job_crashing_at_batch_2(self, job_id, data):
        if data["progress"].get("collect", {}).get("batches_done") == 2:
            raise _Crash()
        save_job(self, job_id, data)

    monkeypatch.setattr(RunStore, "save_job", save_job_crashing_at_batch_2)
    with pytest.raises(_Crash):
        service.resume(record.job_id)
    monkeypatch.undo()

    resumed = JobService(root, use_cache=False).resume(record.job_id)
    assert resumed.state == DONE
    assert resumed.runs_by_session == {"1": 10, "2": 80}
    assert resumed.result["fingerprint"] == _reference_fingerprint()


@pytest.mark.parametrize("phase", ["fit", "search"])
def test_crash_mid_fit_or_search_redoes_the_phase(tmp_path, monkeypatch, phase):
    """Fit and search keep no checkpoint of their own: a crash in the
    second HM order or the second GA generation leaves the record
    naming that phase, and the resume redoes the phase from its
    beginning to the uninterrupted report, with no substrate run."""
    from repro.core.ga import GeneticAlgorithm
    from repro.models.boosting import GradientBoostedTrees

    root = tmp_path / "store"
    service = JobService(root, use_cache=False)
    record = service.submit(TuneRequest(**REQUEST))
    cls, method = {
        "fit": (GradientBoostedTrees, "fit"),
        "search": (GeneticAlgorithm, "step"),
    }[phase]
    real, calls = getattr(cls, method), []

    def crashing_on_the_second_call(self, *args):
        calls.append(self)
        if len(calls) == 2:
            raise _Crash()
        return real(self, *args)

    monkeypatch.setattr(cls, method, crashing_on_the_second_call)
    with pytest.raises(_Crash):
        service.resume(record.job_id)
    monkeypatch.undo()

    store = RunStore(root)
    crashed = JobRecord.from_dict(store.load_job(record.job_id))
    assert (crashed.state, crashed.phase) == ("running", phase)
    assert store.entry(record.artifact_key("ga")) is None
    resumed = JobService(root, use_cache=False).resume(record.job_id)
    assert resumed.state == DONE
    assert resumed.runs_by_session == {"1": REQUEST["n_train"], "2": 0}
    assert resumed.result["fingerprint"] == _reference_fingerprint()
