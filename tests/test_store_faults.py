"""I/O faults on the checkpoint write paths: ENOSPC on the Nth call.

Hypothesis picks a primitive and the call N on which it fails:

* ``os.write`` — a job record's appended line.  Call N writes only the
  first half of its bytes (a short write, as a filling disk gives) and
  call N + 1 raises, so a torn line is left behind;
* ``os.replace`` — every temp-file + rename write: objects, first and
  final job records, lease renewals, engine-cache batches;
* ``os.link`` — lease creation and the engine cache's per-key names.

Over the checkpoints of a FAST tune job, each fault either fails the
job (or raises out of the service), or, inside the engine cache, is
swallowed, or, while the lease is acquired, leaves the job queued for
a later claim; the stored record is the last one ``save_job`` completed,
never ``None``; and resuming ends with the uninterrupted run's
fingerprint.  Over one cache batch, every key then either hits with
the right run or misses.  ``load_job`` is also checked right after
every completed save, so a torn line that a later save would bury is
still caught.  A worker loop whose every heartbeat rename fails still
finishes its job with that fingerprint and leaves no temp file.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import traceback
from pathlib import Path
from typing import List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng
from repro.engine import CachedBackend, ExecRequest, InProcessBackend
from repro.engine.cache import request_key
from repro.service import DONE, FAILED, QUEUED, JobService, TuneRequest
from repro.workloads import get_workload

#: tests/test_service_multihost.py's FAST parameters.
FAST = dict(n_train=40, n_trees=15, generations=3, patience=None, seed=2)
REQUEST = TuneRequest(program="TS", size=10.0, **FAST)

#: One uninterrupted FAST job makes 14-31 calls of each primitive; N
#: runs a little past that, so some examples see no fault at all.
FAULTS = st.tuples(
    st.sampled_from(("write", "replace", "link")), st.integers(1, 40)
)


class Fault:
    """``os.<name>`` that fails with ENOSPC on its ``nth`` call, or,
    for ``os.write``, writes half its bytes then and fails on the next."""

    def __init__(self, name: str, nth: int):
        self.name = name
        self.nth = nth
        self.calls = 0
        self.real = getattr(os, name)
        #: The stack when the fault fired, else None.
        self.where: Optional[List[traceback.FrameSummary]] = None

    def __call__(self, *args):
        self.calls += 1
        if self.name == "write" and self.calls == self.nth:
            fd, data = args
            return self.real(fd, bytes(data[: len(data) // 2]))
        if self.calls == self.nth + (self.name == "write"):
            self.where = traceback.extract_stack()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.real(*args)

    def _in(self, path: str, function: Optional[str] = None) -> bool:
        return any(frame.filename.endswith(path)
                   and (function is None or frame.name == function)
                   for frame in self.where or ())

    def in_cache(self) -> bool:
        return self._in(os.path.join("engine", "cache.py"))

    def in_lease_acquire(self) -> bool:
        return self._in(os.path.join("service", "lease.py"), "acquire")


@pytest.fixture(scope="module")
def reference_fingerprint():
    with tempfile.TemporaryDirectory() as tmp:
        service = JobService(Path(tmp) / "store")
        service.submit(REQUEST)
        return service.run_pending()[0].result["fingerprint"]


@settings(max_examples=30, deadline=None)
@given(fault=FAULTS)
def test_fault_on_a_checkpoint_write_path(reference_fingerprint, fault):
    # tempfile, not tmp_path: hypothesis re-enters the body per example.
    with tempfile.TemporaryDirectory() as tmp:
        service = JobService(Path(tmp) / "store")
        store = service.store
        completed = []  # every record save_job finished, as stored
        read_back = []  # what load_job returned right after each of them
        save_job = store.save_job

        def recording_save(job_id, record):
            save_job(job_id, record)
            completed.append(
                json.loads(json.dumps(record, sort_keys=True, default=str))
            )
            read_back.append(store.load_job(job_id))

        store.save_job = recording_save
        job_id = service.submit(REQUEST).job_id
        shim = Fault(*fault)
        raised = None
        with mock.patch.object(os, shim.name, shim):
            try:
                ran = service.run_pending()
            except OSError as exc:
                raised = exc

        assert read_back == completed
        stored = store.load_job(job_id)
        assert stored is not None and stored == completed[-1]
        if shim.where is None:
            assert raised is None and ran[0].state == DONE
        elif shim.in_cache():
            assert raised is None and ran[0].state == DONE  # swallowed
        elif shim.in_lease_acquire():
            assert raised is None and ran == []  # skipped: still queued
            assert stored["state"] == QUEUED
        elif raised is not None:
            assert raised.errno == errno.ENOSPC
        else:
            assert stored["state"] == FAILED
            assert os.strerror(errno.ENOSPC) in stored["error"]

        resumed = service.resume(job_id)
        assert resumed.state == DONE
        assert resumed.result["fingerprint"] == reference_fingerprint
        assert store.load_job(job_id)["state"] == DONE


@pytest.fixture(scope="module")
def batch(space):
    """Six requests over two programs and their uncached runs."""
    rng = derive_rng("store-faults")
    requests = []
    for i in range(6):
        workload = get_workload(("TS", "KM")[i % 2])
        job = workload.job(workload.paper_sizes[i % len(workload.paper_sizes)])
        requests.append(ExecRequest(job=job, config=space.random(rng)))
    runs = [outcome.run for outcome in InProcessBackend().submit(requests)]
    return requests, runs


@settings(max_examples=40, deadline=None)
@given(fault=st.tuples(st.sampled_from(("replace", "link")), st.integers(1, 7)))
def test_fault_while_storing_a_cache_batch(batch, fault):
    requests, runs = batch
    with tempfile.TemporaryDirectory() as tmp:
        backend = CachedBackend(InProcessBackend(), directory=tmp)
        shim = Fault(*fault)
        with mock.patch.object(os, shim.name, shim):
            outcomes = backend.submit(requests)  # the cache swallows it
        assert [outcome.run for outcome in outcomes] == runs

        for request, run in zip(requests, runs):
            cold = CachedBackend(InProcessBackend(), directory=tmp)
            found = cold._lookup(request_key(request, cold.signature()))
            assert found is None or found == run


def test_heartbeat_replace_faults_leave_the_worker_running(
    reference_fingerprint, tmp_path
):
    # Every heartbeat's rename fails with ENOSPC, the first beat, the
    # background thread's and the final ``exited`` beat alike; liveness
    # reporting is best-effort, so the job and the loop carry on.
    service = JobService(tmp_path / "store", worker_id="w1",
                         heartbeat_interval=0.01)
    job_id = service.submit(REQUEST).job_id
    real = os.replace
    failed = []

    def replace(src, dst, **kwargs):
        if str(dst).endswith(".hb"):
            failed.append(dst)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(src, dst, **kwargs)

    with mock.patch.object(os, "replace", replace):
        finished = service.work(poll_interval=0.01, max_jobs=1, idle_polls=2)

    assert failed
    [record] = finished
    assert record.state == DONE
    assert record.result["fingerprint"] == reference_fingerprint
    assert service.store.load_job(job_id)["state"] == DONE
    assert list(service.store.health_dir.iterdir()) == []
