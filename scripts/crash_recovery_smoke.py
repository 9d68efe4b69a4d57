#!/usr/bin/env python
"""Crash-recovery smoke: SIGKILL a tuning job mid-flight, resume, verify.

The serving layer's acceptance test, runnable locally and in CI:

1. submit a FAST-scale tune job into a fresh run store and start it in
   a subprocess (``repro jobs resume`` on the queued job);
2. poll the durable job record until the collect phase has made real
   progress, then ``SIGKILL`` the worker process — no atexit handlers,
   no flush, the honest crash;
3. resume the job in a new process from its last durable checkpoint;
4. assert the resumed report's semantic fingerprint equals an
   uninterrupted same-seed reference, and that the resumed session
   performed strictly fewer substrate executions than a from-scratch
   run would have.

Exit status 0 = recovery held. The store directory is left in place so
CI can upload it as an artifact (``--store`` to choose where).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.store import RunStore, StoreError  # noqa: E402

#: FAST-scale job parameters (same spirit as benchmarks/bench_telemetry).
JOB_ARGS = [
    "TS",
    "--size", "10",
    "--train", "200",
    "--trees", "30",
    "--generations", "5",
    "--seed", "0",
]


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_python_env(),
        text=True,
        capture_output=True,
        **kwargs,
    )


def _load_job(store: Path, job_id: str) -> dict:
    """The job's latest record, read through the store's one reader."""
    try:
        return RunStore(store, create=False).load_job(job_id) or {}
    except StoreError:
        return {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default="crash-smoke-store", metavar="DIR")
    parser.add_argument(
        "--kill-after-batches", type=int, default=2,
        help="SIGKILL once collect has checkpointed this many batches",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()
    store = Path(args.store)

    # 1. submit (durable, not yet running); --no-cache so the resumed
    # session's substrate runs are honest executions, not cache hits.
    submitted = _repro(
        "jobs", "submit", *JOB_ARGS, "--store", str(store), "--no-cache"
    )
    if submitted.returncode != 0:
        print(submitted.stdout + submitted.stderr)
        return 1
    job_id = submitted.stdout.strip().splitlines()[-1]
    print(f"submitted {job_id}")

    # 2. start the worker and SIGKILL it mid-collection.
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "jobs", "resume", job_id,
         "--store", str(store), "--no-cache"],
        env=_python_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + args.timeout
    killed = False
    while time.monotonic() < deadline:
        record = _load_job(store, job_id)
        batches = record.get("progress", {}).get("collect", {}).get("batches_done", 0)
        if batches >= args.kill_after_batches:
            worker.send_signal(signal.SIGKILL)
            worker.wait()
            killed = True
            print(f"SIGKILLed worker after {batches} collect batches")
            break
        if worker.poll() is not None:
            print("worker finished before the kill point; raise --train?")
            return 1
        time.sleep(0.01)
    if not killed:
        worker.kill()
        print("timed out waiting for collect progress")
        return 1

    record = _load_job(store, job_id)
    if record.get("state") != "running":
        print(f"unexpected post-kill state: {record.get('state')}")
        return 1

    # 3. resume in a fresh process.
    resumed = _repro("jobs", "resume", job_id, "--store", str(store), "--no-cache")
    print(resumed.stdout.strip())
    if resumed.returncode != 0:
        print(resumed.stderr)
        return 1

    record = _load_job(store, job_id)
    fingerprint = (record.get("result") or {}).get("fingerprint")
    runs = {k: int(v) for k, v in record.get("runs_by_session", {}).items()}

    # 4a. reference: the same request, uninterrupted, in its own store.
    ref_store = store.parent / (store.name + "-reference")
    reference = _repro(
        "jobs", "submit", *JOB_ARGS, "--store", str(ref_store), "--no-cache", "--run"
    )
    if reference.returncode != 0:
        print(reference.stdout + reference.stderr)
        return 1
    ref_id = reference.stdout.strip().splitlines()[0]
    ref_record = _load_job(ref_store, ref_id)
    ref_fingerprint = (ref_record.get("result") or {}).get("fingerprint")
    ref_runs = sum(int(v) for v in ref_record.get("runs_by_session", {}).values())

    print(f"resumed fingerprint:   {fingerprint}")
    print(f"reference fingerprint: {ref_fingerprint}")
    print(f"runs by session: {runs} (uninterrupted: {ref_runs})")

    if not fingerprint or fingerprint != ref_fingerprint:
        print("FAIL: resumed report does not match the uninterrupted run")
        return 1
    final_session = runs[max(runs, key=int)]
    if final_session >= ref_runs:
        print("FAIL: resume did not save substrate executions")
        return 1
    print("OK: crash recovery reproduced the reference report with "
          f"{ref_runs - final_session} substrate executions saved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
