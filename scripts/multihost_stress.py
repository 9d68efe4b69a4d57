#!/usr/bin/env python
"""Multi-host stress: N workers x M jobs x random SIGKILLs, exactly once.

The acceptance harness for the lease-based multi-worker job service,
runnable locally and in CI:

1. submit ``--jobs`` tune jobs (cycling input sizes, one seed) into a
   fresh run store;
2. spawn ``--workers`` real ``repro worker`` processes against that
   store — separate processes, coordinated only through the shared
   directory, exactly like separate hosts on shared storage;
3. while they drain the queue, SIGKILL lease-holding workers at random
   moments (``--kills`` times), respawning a replacement each time —
   no atexit handlers, no flush, the honest crash;
4. assert every job finished ``done``, that each job's semantic
   ``report_fingerprint`` equals an uninterrupted in-process reference
   for the same (size, seed), and that no fencing token was ever
   issued twice — the exactly-once evidence.

Exit status 0 = the guarantees held.  The store (job records, leases,
fencing-token ledgers, per-worker and per-job event logs) is left in
place so CI can upload it as an artifact (``--store`` to choose where).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.store import RunStore, StoreError  # noqa: E402
from repro.telemetry import read_event_log  # noqa: E402

#: Sizes the jobs cycle through (TS, Table-1 units).
SIZES = [10.0, 20.0, 40.0]

#: Records only a job's own event log may hold.
JOB_RECORDS = {"engine.request", "model.fit", "job.completed"}


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_python_env(),
        text=True,
        capture_output=True,
    )


def _load_job(store: Path, job_id: str) -> dict:
    """The job's latest record, read through the store's one reader."""
    try:
        return RunStore(store, create=False).load_job(job_id) or {}
    except StoreError:
        return {}


def _spawn_worker(store: Path, name: str, args) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--store", str(store),
            "--worker-id", name,
            "--lease-ttl", str(args.lease_ttl),
            "--poll-interval", "0.1",
            "--exit-when-idle", "30",
            "--no-cache",
        ],
        env=_python_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _lease_holders(store: Path) -> dict:
    """worker-id -> job-id for every lease file currently on disk."""
    holders = {}
    for path in (store / "leases").glob("*.lease"):
        try:
            data = json.loads(path.read_text())
            holders[data["worker"]] = data["job_id"]
        except (OSError, json.JSONDecodeError, KeyError):
            continue
    return holders


def _reference_fingerprints(args) -> dict:
    """size -> fingerprint of the uninterrupted in-process run."""
    from repro.core.tuner import DacTuner
    from repro.service import TuneRequest
    from repro.store import report_fingerprint
    from repro.workloads import get_workload

    defaults = TuneRequest(program="TS", size=SIZES[0])  # CLI-matching knobs
    tuner = DacTuner(
        get_workload("TS"),
        n_train=args.train,
        n_trees=args.trees,
        seed=args.seed,
    )
    tuner.collect()
    tuner.fit()
    return {
        size: report_fingerprint(
            tuner.tune(
                size,
                generations=args.generations,
                population_size=defaults.population_size,
                patience=defaults.patience,
            )
        )
        for size in SIZES
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default="multihost-stress-store", metavar="DIR")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--kills", type=int, default=3,
                        help="how many workers to SIGKILL mid-run")
    parser.add_argument("--lease-ttl", type=float, default=5.0)
    parser.add_argument("--train", type=int, default=200)
    parser.add_argument("--trees", type=int, default=25)
    parser.add_argument("--generations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=480.0)
    args = parser.parse_args()
    store = Path(args.store)
    rng = random.Random(args.seed)

    # 1. submit the fleet of jobs (durable before any worker starts).
    job_ids = []
    for i in range(args.jobs):
        submitted = _repro(
            "jobs", "submit", "TS",
            "--size", f"{SIZES[i % len(SIZES)]:g}",
            "--train", str(args.train),
            "--trees", str(args.trees),
            "--generations", str(args.generations),
            "--seed", str(args.seed),
            "--store", str(store),
        )
        if submitted.returncode != 0:
            print(submitted.stdout + submitted.stderr)
            return 1
        job_ids.append(submitted.stdout.strip().splitlines()[-1])
    print(f"submitted {len(job_ids)} jobs: {' '.join(job_ids)}")

    # 2. the worker fleet.
    workers = {}
    for n in range(args.workers):
        name = f"stress-w{n}"
        workers[name] = _spawn_worker(store, name, args)
    print(f"spawned {len(workers)} workers (lease ttl {args.lease_ttl:g}s)")

    # 3. supervise: kill lease holders at random moments, respawn, and
    # wait for every job to land.
    deadline = time.monotonic() + args.timeout
    kills_left = args.kills
    generation = 0
    killed_names = []
    while time.monotonic() < deadline:
        states = [_load_job(store, j).get("state") for j in job_ids]
        if all(state == "done" for state in states):
            break
        if kills_left > 0:
            time.sleep(rng.uniform(0.3, 1.0))
            holders = _lease_holders(store)
            victims = [
                name for name, proc in workers.items()
                if proc.poll() is None and name in holders
            ]
            if victims:
                victim = rng.choice(victims)
                workers[victim].send_signal(signal.SIGKILL)
                workers[victim].wait()
                kills_left -= 1
                killed_names.append(victim)
                print(f"SIGKILLed {victim} holding {holders[victim]}")
                generation += 1
                replacement = f"stress-r{generation}"
                workers[replacement] = _spawn_worker(store, replacement, args)
            continue
        # keep at least one worker alive while jobs remain unfinished
        if all(proc.poll() is not None for proc in workers.values()):
            generation += 1
            name = f"stress-r{generation}"
            workers[name] = _spawn_worker(store, name, args)
            print(f"queue not drained but fleet idle-exited; spawned {name}")
        time.sleep(0.2)
    else:
        for proc in workers.values():
            if proc.poll() is None:
                proc.kill()
        print("FAIL: timed out before every job finished")
        return 1

    # let the fleet notice the empty queue and exit on its own
    for proc in workers.values():
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()

    # 4a. every job done, exactly the submitted set, fingerprints right.
    fingerprints = _reference_fingerprints(args)
    failures = 0
    takeovers = 0
    for job_id in job_ids:
        record = _load_job(store, job_id)
        state = record.get("state")
        size = record.get("request", {}).get("size")
        got = (record.get("result") or {}).get("fingerprint")
        want = fingerprints.get(size)
        sessions = record.get("sessions", 0)
        if sessions > 1:
            takeovers += 1
        if state != "done":
            print(f"FAIL: {job_id} state={state} error={record.get('error')}")
            failures += 1
        elif got != want:
            print(f"FAIL: {job_id} fingerprint {got} != reference {want}")
            failures += 1
        else:
            print(
                f"ok: {job_id} size={size:g} sessions={sessions} "
                f"worker={record.get('worker')} token={record.get('fencing_token')}"
            )

    # 4b. the fencing ledger: no token ever issued twice for one job.
    # A SIGKILL's torn tail line is skipped by the reader.
    worker_logs = {
        path: read_event_log(path).records
        for path in (store / "events").glob("worker-*.jsonl")
    }
    acquired = {}
    for records in worker_logs.values():
        for event in records:
            if event.get("name") != "lease.acquired":
                continue
            fields = event.get("fields", {})
            acquired.setdefault(fields.get("job_id"), []).append(
                fields.get("token")
            )
    for job_id, tokens in acquired.items():
        if len(set(tokens)) != len(tokens):
            print(f"FAIL: {job_id} reused a fencing token: {tokens}")
            failures += 1
    for job_id in job_ids:
        token = _load_job(store, job_id).get("fencing_token", 0)
        issued = acquired.get(job_id, [])
        if issued and token not in issued:
            print(f"FAIL: {job_id} committed token {token} never issued "
                  f"({sorted(issued)})")
            failures += 1

    # 4c. the operator's view agrees: `repro top --once --json` must show
    # every job done at 100%, no worker stuck in STALE limbo (SIGKILL
    # victims age through stale into dead; clean exits report exited),
    # and each engine request counted once: a job's records are in its
    # own log only, never in a worker's.
    job_requests = sum(
        event.get("name") == "engine.request"
        for path in (store / "events").glob("*.jsonl")
        if path not in worker_logs
        for event in read_event_log(path).records
    )
    for path, records in sorted(worker_logs.items()):
        leaked = {event.get("name") for event in records} & JOB_RECORDS
        if leaked:
            print(f"FAIL: worker log {path.name} holds {sorted(leaked)}")
            failures += 1
    top = _repro("top", "--store", str(store), "--once", "--json")
    if top.returncode != 0:
        print(f"FAIL: repro top exited {top.returncode}: {top.stderr}")
        failures += 1
    else:
        snap = json.loads(top.stdout)
        for row in snap["jobs"]:
            if row["state"] != "done" or row["progress"]["fraction"] != 1.0:
                print(f"FAIL: top shows {row['job_id']} "
                      f"state={row['state']} progress={row['progress']}")
                failures += 1
        stale = snap["summary"]["workers_stale"]
        if stale:
            print(f"FAIL: top shows {stale} stale workers after the run")
            failures += 1
        seen = {row["worker"] for row in snap["workers"]}
        missing = {name for name in workers} - seen
        if missing:
            print(f"FAIL: workers never heartbeat: {sorted(missing)}")
            failures += 1
        counted = snap["engine"]["requests"]
        if counted != job_requests:
            print(f"FAIL: top counts {counted} engine requests, the job "
                  f"logs hold {job_requests}")
            failures += 1
        print(
            f"top: {snap['summary']['jobs_done']}/{snap['summary']['jobs_total']} "
            f"jobs done; worker statuses "
            + " ".join(f"{r['worker']}={r['status']}" for r in snap["workers"])
        )

    # 4d. export artifacts beside the store (CI uploads these) and prove
    # the Prometheus output parses under the exposition grammar.
    artifact = _repro(
        "top", "--store", str(store), "--once", "--no-color",
        "--prometheus", str(store / "fleet.prom"),
        "--snapshot", str(store / "fleet.json"),
    )
    if artifact.returncode != 0:
        print(f"FAIL: dashboard artifact render: {artifact.stderr}")
        failures += 1
    else:
        (store / "dashboard.txt").write_text(artifact.stdout)
        from repro.telemetry.export import ExpositionError, parse_exposition

        try:
            families = parse_exposition((store / "fleet.prom").read_text())
            print(f"prometheus export: {len(families)} families parse cleanly")
        except ExpositionError as exc:
            print(f"FAIL: prometheus export rejected: {exc}")
            failures += 1

    print(
        f"killed {len(killed_names)} workers ({' '.join(killed_names) or 'none'}); "
        f"{takeovers} jobs needed more than one session"
    )
    if failures:
        print(f"FAIL: {failures} violations")
        return 1
    print(
        f"OK: {len(job_ids)} jobs completed exactly once across "
        f"{args.workers}+{generation} workers with {args.kills - kills_left} "
        "SIGKILLs; fingerprints match the uninterrupted reference"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
