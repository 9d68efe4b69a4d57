#!/usr/bin/env python
"""Load-test `repro serve`: thousands of clients, a real worker fleet.

Boots one API server and N workers over a fresh store (all as real
subprocesses), then fires ``--clients`` concurrent submissions at it
from a thread pool — every ``--duplicates`` of them identical — and
asserts the service-level contract end to end:

* every request is eventually accepted (2xx; 429/503 are retried per
  their ``Retry-After``) — zero dropped submissions;
* each group of identical submissions lands **exactly one** stored job
  (server-side dedup), so the store holds ``clients / duplicates`` jobs;
* every client that asked for the same work gets the **same answer**:
  within a group, all returned report fingerprints are equal;
* the final ``/metrics`` scrape passes the strict exposition parser,
  and its ``repro_fleet_api_requests`` (the server's ``api.request``
  records) counts at least every submission sent;
* eight concurrent ``/metrics`` scrapes, then one more, all parse and
  report the same ``repro_fleet_engine_requests``.

Exit 0 on success, 1 with a reason on any violation.  Artifacts (the
metrics scrape, a summary JSON, and pointers to the API event log) are
written under ``--out`` for CI upload.

Usage::

    PYTHONPATH=src python scripts/serve_loadtest.py \
        --clients 1000 --duplicates 50 --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service import TuneRequest  # noqa: E402
from repro.service.api import ApiClient, ApiError  # noqa: E402
from repro.telemetry.export import parse_exposition  # noqa: E402

#: Input sizes cycled across unique requests (Table-1-ish TS sizes).
SIZES = (10.0, 20.0, 40.0)


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_serve(store: Path, port: int, quota_rate: float) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(store),
            "--host", "127.0.0.1",
            "--port", str(port),
            "--quota-rate", str(quota_rate),
            "--quota-burst", str(max(quota_rate * 4, 64)),
            "--max-queued", "4096",
            "--server-id", "api-loadtest",
        ],
        env=_python_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _spawn_worker(store: Path, index: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--store", str(store),
            "--worker-id", f"loadtest-{index}",
            "--poll-interval", "0.1",
            "--lease-ttl", "15",
        ],
        env=_python_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _wait_healthy(client: ApiClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.health()
            return
        except (ApiError, OSError):
            if time.monotonic() >= deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.2)


def _unique_request(index: int) -> TuneRequest:
    """The i-th distinct workload: tiny but real (collect+fit+search)."""
    return TuneRequest(
        program="TS",
        size=SIZES[index % len(SIZES)],
        n_train=16,
        n_trees=8,
        generations=2,
        population_size=12,
        patience=None,
        seed=100 + index,
    )


def _submit_with_retry(
    client: ApiClient, request: TuneRequest, max_attempts: int = 50
) -> dict:
    """Submit, honouring 429/503 Retry-After — a well-behaved client."""
    for _ in range(max_attempts):
        try:
            return client.submit(request)
        except ApiError as err:
            if err.status not in (429, 503):
                raise
            time.sleep(min(err.retry_after or 0.5, 5.0))
    raise RuntimeError(f"request never accepted after {max_attempts} attempts")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=1000,
                        help="total concurrent submissions (default: 1000)")
    parser.add_argument("--duplicates", type=int, default=50,
                        help="clients per identical request group "
                        "(default: 50)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes draining the queue (default: 2)")
    parser.add_argument("--concurrency", type=int, default=100,
                        help="client thread pool size (default: 100)")
    parser.add_argument("--quota-rate", type=float, default=0.0,
                        help="per-tenant quota rate on the spawned server; "
                        "0 = off (default), >0 exercises 429 retry handling")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for the fleet to finish all "
                        "jobs (default: 600)")
    parser.add_argument("--store", default=None,
                        help="store directory (default: a temp dir, removed "
                        "on success)")
    parser.add_argument("--out", default=None,
                        help="artifact directory (default: <store>/loadtest)")
    args = parser.parse_args()

    if args.clients < 1 or args.duplicates < 1:
        print("--clients and --duplicates must be positive", file=sys.stderr)
        return 2
    uniques = max(1, args.clients // args.duplicates)

    temp_store = args.store is None
    store = Path(args.store) if args.store else Path(
        tempfile.mkdtemp(prefix="repro-loadtest-")
    )
    out = Path(args.out) if args.out else store / "loadtest"
    out.mkdir(parents=True, exist_ok=True)

    port = _free_port()
    client = ApiClient(f"http://127.0.0.1:{port}", timeout=60.0)
    procs: list = []
    started = time.monotonic()
    try:
        procs.append(_spawn_serve(store, port, args.quota_rate))
        _wait_healthy(client)
        for index in range(args.workers):
            procs.append(_spawn_worker(store, index))
        print(f"server on :{port}, {args.workers} workers, store {store}")

        # -- fire the submission storm ---------------------------------
        requests = [_unique_request(i % uniques) for i in range(args.clients)]
        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            docs = list(pool.map(
                lambda r: _submit_with_retry(client, r), requests
            ))
        submit_wall = time.monotonic() - started
        assert len(docs) == args.clients, "a submission was dropped"

        # -- exactly one job per identical group -----------------------
        group_jobs = defaultdict(set)
        for request, doc in zip(requests, docs):
            group_jobs[request.seed].add(doc["job_id"])
        multi = {k: v for k, v in group_jobs.items() if len(v) != 1}
        if multi:
            print(f"FAIL: groups with >1 job: {multi}", file=sys.stderr)
            return 1
        job_ids = sorted({doc["job_id"] for doc in docs})
        if len(job_ids) != uniques:
            print(
                f"FAIL: expected {uniques} stored jobs, found {len(job_ids)}",
                file=sys.stderr,
            )
            return 1
        server_jobs = {doc["job_id"] for doc in client.jobs()}
        if not set(job_ids) <= server_jobs:
            print("FAIL: server job list is missing submitted jobs",
                  file=sys.stderr)
            return 1
        dedup_hits = sum(1 for doc in docs if doc.get("deduplicated"))
        print(
            f"{args.clients} submissions accepted in {submit_wall:.1f}s -> "
            f"{len(job_ids)} stored jobs ({dedup_hits} deduplicated)"
        )

        # -- wait for the fleet, then compare answers ------------------
        results = {
            job_id: client.wait_result(job_id, timeout=args.timeout)
            for job_id in job_ids
        }
        mismatched = []
        for request, doc in zip(requests, docs):
            fingerprint = results[doc["job_id"]].get("fingerprint")
            group = group_jobs[request.seed]
            expected = results[next(iter(group))].get("fingerprint")
            if not fingerprint or fingerprint != expected:
                mismatched.append(doc["job_id"])
        if mismatched:
            print(f"FAIL: fingerprint mismatch in {sorted(set(mismatched))}",
                  file=sys.stderr)
            return 1
        print(f"all {args.clients} clients got fingerprint-identical results "
              f"within their groups")

        # -- the scrape must parse under the strict grammar ------------
        exposition = client.metrics()
        families = parse_exposition(exposition)
        samples = families.get("repro_fleet_api_requests", {}).get("samples")
        served = samples[0][2] if samples else 0
        if served < args.clients:
            print(f"FAIL: /metrics counts {served:g} API requests, fewer "
                  f"than the {args.clients} submissions sent",
                  file=sys.stderr)
            return 1

        # -- concurrent scrapes count what a lone one counts -----------
        def engine_requests(_=None) -> float:
            families = parse_exposition(client.metrics())
            [(_, _, value)] = families["repro_fleet_engine_requests"][
                "samples"]
            return value

        with ThreadPoolExecutor(max_workers=8) as pool:
            burst = list(pool.map(engine_requests, range(8)))
        last = engine_requests()
        if burst != [last] * len(burst):
            print(f"FAIL: 8 concurrent /metrics scrapes read {burst} engine "
                  f"requests, a later one {last:g}", file=sys.stderr)
            return 1
        print(f"8 concurrent /metrics scrapes and a later one all count "
              f"{last:g} engine requests")
        (out / "metrics.txt").write_text(exposition)
        (out / "summary.json").write_text(json.dumps({
            "clients": args.clients,
            "duplicates": args.duplicates,
            "unique_jobs": len(job_ids),
            "deduplicated": dedup_hits,
            "submit_wall_seconds": round(submit_wall, 3),
            "total_wall_seconds": round(time.monotonic() - started, 3),
            "workers": args.workers,
            "event_logs": sorted(
                str(p) for p in (store / "events").glob("*.jsonl")
            ),
        }, indent=2, sort_keys=True))
        print(f"PASS  (artifacts in {out})")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        if temp_store:
            # The temp store (and its artifacts) is left on disk — the
            # PASS/FAIL line prints where, and CI uploads from --out.
            print(f"store kept at {store}")


if __name__ == "__main__":
    raise SystemExit(main())
