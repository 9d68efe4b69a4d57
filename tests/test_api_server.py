"""The HTTP front door: routes, dedup, hardening, and both clients.

The servers under test are real: ``ApiServer.start_in_thread`` binds an
OS socket and every assertion travels through it — the typed client for
the JSON routes, raw sockets where the *protocol* itself is the subject
(slow loris, oversized bodies, bad versions).
"""

from __future__ import annotations

import html
import json
import socket
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli.main import main as cli_main
from repro.service import (
    JobFinished,
    JobRecord,
    JobService,
    TuneRequest,
    request_fingerprint,
)
from repro.service.api import (
    ApiClient,
    ApiError,
    ApiServer,
    HttpLimits,
    QuotaManager,
    render_fleet_html,
)
from repro.store import RunStore
from repro.telemetry.dashboard import FleetDashboard, render_snapshot
from repro.telemetry.export import parse_exposition
from repro.telemetry.trace import read_event_log

#: Tiny-but-complete pipeline parameters (collect + fit + search all run).
FAST = dict(
    n_train=16, n_trees=8, generations=2, population_size=12,
    patience=None, seed=3,
)


def _request(**overrides) -> TuneRequest:
    return TuneRequest(**{"program": "TS", "size": 10.0, **FAST, **overrides})


@pytest.fixture()
def server(tmp_path):
    api = ApiServer(JobService(tmp_path / "store"), port=0).start_in_thread()
    yield api
    api.stop_in_thread()


@pytest.fixture()
def client(server):
    return ApiClient(server.url)


@pytest.fixture(scope="module")
def done_server(tmp_path_factory):
    """A server whose store holds one finished job (shared: it costs a
    full FAST pipeline run)."""
    root = tmp_path_factory.mktemp("api-done")
    api = ApiServer(JobService(root / "store"), port=0).start_in_thread()
    record = api.service.submit(_request(seed=77))
    finished = api.service.work(poll_interval=0.01, max_jobs=1, idle_polls=3)
    assert finished and finished[0].state == "done"
    yield api, record.job_id
    api.stop_in_thread()


def _raw(server, payload: bytes, timeout: float = 5.0) -> bytes:
    """One raw TCP exchange; returns everything the server wrote."""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.settimeout(timeout)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
        return b"".join(chunks)


# ----------------------------------------------------------------------
# Lifecycle over the wire
# ----------------------------------------------------------------------
class TestJobRoutes:
    def test_submit_status_result_lifecycle(self, client):
        doc = client.submit(_request())
        assert client.last_status == 201
        assert doc["deduplicated"] is False
        assert doc["state"] == "queued"
        assert doc["request_fingerprint"] == request_fingerprint(_request())

        status = client.status(doc["job_id"])
        assert status["state"] == "queued"
        assert status["progress_summary"]["phase"] == "collect"

        # Result of a job nobody has run yet: the 202 progress doc.
        pending = client.result(doc["job_id"])
        assert client.last_status == 202
        assert pending["state"] == "queued"

        assert [j["job_id"] for j in client.jobs()] == [doc["job_id"]]

    def test_health(self, client, server):
        doc = client.health()
        assert doc["status"] == "ok"
        assert doc["server"] == server.server_id

    def test_unknown_job_404(self, client):
        with pytest.raises(ApiError) as err:
            client.status("no-such-job")
        assert err.value.status == 404

    def test_priority_and_validation(self, client):
        doc = client.submit(_request(seed=9), priority=5)
        assert doc["priority"] == 5
        bad = {**_request().to_dict(), "size": -1.0}  # fails validation
        with pytest.raises(ApiError) as err:
            client._request("POST", "/v1/jobs", body=bad)
        assert err.value.status == 400
        assert "positive target size" in err.value.payload["error"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_train", 1.5),
            ("seed", "7"),
            ("size", True),
            ("generations", "x"),
            ("patience", 2.5),
            ("size", float("nan")),
            ("size", float("inf")),
        ],
    )
    def test_malformed_value_is_400(self, client, field, value):
        body = {**_request().to_dict(), field: value}
        with pytest.raises(ApiError) as err:
            client._request("POST", "/v1/jobs", body=body)
        assert err.value.status == 400
        assert field in err.value.payload["error"]
        assert client.jobs() == []

    def test_unknown_key_is_400_naming_it(self, client):
        body = {**_request().to_dict(), "n_tree": 9}
        with pytest.raises(ApiError) as err:
            client._request("POST", "/v1/jobs", body=body)
        assert err.value.status == 400
        assert "n_tree" in err.value.payload["error"]
        assert client.jobs() == []


class TestDedup:
    def test_identical_submissions_share_one_job(self, client):
        first = client.submit(_request())
        second = client.submit(_request())
        assert client.last_status == 200  # not 201: nothing was created
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True

    def test_different_requests_do_not_collide(self, client):
        a = client.submit(_request(seed=1))
        b = client.submit(_request(seed=2))
        assert a["job_id"] != b["job_id"]
        assert not b["deduplicated"]

    def test_concurrent_duplicates_store_exactly_one_job(self, server, client):
        request = _request(seed=42)
        with ThreadPoolExecutor(max_workers=16) as pool:
            docs = list(pool.map(
                lambda _: client.submit(request), range(24)
            ))
        assert len({doc["job_id"] for doc in docs}) == 1
        assert sum(1 for doc in docs if not doc["deduplicated"]) == 1
        fingerprint = request_fingerprint(request)
        matching = [
            record for record in server.service.jobs()
            if request_fingerprint(record.request) == fingerprint
        ]
        assert len(matching) == 1

    def test_int_and_float_sizes_dedup_to_one_job(self, client):
        body = {**_request(seed=6).to_dict(), "size": 10}
        first = client._request("POST", "/v1/jobs", body=body)
        assert client.last_status == 201
        second = client._request("POST", "/v1/jobs", body={**body, "size": 10.0})
        assert client.last_status == 200
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True

    def test_submission_lists_the_store_once(self, server, client, monkeypatch):
        """One POST parses each stored record once: the dedup scan and
        the admission cap share one listing."""
        for seed in range(20):
            server.service.submit(_request(seed=100 + seed))
        calls = {"list_jobs": 0, "from_dict": 0}
        list_jobs = RunStore.list_jobs
        from_dict = JobRecord.from_dict.__func__

        def counting_list_jobs(store):
            calls["list_jobs"] += 1
            return list_jobs(store)

        def counting_from_dict(cls, data):
            calls["from_dict"] += 1
            return from_dict(cls, data)

        monkeypatch.setattr(RunStore, "list_jobs", counting_list_jobs)
        monkeypatch.setattr(JobRecord, "from_dict", classmethod(counting_from_dict))
        doc = client.submit(_request(seed=99))
        assert client.last_status == 201 and not doc["deduplicated"]
        assert calls == {"list_jobs": 1, "from_dict": 20}

    def test_full_queue_is_503_yet_duplicates_still_dedup(self, tmp_path):
        api = ApiServer(
            JobService(tmp_path / "store", max_queued=2), port=0
        ).start_in_thread()
        try:
            client = ApiClient(api.url)
            first = client.submit(_request(seed=1))
            client.submit(_request(seed=2))
            with pytest.raises(ApiError) as err:
                client.submit(_request(seed=3))
            assert err.value.status == 503 and err.value.retry_after == 5
            assert "queue full" in err.value.payload["error"]
            again = client.submit(_request(seed=1))
            assert again["job_id"] == first["job_id"] and again["deduplicated"]
            assert len(api.service.jobs()) == 2
        finally:
            api.stop_in_thread()

    def test_cancelled_jobs_do_not_dedup(self, client):
        first = client.submit(_request(seed=5))
        client.cancel(first["job_id"])
        again = client.submit(_request(seed=5))
        assert again["job_id"] != first["job_id"]
        assert not again["deduplicated"]


class TestCancel:
    def test_cancel_then_conflict_on_result(self, client):
        doc = client.submit(_request(seed=11))
        cancelled = client.cancel(doc["job_id"])
        assert cancelled["state"] == "cancelled"
        # Idempotent: a second cancel is still 200/cancelled.
        assert client.cancel(doc["job_id"])["state"] == "cancelled"
        with pytest.raises(ApiError) as err:
            client.result(doc["job_id"])
        assert err.value.status == 409

    def test_cancel_unknown_404(self, client):
        with pytest.raises(ApiError) as err:
            client.cancel("no-such-job")
        assert err.value.status == 404


class TestDoneJob:
    """Everything that changes once a job has actually finished."""

    def test_result_carries_fingerprint(self, done_server):
        api, job_id = done_server
        doc = ApiClient(api.url).result(job_id)
        assert doc["state"] == "done"
        assert doc["fingerprint"]
        assert doc["result"]["predicted_seconds"] > 0

    def test_cancel_done_is_409_in_api_and_service(self, done_server):
        api, job_id = done_server
        with pytest.raises(ApiError) as err:
            ApiClient(api.url).cancel(job_id)
        assert err.value.status == 409
        assert "finished" in err.value.payload["error"]
        with pytest.raises(JobFinished):
            api.service.cancel(job_id)
        # The result was not retracted by the attempts.
        assert ApiClient(api.url).result(job_id)["state"] == "done"

    def test_new_identical_submission_dedups_against_done(self, done_server):
        api, job_id = done_server
        client = ApiClient(api.url)
        doc = client.submit(_request(seed=77))
        assert doc["job_id"] == job_id
        assert doc["deduplicated"] is True
        # ... which means its result is available immediately.
        assert client.wait_result(job_id, timeout=1.0)["state"] == "done"


# ----------------------------------------------------------------------
# Hardening: the parser's answer to hostile/broken clients
# ----------------------------------------------------------------------
class TestHardening:
    def test_malformed_json_is_400(self, server):
        body = b"{not json"
        raw = _raw(server, (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        ))
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"malformed JSON" in raw

    def test_non_object_json_is_400(self, server):
        body = b"[1, 2, 3]"
        raw = _raw(server, (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        ))
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_413_without_reading_it(self, server):
        # Announce 2 MiB but send none: the cap fires on the header.
        raw = _raw(server, (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (2 << 20)
        ), timeout=3.0)
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ApiError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405_with_allow(self, server):
        raw = _raw(server, (
            b"PUT /v1/jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: 0\r\n\r\n"
        ))
        assert raw.startswith(b"HTTP/1.1 405 ")
        assert b"Allow: GET, POST" in raw

    def test_unsupported_http_version_is_505(self, server):
        raw = _raw(server, b"GET /v1/health HTTP/2.0\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 505 ")

    def test_transfer_encoding_is_501(self, server):
        raw = _raw(server, (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        ))
        assert raw.startswith(b"HTTP/1.1 501 ")

    def test_slow_loris_times_out_with_408(self, tmp_path):
        api = ApiServer(
            JobService(tmp_path / "store"), port=0,
            limits=HttpLimits(read_timeout=0.3),
        ).start_in_thread()
        try:
            # Send half a request line, then stall: the server must cut
            # us off rather than park the connection forever.
            raw = _raw(api, b"POST /v1/jo", timeout=3.0)
            assert raw.startswith(b"HTTP/1.1 408 ")
        finally:
            api.stop_in_thread()

    def test_request_line_too_long_is_414(self, server):
        raw = _raw(server, b"GET /" + b"x" * 9000 + b" HTTP/1.1\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 414 ")


class TestOneRequestPerConnection:
    def test_second_request_on_a_connection_gets_no_answer(self, server):
        """The server answers the first request with ``Connection:
        close`` and closes: a second request sent on the same
        connection is never read, and the client sees EOF at once."""
        health = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as sock:
            sock.sendall(health + health)
            raw = b""
            while True:
                chunk = sock.recv(65536)  # a kept-open socket times out
                if not chunk:
                    break
                raw += chunk
        assert raw.count(b"HTTP/1.1 ") == 1
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert json.loads(body)["status"] == "ok"


class TestQuotaLayer:
    def test_429_with_retry_after(self, tmp_path):
        api = ApiServer(
            JobService(tmp_path / "store"), port=0,
            quota=QuotaManager(rate=0.1, burst=2.0),
        ).start_in_thread()
        try:
            client = ApiClient(api.url, tenant="greedy")
            client.submit(_request(seed=1))
            client.submit(_request(seed=2))
            with pytest.raises(ApiError) as err:
                client.submit(_request(seed=3))
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1
            # Another tenant's bucket is untouched.
            other = ApiClient(api.url, tenant="patient")
            assert other.submit(_request(seed=4))["job_id"]
        finally:
            api.stop_in_thread()


# ----------------------------------------------------------------------
# Fleet view and metrics
# ----------------------------------------------------------------------
class TestFleetAndMetrics:
    def test_fleet_snapshot_includes_api_panel(self, client):
        client.submit(_request(seed=21))
        snap = client.fleet()
        assert {"summary", "jobs", "workers", "engine", "api"} <= set(snap)
        assert snap["jobs"][0]["job_id"]

    def test_fleet_html_page(self, client):
        doc = client.submit(_request(seed=22))
        page = client.fleet_html()
        assert page.startswith("<!DOCTYPE html>")
        assert 'http-equiv="refresh"' in page
        assert doc["job_id"] in page
        assert "<script" not in page  # static by construction

    def test_fleet_html_is_the_top_frame(self, done_server):
        """The page is the HTML-escaped ``repro top`` frame of the same
        snapshot: one renderer for the terminal and the web."""
        api, job_id = done_server
        snap = FleetDashboard(api.service.store).snapshot()
        snap["store"] = "<store & co>"
        frame = render_snapshot(snap, color=False)
        page = render_fleet_html(snap)
        assert f"<pre>{html.escape(frame)}</pre>" in page
        assert job_id in frame and "<store & co>" not in page
        assert "<table" not in page

    def test_metrics_parse_and_api_series(self, server, client):
        """With no global telemetry, the server's own event log feeds
        the fleet API families: every request served before the scrape
        is counted, and the log holds one record per request."""
        assert not telemetry.enabled()
        client.submit(_request(seed=23))
        client.jobs()
        client.health()
        families = parse_exposition(client.metrics())
        assert "repro_api_requests_total" not in families
        [(_, _, served)] = families["repro_fleet_api_requests"]["samples"]
        assert served == 3
        log = read_event_log(
            server.service.store.root / "events" / f"{server.server_id}.jsonl"
        )
        assert [r["name"] for r in log.events] == ["api.started"] + [
            "api.request"] * 4
        assert log.events[-1]["fields"]["route"] == "/metrics"

    def test_concurrent_first_scrapes_are_exact(self, tmp_path):
        """Eight first scrapes at once of a store whose event log holds
        40,000 engine requests: each answers 200 with the exact count,
        and so does a later one.  Every snapshot tails the logs through
        one cursor and one rollup, so two of them must not overlap."""
        store = RunStore(tmp_path / "store")
        store.events_dir.mkdir(parents=True, exist_ok=True)
        meta = {"kind": "meta", "version": 1, "wall_start": time.time(),
                "pid": 1}
        lines = [json.dumps(meta)] + [
            json.dumps({
                "kind": "event", "name": "engine.request", "ts": i * 1e-4,
                "parent": 0, "fields": {"cache_hit": i % 2 == 0,
                                        "queue_wait": 0.001,
                                        "wall_seconds": 0.01},
            })
            for i in range(40_000)
        ]
        store.event_log_path("ts-scraped").write_text("\n".join(lines) + "\n")

        api = ApiServer(JobService(store), port=0).start_in_thread()

        def scrape(_) -> float:
            client = ApiClient(api.url, timeout=120.0)
            families = parse_exposition(client.metrics())
            assert client.last_status == 200
            [(_, _, requests)] = families["repro_fleet_engine_requests"][
                "samples"]
            return requests

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                first = list(pool.map(scrape, range(8)))
            later = scrape(None)
        finally:
            api.stop_in_thread()
        assert first == [40_000] * 8
        assert later == 40_000

    def test_requests_stay_out_of_the_process_global_log(self, client):
        """A pipeline installed process-globally — a job's, while it runs
        in the server's process — records none of the server's traffic."""
        with telemetry.session() as tel:
            client.health()
        assert not [r for r in tel.records
                    if str(r.get("name", "")).startswith("api.")]


# ----------------------------------------------------------------------
# The CLI front ends (remote --url mode and the distinct cancel outcome)
# ----------------------------------------------------------------------
class TestCli:
    def _submit_args(self, url, seed=31):
        return [
            "jobs", "submit", "--url", url, "TS", "--size", "10",
            "--train", str(FAST["n_train"]), "--trees", str(FAST["n_trees"]),
            "--generations", str(FAST["generations"]), "--seed", str(seed),
        ]

    def test_remote_submit_list_status_cancel(self, server, client):
        assert cli_main(self._submit_args(server.url)) == 0
        jobs = client.jobs()
        assert len(jobs) == 1
        job_id = jobs[0]["job_id"]
        assert cli_main(["jobs", "list", "--url", server.url]) == 0
        assert cli_main(["jobs", "status", "--url", server.url, job_id]) == 0
        assert cli_main(["jobs", "cancel", "--url", server.url, job_id]) == 0
        assert client.status(job_id)["state"] == "cancelled"

    def test_remote_cancel_done_exits_3(self, done_server):
        api, job_id = done_server
        assert cli_main(["jobs", "cancel", "--url", api.url, job_id]) == 3

    def test_local_cancel_done_exits_3(self, done_server):
        api, job_id = done_server
        store = str(api.service.store.root)
        assert cli_main(["jobs", "cancel", "--store", store, job_id]) == 3
        # The record is untouched by the refused cancel.
        assert api.service.get(job_id).state == "done"

    def test_store_and_url_are_exclusive(self, server, tmp_path):
        both = ["jobs", "list", "--url", server.url,
                "--store", str(tmp_path / "s")]
        assert cli_main(both) == 2
        assert cli_main(["jobs", "list"]) == 2  # neither given

    def test_remote_run_is_rejected(self, server):
        # Execution belongs to the fleet behind the server.
        assert cli_main(["jobs", "run", "--url", server.url]) == 2


# ----------------------------------------------------------------------
# The dedup key itself
# ----------------------------------------------------------------------
class TestRequestFingerprint:
    def test_equal_requests_equal_fingerprints(self):
        assert request_fingerprint(_request()) == request_fingerprint(_request())

    def test_every_field_participates(self):
        base = request_fingerprint(_request())
        for changed in (
            _request(seed=4),
            _request(size=20.0),
            _request(n_train=17),
            _request(generations=3),
            _request(budget=50),
            _request(warm_from="prior-1"),
        ):
            assert request_fingerprint(changed) != base

    def test_int_and_float_twins_share_one_fingerprint(self):
        # A request normalizes its numbers when it is built, so the JSON
        # spellings 10 and 10.0 name one request and one dedup key.
        as_int = _request(size=10, learning_rate=1, n_train=16)
        as_float = _request(size=10.0, learning_rate=1.0, n_train=16.0)
        assert request_fingerprint(as_int) == request_fingerprint(as_float)
        assert type(as_int.size) is float and type(as_float.n_train) is int
        # The digest of the float spelling, which stored records carry.
        assert request_fingerprint(TuneRequest(program="TS", size=10)) == (
            "b1875515e867230224a4070352e7fe9c3339ec54106bdbc981f0abe6a71b0201"
        )


# ----------------------------------------------------------------------
# Protocol fuzzing: arbitrary bytes never hang or crash the server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    """Module-shared server with aggressive read timeouts, so malformed
    or truncated requests resolve in milliseconds instead of the
    production ten-second loris window."""
    root = tmp_path_factory.mktemp("api-fuzz")
    limits = HttpLimits(read_timeout=0.2)
    api = ApiServer(
        JobService(root / "store"), port=0, limits=limits
    ).start_in_thread()
    yield api
    api.stop_in_thread()


_ascii_token = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0,
    max_size=12,
)

_request_lines = st.builds(
    lambda method, target, version: f"{method} {target} {version}\r\n\r\n".encode(
        "ascii"
    ),
    _ascii_token,
    _ascii_token,
    st.one_of(_ascii_token, st.just("HTTP/1.1")),
)

_bad_headers = st.builds(
    lambda name, value, body: (
        b"POST /v1/jobs HTTP/1.1\r\n"
        + f"{name}: {value}\r\n".encode("ascii")
        + f"Content-Length: {value}\r\n\r\n".encode("ascii")
        + body
    ),
    _ascii_token,
    _ascii_token,
    st.binary(max_size=64),
)

_payloads = st.one_of(st.binary(max_size=256), _request_lines, _bad_headers)


class TestProtocolFuzzing:
    @settings(max_examples=25, deadline=None)
    @given(payload=_payloads)
    @example(payload=b"")
    @example(payload=b"\r\n\r\n")
    @example(payload=b"GET\r\n\r\n")
    @example(payload=b"\x00\xff" * 32)
    @example(payload=b"POST /v1/jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
    @example(payload=b"GET /v1/health HTTP/9.9\r\n\r\n")
    def test_garbage_yields_error_response_or_clean_close(
        self, fuzz_server, payload
    ):
        raw = _raw(fuzz_server, payload, timeout=2.0)
        # Either the server judged the bytes hopeless and closed, or it
        # answered with an error status — never a hang, never silence
        # followed by a stuck socket (the _raw timeout would trip).
        if raw:
            assert raw.startswith(b"HTTP/1.1 4") or raw.startswith(
                b"HTTP/1.1 5"
            ), raw[:80]

    def test_server_still_healthy_after_fuzzing(self, fuzz_server):
        # Runs after the fuzz cases on the same module-scoped server: a
        # clean 200 proves no connection wedged the accept loop.
        with urllib.request.urlopen(fuzz_server.url + "/v1/health") as resp:
            assert resp.status == 200
