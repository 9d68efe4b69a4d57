"""The tuning-as-a-service front door: HTTP/JSON over :class:`JobService`.

``repro serve`` binds :class:`ApiServer` to a socket; everything behind
the socket — durable queueing, leases, checkpoints, budgets, heartbeats
— already exists in :mod:`repro.service`.  The server therefore *never
runs jobs*: it admits requests into the shared store and lets the
worker fleet (``repro worker`` processes on any host that sees the
store) drain them, exactly like the CLI front ends do.

Routes::

    POST   /v1/jobs             submit a TuneRequest (+ optional priority)
    GET    /v1/jobs             list job records
    GET    /v1/jobs/{id}        record + checkpoint-phase progress
    GET    /v1/jobs/{id}/result final result (202 while running, 409
                                when failed/cancelled)
    DELETE /v1/jobs/{id}        cancel at the next checkpoint (409 when
                                already finished)
    GET    /v1/fleet            dashboard snapshot JSON (?format=html
                                serves its ``repro top`` frame as a
                                self-refreshing page)
    GET    /v1/health           liveness probe
    GET    /metrics             Prometheus text exposition of the
                                fleet gauges

A submission body is a :class:`~repro.service.jobs.TuneRequest`'s
fields plus an optional ``priority``; any other key, or a malformed
value, is answered with 400 before anything is stored.  Three
request-shaping layers then run in order:

1. **quota** — the tenant's token bucket
   (:class:`~repro.service.api.quota.QuotaManager`); empty → 429 with
   ``Retry-After``;
2. **dedup** — the request's
   :func:`~repro.service.jobs.request_fingerprint` is matched against
   every live (queued/running/done) job; a hit returns the *existing*
   job with ``deduplicated: true`` instead of storing a second copy,
   so N clients asking for the same tune share one job and one result;
3. **admission** — :class:`JobService`'s active-job cap; full → 503
   with ``Retry-After``.

Every handler runs on the server's one store thread, one request at a
time: dedup and admission read one listing of the store inside one
handler call, so concurrent identical submissions store exactly one
job, and two fleet snapshots never tail the event logs at once.  Each
connection carries one request; every response says ``Connection:
close``.

Every handler (and every parse failure) appends an ``api.request``
record to the server's own event log, ``events/<server-id>.jsonl`` in
the store.  ``repro top``, ``/v1/fleet`` and ``/metrics`` read their API
panel from those records, so they count the server's traffic whether or
not process-global telemetry is enabled, and a request never lands in
the event log of a job running in the same process.
"""

from __future__ import annotations

import asyncio
import html
import json
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.api.http import (
    HttpError,
    HttpLimits,
    HttpRequest,
    error_body,
    read_request,
    response_bytes,
)
from repro.service.api.quota import DEFAULT_TENANT, QuotaManager
from repro.service.health import job_progress
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobRecord,
    TuneRequest,
    request_fingerprint,
)
from repro.service.scheduler import AdmissionError, JobFinished, JobService
from repro.telemetry.events import Telemetry
from repro.telemetry.export import prometheus_from_fleet
from repro.telemetry.sinks import JsonlSink

__all__ = ["ApiServer", "TENANT_HEADER"]

#: Header naming the quota tenant (absent → the anonymous bucket).
TENANT_HEADER = "x-repro-tenant"

#: States a dedup hit may be in: an identical earlier request that is
#: queued, running, or already finished answers this one too.  Failed
#: and cancelled jobs do NOT dedup — a resubmission deserves a fresh
#: attempt rather than inheriting a corpse.
DEDUP_STATES = ("queued", "running", DONE)


class ApiServer:
    """One asyncio HTTP front door over one job service."""

    def __init__(
        self,
        service: JobService,
        host: str = "127.0.0.1",
        port: int = 0,
        quota: Optional[QuotaManager] = None,
        limits: Optional[HttpLimits] = None,
        server_id: Optional[str] = None,
    ):
        self.service = service
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.quota = quota
        self.limits = limits if limits is not None else HttpLimits()
        self.server_id = server_id or f"api-{uuid.uuid4().hex[:8]}"
        #: The server's own event log, opened by :meth:`start`; never
        #: installed process-globally.
        self.events: Optional[Telemetry] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        #: The one thread every handler runs on (see :meth:`_dispatch`).
        self._store_thread: Optional[ThreadPoolExecutor] = None
        self._dashboard = None  # built lazily (imports the dashboard stack)
        self.routes: List[Tuple[str, str, Callable]] = [
            ("GET", "/v1/health", self._health),
            ("GET", "/v1/jobs", self._jobs_list),
            ("POST", "/v1/jobs", self._jobs_submit),
            ("GET", "/v1/jobs/:id", self._jobs_status),
            ("DELETE", "/v1/jobs/:id", self._jobs_cancel),
            ("GET", "/v1/jobs/:id/result", self._jobs_result),
            ("GET", "/v1/fleet", self._fleet),
            ("GET", "/metrics", self._metrics),
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ApiServer":
        """Bind and begin accepting; resolves once the port is known."""
        self._store_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-{self.server_id}-store"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=max(self.limits.max_request_line, 65536),
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log = self.service.store.event_log_path(self.server_id)
        self.events = Telemetry([JsonlSink(log, append=True, live=True)])
        self.events.event(
            "api.started", server=self.server_id, host=self.host,
            port=self.port, store=str(self.service.store.root),
        )
        return self

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._store_thread is not None:
            self._store_thread.shutdown()
            self._store_thread = None
        if self.events is not None:
            self.events.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- background-thread hosting (tests, embedding) -------------------
    def start_in_thread(self, timeout: float = 10.0) -> "ApiServer":
        """Run the server on a dedicated event-loop thread.

        Returns once the socket is bound (``self.port`` is real).  The
        pattern the tests and any embedding process use; the CLI runs
        :meth:`run` on the main thread instead.
        """
        started = threading.Event()
        failure: List[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                started.set()
                loop.run_until_complete(self.aclose())
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.aclose())
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name=f"repro-{self.server_id}", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("API server failed to start in time")
        if failure:
            raise failure[0]
        return self

    def stop_in_thread(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread."""
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop = None
        self._thread = None

    def run(self) -> int:
        """Blocking foreground serve (the ``repro serve`` main loop)."""

        async def _main() -> None:
            try:
                await self.start()
                await self._server.serve_forever()
            finally:
                await self.aclose()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
        return 0

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read one request, answer it, close the connection."""
        started = time.perf_counter()
        try:
            try:
                request = await read_request(reader, self.limits)
            except HttpError as err:
                self._observe(
                    "(unparsed)", "-", err.status,
                    time.perf_counter() - started, tenant=None,
                )
                body, ctype = error_body(err.status, err.message)
                writer.write(
                    response_bytes(err.status, body, ctype, err.headers)
                )
                await writer.drain()
                return
            if request is None:
                return  # the client closed before a whole request
            status, payload, headers, ctype, route = await self._dispatch(
                request
            )
            if isinstance(payload, (bytes, bytearray)):
                body = bytes(payload)
            else:
                body = json.dumps(
                    payload, sort_keys=True, default=str
                ).encode("utf-8")
            self._observe(
                route, request.method, status,
                time.perf_counter() - started,
                tenant=request.headers.get(TENANT_HEADER),
                deduplicated=bool(
                    isinstance(payload, dict) and payload.get("deduplicated")
                ),
            )
            writer.write(response_bytes(status, body, ctype, headers))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, object, Dict[str, str], str, str]:
        """Route one request and run its handler on the store thread;
        returns (status, payload, headers, ctype, route-label)."""
        allowed: List[str] = []
        for method, pattern, handler in self.routes:
            params = _match(pattern, request.path)
            if params is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            try:
                result = await asyncio.wrap_future(
                    self._store_thread.submit(handler, request, **params)
                )
            except HttpError as err:
                body, ctype = error_body(err.status, err.message)
                return err.status, body, err.headers, ctype, pattern
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                body, ctype = error_body(
                    500, f"internal error: {type(exc).__name__}: {exc}"
                )
                return 500, body, {}, ctype, pattern
            status, payload = result[0], result[1]
            headers = result[2] if len(result) > 2 else {}
            ctype = result[3] if len(result) > 3 else "application/json"
            return status, payload, headers, ctype, pattern
        if allowed:
            body, ctype = error_body(
                405, f"{request.method} not allowed on {request.path}"
            )
            return 405, body, {"Allow": ", ".join(sorted(set(allowed)))}, \
                ctype, request.path
        body, ctype = error_body(404, f"no route for {request.path}")
        return 404, body, {}, ctype, "(unrouted)"

    def _observe(
        self,
        route: str,
        method: str,
        status: int,
        seconds: float,
        tenant: Optional[str],
        deduplicated: bool = False,
    ) -> None:
        """Append one request to the server's event log."""
        self.events.event(
            "api.request",
            server=self.server_id,
            route=route,
            method=method,
            status=status,
            seconds=round(seconds, 6),
            tenant=tenant or DEFAULT_TENANT,
            deduplicated=deduplicated,
        )

    # ------------------------------------------------------------------
    # Handlers (each runs on the store thread)
    # ------------------------------------------------------------------
    def _health(self, request: HttpRequest):
        return 200, {"status": "ok", "server": self.server_id,
                     "store": str(self.service.store.root)}

    def _jobs_list(self, request: HttpRequest):
        self.service.store.refresh()
        return 200, {"jobs": [self._record_doc(r) for r in self.service.jobs()]}

    def _jobs_submit(self, request: HttpRequest):
        tenant = request.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        if self.quota is not None:
            retry_after = self.quota.try_acquire(tenant)
            if retry_after > 0:
                raise HttpError(
                    429,
                    f"tenant {tenant!r} is over its submission quota",
                    headers={"Retry-After": f"{max(1, round(retry_after))}"},
                )
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        try:
            priority = int(doc.pop("priority", 0))
        except (TypeError, ValueError):
            raise HttpError(400, "priority must be an integer")
        unknown = sorted(set(doc) - set(TuneRequest.__dataclass_fields__))
        if unknown:
            raise HttpError(
                400, f"unknown request field(s): {', '.join(unknown)}"
            )
        try:
            tune_request = TuneRequest.from_dict(doc)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid request: {exc}")

        # Dedup, then admit against the same listing of the store.
        self.service.store.refresh()
        jobs = self.service.jobs()
        fingerprint = request_fingerprint(tune_request)
        for record in jobs:
            if (record.state in DEDUP_STATES
                    and request_fingerprint(record.request) == fingerprint):
                return 200, {**self._record_doc(record), "deduplicated": True}
        try:
            record = self.service.admit(tune_request, priority, jobs)
        except AdmissionError as exc:
            raise HttpError(503, str(exc), headers={"Retry-After": "5"})
        return 201, {**self._record_doc(record), "deduplicated": False}

    def _jobs_status(self, request: HttpRequest, id: str):
        return 200, self._record_doc(self._get(id))

    def _jobs_result(self, request: HttpRequest, id: str):
        record = self._get(id)
        if record.state == DONE:
            return 200, {
                "job_id": record.job_id,
                "state": record.state,
                "result": record.result or {},
                "fingerprint": (record.result or {}).get("fingerprint"),
            }
        if record.state in (FAILED, CANCELLED):
            raise HttpError(
                409,
                f"{record.job_id} is {record.state}"
                + (f": {record.error}" if record.error else ""),
            )
        return 202, {
            "job_id": record.job_id,
            "state": record.state,
            "phase": record.phase,
            "progress": job_progress(record),
        }

    def _jobs_cancel(self, request: HttpRequest, id: str):
        self.service.store.refresh()
        try:
            record = self.service.cancel(id)
        except JobFinished as exc:
            raise HttpError(409, f"already finished: {exc}")
        except KeyError:
            raise HttpError(404, f"no such job: {id}")
        return 200, self._record_doc(record)

    def _fleet(self, request: HttpRequest):
        snapshot = self._fleet_snapshot()
        if request.query.get("format") == "html":
            page = render_fleet_html(snapshot)
            return 200, page.encode("utf-8"), {}, "text/html; charset=utf-8"
        return 200, snapshot

    def _metrics(self, request: HttpRequest):
        return (
            200,
            prometheus_from_fleet(self._fleet_snapshot()).encode("utf-8"),
            {},
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _get(self, job_id: str) -> JobRecord:
        """The stored record of ``job_id``; 404 when there is none."""
        self.service.store.refresh()
        try:
            return self.service.get(job_id)
        except KeyError:
            raise HttpError(404, f"no such job: {job_id}")

    def _fleet_snapshot(self) -> Dict[str, object]:
        if self._dashboard is None:
            from repro.telemetry.dashboard import FleetDashboard

            self._dashboard = FleetDashboard(self.service.store)
        return self._dashboard.snapshot()

    # ------------------------------------------------------------------
    @staticmethod
    def _record_doc(record: JobRecord) -> Dict[str, object]:
        """A job record as the API's JSON shape (record + progress)."""
        doc = record.to_dict()
        doc["progress_summary"] = job_progress(record)
        doc["request_fingerprint"] = request_fingerprint(record.request)
        return doc


def _match(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Match ``/v1/jobs/:id``-style patterns; returns captured params."""
    pattern_parts = pattern.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for expected, got in zip(pattern_parts, path_parts):
        if expected.startswith(":"):
            if not got:
                return None
            params[expected[1:]] = got
        elif expected != got:
            return None
    return params


# ----------------------------------------------------------------------
# The web view: the ``repro top`` frame as one static self-refreshing page.
# ----------------------------------------------------------------------
def render_fleet_html(snapshot: Dict[str, object]) -> str:
    """Render a dashboard snapshot as the ``repro top`` frame in a page.

    The page is static — no JavaScript, no assets — and re-requests
    itself every 2 seconds via ``<meta http-equiv="refresh">``.
    """
    from repro.telemetry.dashboard import render_snapshot

    frame = html.escape(render_snapshot(snapshot, color=False))
    store = html.escape(str(snapshot.get("store", "")))
    return (
        '<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta http-equiv="refresh" content="2">\n'
        f"<title>repro fleet — {store}</title>\n</head>\n"
        f"<body>\n<pre>{frame}</pre>\n</body>\n</html>\n"
    )
