"""Minimal asyncio HTTP/1.1 plumbing for the tuning API.

Deliberately not a framework: just enough of RFC 9112 to parse one
request from a stream and write one response back — a connection's
only one, so every response says ``Connection: close`` — with every
limit an internet-facing front door needs enforced *during* the read —

* request-line and header-block size caps (414/431),
* a body-size cap checked against ``Content-Length`` before a byte of
  body is read (413),
* per-read timeouts so a slow-loris client holding bytes back gets a
  408 and its connection closed instead of a parked coroutine,
* no ``Transfer-Encoding`` support (501) — clients the repo ships
  (:mod:`repro.service.api.client`, curl with ``-d``) always send a
  ``Content-Length``.

Everything above this module (routing, JSON, quotas, dedup) lives in
:mod:`repro.service.api.app`; everything below it is ``asyncio``
streams.  Stdlib only.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "HttpLimits",
    "HttpRequest",
    "REASONS",
    "read_request",
    "response_bytes",
]

#: Reason phrases for every status the API emits.
REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Content Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}

#: Methods the server will parse at all (routing decides per path).
KNOWN_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS")


@dataclass(frozen=True)
class HttpLimits:
    """Hard ceilings enforced while reading one request."""

    #: Longest accepted request line (method + target + version).
    max_request_line: int = 8192
    #: Total header-block byte budget.
    max_header_bytes: int = 32768
    #: Largest accepted ``Content-Length`` (bodies above it are 413'd
    #: without being read).
    max_body_bytes: int = 1 << 20
    #: Seconds a single read (line or body chunk) may stall before the
    #: client is judged a slow loris and the connection 408'd.
    read_timeout: float = 10.0


class HttpError(Exception):
    """A request that could not be served; carries the response status."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON; :class:`HttpError` 400 on failure."""
        if not self.body:
            raise HttpError(400, "empty body where JSON was expected")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}")


async def _readline(
    reader: asyncio.StreamReader, timeout: float, limit: int, what: str
) -> bytes:
    """One CRLF/LF-terminated line under a timeout and a length cap."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    except asyncio.TimeoutError:
        raise HttpError(408, f"timed out reading {what}")
    except ValueError:
        # StreamReader buffer-limit overrun: line longer than the
        # transport limit (set >= max_request_line by the server).
        raise HttpError(414 if what == "request line" else 431,
                        f"{what} too long")
    if len(line) > limit:
        raise HttpError(414 if what == "request line" else 431,
                        f"{what} too long")
    return line


async def read_request(
    reader: asyncio.StreamReader, limits: HttpLimits
) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` when the client hangs
    up first.

    EOF *before any bytes* of a request, or in the middle of its body,
    is a normal close with nothing to answer, not an error.
    """
    line = await _readline(
        reader, limits.read_timeout, limits.max_request_line, "request line"
    )
    if not line:
        return None  # closed without sending a request
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {line[:80]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported version {version!r}")
    if method.upper() not in KNOWN_METHODS:
        raise HttpError(400, f"unknown method {method!r}")

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        raw = await _readline(
            reader, limits.read_timeout, limits.max_header_bytes, "headers"
        )
        if not raw:
            raise HttpError(400, "connection closed mid-headers")
        if raw in (b"\r\n", b"\n"):
            break
        header_bytes += len(raw)
        if header_bytes > limits.max_header_bytes:
            raise HttpError(431, "header block too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpError(501, "transfer-encoding is not supported; "
                             "send a Content-Length")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
            if length < 0:
                raise ValueError
        except ValueError:
            raise HttpError(400,
                            f"bad Content-Length {headers['content-length']!r}")
        if length > limits.max_body_bytes:
            raise HttpError(
                413,
                f"body of {length} bytes exceeds the "
                f"{limits.max_body_bytes}-byte limit",
            )
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=limits.read_timeout
                )
            except asyncio.TimeoutError:
                raise HttpError(408, "timed out reading request body")
            except asyncio.IncompleteReadError:
                return None  # client hung up mid-body: nothing to answer

    split = urlsplit(target)
    query = {k: v for k, v in parse_qsl(split.query, keep_blank_values=True)}
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialize one complete HTTP/1.1 response, the connection's last."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def error_body(status: int, message: str) -> Tuple[bytes, str]:
    """The canonical JSON error payload (body bytes, content type)."""
    payload = json.dumps(
        {"error": message, "status": status}, sort_keys=True
    ).encode("utf-8")
    return payload, "application/json"
