"""The artifact container: one self-verifying file per stored object.

Every artifact the :class:`~repro.store.RunStore` holds — training
sets, fitted models, GA populations, reports — is written as a single
file: a one-line JSON header (magic, kind, schema version, codec,
payload size, SHA-256 digest) followed by the raw payload bytes.  The
file is produced via a same-directory temp file and an atomic rename,
and readers verify the header *and* the digest, so a crash at any
instant leaves either the previous complete version or nothing — a
partially-written artifact is detected and treated as absent, never
returned as data.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, Tuple, Union

#: First bytes of every artifact file; anything else is not an artifact.
MAGIC = "repro-artifact"

#: Container-format version (the header layout itself, not the payload
#: schema — each artifact kind carries its own ``schema`` number).
CONTAINER_VERSION = 1


class ArtifactError(Exception):
    """A file that is not a complete, intact artifact.

    Raised on missing files, torn writes, digest mismatches and
    stale container formats alike — callers treat all of them as
    "the artifact is absent".
    """


def payload_digest(payload: bytes) -> str:
    """Content address of a payload (hex SHA-256)."""
    return hashlib.sha256(payload).hexdigest()


def atomic_write(
    path: Union[str, Path], data: Union[bytes, str], fsync: bool = False
) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    The bytes go to a temp file in the destination directory, named
    with the pid and a random suffix so concurrent writers (threads
    included) never share one, then ``rename`` over ``path`` — atomic
    on POSIX, so a reader sees the old file or the new one, never a
    mix.  With ``fsync`` the bytes reach stable storage before the
    rename (SIGKILL-safety never needs this — only power loss does).
    On any failure the temp file is removed and the error re-raised.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(
    path: Union[str, Path],
    payload: bytes,
    kind: str,
    schema: int,
    codec: str,
    fsync: bool = False,
) -> str:
    """Atomically write ``payload`` as an artifact file (via
    :func:`atomic_write`); returns its digest."""
    path = Path(path)
    digest = payload_digest(payload)
    header = {
        "magic": MAGIC,
        "container": CONTAINER_VERSION,
        "kind": kind,
        "schema": int(schema),
        "codec": codec,
        "size": len(payload),
        "sha256": digest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    atomic_write(path, blob, fsync=fsync)
    return digest


#: Header-line read chunk; a real header is well under this.
_HEADER_PROBE_BYTES = 64 * 1024


def read_artifact_header(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], int]:
    """Read and validate only the header; returns ``(header, payload_offset)``.

    The zero-copy read path: the payload is *not* read or digested —
    only its declared size is checked against the file length, which
    catches truncation without touching the data pages.  Callers that
    skip :func:`read_artifact`'s full digest check are trusting the
    store's atomic-rename invariant (a visible blob is a completely
    written blob) plus the payload's own internal checksums, which the
    columnar blob format provides per section.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with path.open("rb") as handle:
            head = handle.read(_HEADER_PROBE_BYTES)
    except OSError as exc:
        raise ArtifactError(f"{path}: unreadable ({exc})") from exc
    newline = head.find(b"\n")
    if newline < 0:
        raise ArtifactError(f"{path}: no header line")
    try:
        header = json.loads(head[:newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: bad header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise ArtifactError(f"{path}: not an artifact")
    if header.get("container") != CONTAINER_VERSION:
        raise ArtifactError(
            f"{path}: container version {header.get('container')!r} "
            f"!= {CONTAINER_VERSION}"
        )
    payload_offset = newline + 1
    if size - payload_offset != header.get("size"):
        raise ArtifactError(
            f"{path}: truncated ({size - payload_offset} of "
            f"{header.get('size')} bytes)"
        )
    return header, payload_offset


def read_artifact(path: Union[str, Path]) -> Tuple[Dict[str, object], bytes]:
    """Read and verify an artifact; returns ``(header, payload)``.

    Raises :class:`ArtifactError` on any defect — missing file, bad
    header, truncated payload, digest mismatch, unknown container
    version.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ArtifactError(f"{path}: unreadable ({exc})") from exc
    newline = blob.find(b"\n")
    if newline < 0:
        raise ArtifactError(f"{path}: no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: bad header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise ArtifactError(f"{path}: not an artifact")
    if header.get("container") != CONTAINER_VERSION:
        raise ArtifactError(
            f"{path}: container version {header.get('container')!r} "
            f"!= {CONTAINER_VERSION}"
        )
    payload = blob[newline + 1 :]
    if len(payload) != header.get("size"):
        raise ArtifactError(
            f"{path}: truncated ({len(payload)} of {header.get('size')} bytes)"
        )
    if payload_digest(payload) != header.get("sha256"):
        raise ArtifactError(f"{path}: digest mismatch")
    return header, payload
