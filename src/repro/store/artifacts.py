"""Content digests and the atomic file write.

The :class:`~repro.store.RunStore` names every stored object by
:func:`payload_digest` and writes it with :func:`atomic_write`, so a
crash at any instant leaves the previous complete file or nothing.
:func:`canonical_digest` and :func:`exact` build the semantic
fingerprints (reports, requests, scenarios) from plain documents.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Union

_SCALARS = (type(None), bool, int, float, str)


def payload_digest(payload: bytes) -> str:
    """Content address of a payload (hex SHA-256)."""
    return hashlib.sha256(payload).hexdigest()


def _builtin(value):
    """``value``, if it is built-in scalars, lists, tuples and dicts all
    the way down; ``TypeError`` otherwise (a numpy scalar included)."""
    if type(value) in (list, tuple, dict):
        for item in value.items() if type(value) is dict else value:
            _builtin(item)
    elif type(value) not in _SCALARS:
        raise TypeError(f"not a built-in value: {type(value).__name__}")
    return value


def exact(value) -> str:
    """``repr`` of a built-in value: exact for floats, and type-checked
    so a numpy scalar cannot slip its own ``repr`` into a digest."""
    return repr(_builtin(value))


def canonical_digest(doc) -> str:
    """SHA-256 of ``doc`` as sorted-key JSON (built-in values only)."""
    return payload_digest(json.dumps(_builtin(doc), sort_keys=True).encode("utf-8"))


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
