"""The columnar blob format: zero-copy array sections behind one header.

Training sets and flattened forests are, at heart, a handful of numpy
arrays.  Pickling them costs a full deserialize *per reader process*
and a private heap copy of every byte; CSV costs a parse on top.  This
module defines the binary container both now share::

    RPRBLOB1                      8-byte magic
    <u64 little-endian>           header length in bytes
    {"version": 1, ...}           header JSON (kind, meta, sections)
    ... 64-byte aligned ...
    <section 0 bytes>             raw C-order little-endian array data
    ... 64-byte aligned ...
    <section 1 bytes>
    ...

The header's ``sections`` list records, per array: name, numpy dtype
string (always little-endian), shape, byte offset *relative to the
aligned data start*, byte length, and an independent SHA-256 — so a
reader can verify or map any one section without touching the rest.

Three access paths share the layout:

* :func:`encode_sections` — arrays -> ``bytes`` (an object file of
  the content-addressed store);
* :func:`decode_sections` — ``bytes`` -> read-only array views over the
  buffer (zero copy; ``verify=True`` checks per-section digests);
* :func:`map_sections` — file path -> read-only :class:`numpy.memmap`
  views, so N reader processes share one page-cache copy of the data
  and "loading" a 25 MB forest touches only the header page.

Alignment is 64 bytes so every section start is cache-line- (and
therefore element-) aligned regardless of preceding section sizes.
All multi-byte data is little-endian on disk; big-endian inputs are
byte-swapped at encode time and every documented platform reads the
stored bytes as native.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

#: First bytes of every blob; anything else is not this format.
MAGIC = b"RPRBLOB1"

#: Layout version of the container itself (header framing + alignment).
BLOB_VERSION = 1

#: Section starts are padded to this boundary (cache line).
ALIGNMENT = 64

#: Sanity bound on header size — a real header is a few KB; anything
#: claiming more is corruption, not data.
_MAX_HEADER_BYTES = 16 << 20

_PREFIX = struct.Struct("<Q")


class BlobError(Exception):
    """A buffer or file that is not a complete, intact blob.

    Raised on bad magic, truncated headers or sections, digest
    mismatches, and malformed section descriptors alike — store-level
    callers treat all of them as "the artifact is absent".
    """


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _canonical(array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian view/copy of ``array`` for encoding."""
    array = np.asarray(array)
    if array.dtype.hasobject:
        raise BlobError("object arrays cannot be stored as sections")
    dtype = array.dtype
    if dtype.byteorder == ">":
        dtype = dtype.newbyteorder("<")
    return np.ascontiguousarray(array, dtype=dtype)


def _wire_dtype(dtype: np.dtype) -> str:
    """The dtype string written to the header (explicitly little-endian)."""
    if dtype.byteorder == "=" and dtype.itemsize > 1:
        dtype = dtype.newbyteorder("<")
    return dtype.str


def encode_sections(
    sections: Mapping[str, np.ndarray],
    meta: Optional[Mapping[str, object]] = None,
    kind: str = "blob",
) -> bytes:
    """Serialize named arrays into one self-describing blob."""
    arrays = {str(name): _canonical(arr) for name, arr in sections.items()}
    descriptors = []
    offset = 0  # relative to the aligned data start
    for name, arr in arrays.items():
        offset = _align(offset)
        descriptors.append(
            {
                "name": name,
                "dtype": _wire_dtype(arr.dtype),
                "shape": [int(s) for s in arr.shape],
                "offset": offset,
                "nbytes": int(arr.nbytes),
                "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
            }
        )
        offset += int(arr.nbytes)
    header = {
        "version": BLOB_VERSION,
        "kind": str(kind),
        "meta": dict(meta) if meta else {},
        "sections": descriptors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(len(MAGIC) + _PREFIX.size + len(header_bytes))
    blob = bytearray(data_start + offset)
    blob[: len(MAGIC)] = MAGIC
    _PREFIX.pack_into(blob, len(MAGIC), len(header_bytes))
    blob[len(MAGIC) + _PREFIX.size : len(MAGIC) + _PREFIX.size + len(header_bytes)] = (
        header_bytes
    )
    for desc, arr in zip(descriptors, arrays.values()):
        start = data_start + desc["offset"]
        blob[start : start + desc["nbytes"]] = arr.tobytes()
    return bytes(blob)


def _parse_header(prefix: bytes, total_size: int) -> Tuple[Dict[str, object], int]:
    """Validate framing, return ``(header, data_start)``.

    ``prefix`` must hold at least magic + length + header JSON;
    ``total_size`` bounds section extents.
    """
    if len(prefix) < len(MAGIC) + _PREFIX.size:
        raise BlobError("truncated: no room for magic + header length")
    if prefix[: len(MAGIC)] != MAGIC:
        raise BlobError("not a blob (bad magic)")
    (header_len,) = _PREFIX.unpack_from(prefix, len(MAGIC))
    if header_len > _MAX_HEADER_BYTES:
        raise BlobError(f"implausible header length {header_len}")
    header_end = len(MAGIC) + _PREFIX.size + header_len
    if header_end > len(prefix):
        raise BlobError("truncated header")
    try:
        header = json.loads(prefix[len(MAGIC) + _PREFIX.size : header_end])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BlobError(f"bad header JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("version") != BLOB_VERSION:
        raise BlobError(f"unsupported blob version {header.get('version')!r}")
    if not isinstance(header.get("sections"), list):
        raise BlobError("header has no sections list")
    data_start = _align(header_end)
    for desc in header["sections"]:
        if not isinstance(desc, dict):
            raise BlobError("malformed section descriptor")
        try:
            dtype = np.dtype(str(desc["dtype"]))
            shape = tuple(int(s) for s in desc["shape"])
            offset = int(desc["offset"])
            nbytes = int(desc["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BlobError(f"malformed section descriptor ({exc})") from exc
        if dtype.hasobject:
            raise BlobError("object dtype in section descriptor")
        if any(s < 0 for s in shape) or offset < 0 or nbytes < 0:
            raise BlobError("negative section extent")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count * dtype.itemsize != nbytes:
            raise BlobError(
                f"section {desc.get('name')!r}: shape/dtype disagree with nbytes"
            )
        if data_start + offset + nbytes > total_size:
            raise BlobError(f"section {desc.get('name')!r}: extends past blob end")
    return header, data_start


def _verify_section(desc: Mapping[str, object], data: np.ndarray) -> None:
    digest = hashlib.sha256(data.tobytes()).hexdigest()
    if digest != desc.get("sha256"):
        raise BlobError(f"section {desc.get('name')!r}: digest mismatch")


def decode_sections(
    blob: Union[bytes, bytearray, memoryview],
    verify: bool = True,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Parse a blob into ``(header, {name: array})``.

    Arrays are read-only zero-copy views over ``blob`` (the buffer is
    kept alive by the views).  ``verify`` checks each section's SHA-256
    — skip it only when an outer layer already authenticated the bytes.
    """
    blob = bytes(blob) if not isinstance(blob, bytes) else blob
    header, data_start = _parse_header(blob, len(blob))
    arrays: Dict[str, np.ndarray] = {}
    for desc in header["sections"]:
        dtype = np.dtype(str(desc["dtype"]))
        shape = tuple(int(s) for s in desc["shape"])
        start = data_start + int(desc["offset"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        array = np.frombuffer(blob, dtype=dtype, count=count, offset=start)
        array = array.reshape(shape)
        if verify:
            _verify_section(desc, array)
        arrays[str(desc["name"])] = array
    return header, arrays


def map_sections(
    path: Union[str, Path], verify: bool = False
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Memory-map the blob that is the whole file at ``path``.

    Returns ``(header, {name: read-only memmap view})``.  Only the
    header bytes are read eagerly; section data stays untouched until
    a consumer gathers from it, and the pages it does touch live in the
    shared page cache — N reader processes cost one resident copy.

    ``verify`` forces a full per-section digest check, which reads
    everything and therefore forfeits laziness.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            prefix = handle.read(len(MAGIC) + _PREFIX.size)
            if len(prefix) == len(MAGIC) + _PREFIX.size:
                (header_len,) = _PREFIX.unpack_from(prefix, len(MAGIC))
                prefix += handle.read(min(header_len, _MAX_HEADER_BYTES))
    except OSError as exc:
        raise BlobError(f"{path}: unreadable ({exc})") from exc
    header, data_start = _parse_header(prefix, size)
    arrays: Dict[str, np.ndarray] = {}
    for desc in header["sections"]:
        dtype = np.dtype(str(desc["dtype"]))
        shape = tuple(int(s) for s in desc["shape"])
        if int(np.prod(shape, dtype=np.int64) if shape else 1) == 0:
            empty = np.empty(shape, dtype=dtype)
            empty.setflags(write=False)  # match the mapped views' contract
            arrays[str(desc["name"])] = empty
            continue
        view = np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=data_start + int(desc["offset"]),
            shape=shape,
            order="C",
        )
        if verify:
            _verify_section(desc, np.asarray(view))
        arrays[str(desc["name"])] = view
    return header, arrays
