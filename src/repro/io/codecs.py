"""Typed artifact codecs: version negotiation for the run store.

Every typed artifact in the :class:`~repro.store.RunStore` is written
under a ``(kind, codec)`` pair recorded in its index entry.
This registry maps those pairs to the code that encodes/decodes them,
which is what lets new writers and old stores coexist:

* new artifacts are written with the kind's *default* codec (the
  columnar blob format, ``blob1``); models that do not lower to
  sections (custom ``component_factory`` estimators) use ``pickle``;
* an artifact whose codec this registry doesn't know — written by newer
  code, or under a retired codec such as ``csv`` training sets — reads
  back as absent: the caller regenerates it, which is the store's
  invalidation idiom.  A format change bumps the codec name rather than
  keeping an old decoder.

A codec may also implement ``open(path, **ctx)`` — the zero-copy path:
given the object file, which holds exactly the payload, return the
object backed by read-only ``np.memmap`` views instead of heap copies.
Codecs without ``open`` simply fall back to the copying path under
``mode="mmap"``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.store import blobfmt

#: Name of the columnar-blob codec (see :mod:`repro.store.blobfmt`).
BLOB_CODEC = "blob1"


class CodecError(Exception):
    """An object that cannot be encoded by the requested codec."""


@dataclass(frozen=True)
class Codec:
    """One (kind, name) serialization strategy."""

    kind: str
    name: str
    encode: Callable[..., bytes]
    decode: Callable[..., object]
    open: Optional[Callable[..., object]] = None


_REGISTRY: Dict[Tuple[str, str], Codec] = {}
_DEFAULTS: Dict[str, str] = {}


def register(codec: Codec, default: bool = False) -> Codec:
    _REGISTRY[(codec.kind, codec.name)] = codec
    if default:
        _DEFAULTS[codec.kind] = codec.name
    return codec


def lookup(kind: str, name: str) -> Optional[Codec]:
    """The codec for a stored ``(kind, codec)`` pair, or ``None``
    (unknown codec = treat the artifact as absent)."""
    return _REGISTRY.get((kind, name))


def default_for(kind: str) -> Codec:
    return _REGISTRY[(kind, _DEFAULTS[kind])]


# ----------------------------------------------------------------------
# Training sets
# ----------------------------------------------------------------------
def _space_or_default(space):
    if space is not None:
        return space
    from repro.sparksim.confspace import SPARK_CONF_SPACE

    return SPARK_CONF_SPACE


def _encode_training_set_blob(training_set) -> bytes:
    columns = training_set.to_columns()
    meta = {
        "n": len(training_set),
        "space": training_set.space.name,
        "params": list(training_set.space.names),
    }
    return blobfmt.encode_sections(columns, meta=meta, kind="training_set")


def _training_set_from_blob(header, sections, space):
    from repro.core.collecting import TrainingSet

    space = _space_or_default(space)
    meta = header.get("meta", {})
    if list(meta.get("params", [])) != list(space.names):
        raise CodecError("stored training set covers a different parameter space")
    return TrainingSet(space, sections)


def _decode_training_set_blob(payload: bytes, space=None):
    header, sections = blobfmt.decode_sections(payload, verify=False)
    return _training_set_from_blob(header, sections, space)


def _open_training_set_blob(path, space=None):
    header, sections = blobfmt.map_sections(path)
    return _training_set_from_blob(header, sections, space)


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
def _encode_model_pickle(model) -> bytes:
    return pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_model_pickle(payload: bytes):
    return pickle.loads(payload)


def _encode_model_blob(model) -> bytes:
    try:
        sections, meta = model.to_sections()
    except (AttributeError, ValueError) as exc:
        raise CodecError(f"model does not lower to sections ({exc})") from exc
    return blobfmt.encode_sections(sections, meta=meta, kind="model")


def _model_from_blob(header, sections):
    from repro.models.hierarchical import HierarchicalModel

    return HierarchicalModel.from_sections(sections, header.get("meta", {}))


def _decode_model_blob(payload: bytes):
    header, sections = blobfmt.decode_sections(payload, verify=False)
    return _model_from_blob(header, sections)


def _open_model_blob(path):
    header, sections = blobfmt.map_sections(path)
    return _model_from_blob(header, sections)


register(
    Codec(
        kind="training_set",
        name=BLOB_CODEC,
        encode=_encode_training_set_blob,
        decode=_decode_training_set_blob,
        open=_open_training_set_blob,
    ),
    default=True,
)
register(
    Codec(
        kind="model",
        name="pickle",
        encode=_encode_model_pickle,
        decode=_decode_model_pickle,
    )
)
register(
    Codec(
        kind="model",
        name=BLOB_CODEC,
        encode=_encode_model_blob,
        decode=_decode_model_blob,
        open=_open_model_blob,
    ),
    default=True,
)
