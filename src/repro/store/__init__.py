"""Persistent, crash-safe storage for tuning runs.

The serving substrate's durability layer: a directory-rooted,
content-addressed experiment store holding every expensive artifact of
the DAC pipeline (training sets, fitted models, GA populations,
reports, telemetry event logs).  Each object file is exactly its
payload, named by its SHA-256 and written atomically; a read checks it
against the digest in the index, so a partially-written object is
detected and treated as absent.

* :mod:`repro.store.artifacts` — :func:`payload_digest`, the canonical
  fingerprint digest, and :func:`atomic_write`, the one tmp-file +
  rename write that the store, the engine cache, leases, heartbeats and
  dashboard exports share;
* :mod:`repro.store.blobfmt` — the columnar blob format of training
  sets and models: aligned, per-section-checksummed arrays that decode
  as zero-copy views or memory-map straight from the object file;
* :mod:`repro.store.runstore` — :class:`RunStore`, the
  content-addressed object store + append-only index + job records,
  with one format per artifact kind (blobs for training sets and
  models, read by copy or with ``mode="mmap"`` for zero-copy; pickles
  for GA states and reports) and :meth:`RunStore.gc`.

:mod:`repro.service` builds the scheduler and checkpointing job runner
on top of this package.
"""

from repro.store.artifacts import payload_digest
from repro.store.blobfmt import (
    BlobError,
    decode_sections,
    encode_sections,
    map_sections,
)
from repro.store.runstore import (
    KIND_SCHEMAS,
    STORE_SCHEMA,
    RunStore,
    StoreError,
    report_fingerprint,
)

__all__ = [
    "BlobError",
    "KIND_SCHEMAS",
    "RunStore",
    "STORE_SCHEMA",
    "StoreError",
    "decode_sections",
    "encode_sections",
    "map_sections",
    "payload_digest",
    "report_fingerprint",
]
