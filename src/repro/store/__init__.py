"""Persistent, crash-safe storage for tuning runs.

The serving substrate's durability layer: a directory-rooted,
content-addressed experiment store holding every expensive artifact of
the DAC pipeline (training sets, fitted models, GA populations,
reports, telemetry event logs), each written atomically with a
schema-versioned, digest-verified container so partially-written
artifacts are detected and treated as absent.

* :mod:`repro.store.artifacts` — the self-verifying artifact file
  format (header + SHA-256 digest) and :func:`atomic_write`, the one
  tmp-file + rename write that the store, the engine cache, leases,
  heartbeats and dashboard exports share;
* :mod:`repro.store.blobfmt` — the columnar blob container nested
  inside artifacts: aligned, per-section-checksummed arrays that
  decode as zero-copy views or memory-map straight from the file;
* :mod:`repro.store.runstore` — :class:`RunStore`, the
  content-addressed object store + append-only index + job records,
  with codec-dispatched typed reads (``mode="mmap"`` for zero-copy)
  and :meth:`RunStore.gc`.

:mod:`repro.service` builds the scheduler and checkpointing job runner
on top of this package.
"""

from repro.store.artifacts import (
    ArtifactError,
    payload_digest,
    read_artifact,
    read_artifact_header,
    write_artifact,
)
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
    "ArtifactError",
    "BlobError",
    "KIND_SCHEMAS",
    "RunStore",
    "STORE_SCHEMA",
    "StoreError",
    "decode_sections",
    "encode_sections",
    "map_sections",
    "payload_digest",
    "read_artifact",
    "read_artifact_header",
    "report_fingerprint",
    "write_artifact",
]
