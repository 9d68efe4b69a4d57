"""Result caching: stop re-simulating identical triples.

:class:`CachedBackend` decorates any :class:`ExecutionBackend` with an
in-memory and (optionally) on-disk store keyed by the canonical hash of
the request triple *and* the inner backend's substrate signature — the
same cluster running the same program on the same datasize under the
same configuration always reproduces the same measurement, so the
first execution can answer every later identical request, across
sessions, experiments and benchmarks.

Keys hash the configuration's canonical *values* (not its [0,1]
encoding, which clips out-of-range defaults) plus the job's full stage
list, so distinct programs or distinct job compilations never alias.
Failures are never cached: a :class:`FailedRun` is returned to the
caller but the next identical request goes back to the substrate.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.request import ExecOutcome, ExecRequest, ExecResult
from repro.engine.stats import EngineStats
from repro.sparksim.simulator import RunResult
from repro.store import blobfmt
from repro.store.artifacts import atomic_write

#: ``kind`` tag of on-disk cache files.  Each file is a checksummed
#: :mod:`repro.store.blobfmt` container holding the fresh runs of one
#: ``submit`` batch as a pickled ``{key: RunResult}``, so a torn or
#: corrupt file is detected by digest rather than by pickle happening
#: to blow up.  Anything else — the retired one-run ``cache_entry``
#: file included — reads as a miss and is evicted.
_CACHE_BLOB_KIND = "cache_batch"


def request_key(request: ExecRequest, substrate_signature: str) -> str:
    """Canonical cache key of a (substrate, program, config, datasize) tuple."""
    digest = hashlib.blake2b(digest_size=16)
    parts = [
        substrate_signature,
        request.job.program,
        repr(request.job.datasize_bytes),
        repr(request.job.stages),
    ]
    config = request.config
    for name in config.space.names:
        parts.append(name)
        parts.append(repr(config[name]))
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


class CachedBackend(ExecutionBackend):
    """Memoizing decorator around another backend.

    Parameters
    ----------
    inner:
        The backend that answers cache misses.
    directory:
        Optional on-disk store: one blob container per ``submit``
        batch, hard-linked under the key of every run in it.  Sharing a
        directory across processes/sessions is safe: a blob lands by
        same-directory temp file + atomic rename, every other name is a
        ``link``, and an unreadable entry, or one whose blob lacks its
        key, is treated as a miss.
    """

    name = "cached"

    def __init__(
        self,
        inner: ExecutionBackend,
        directory: Optional[Union[str, Path]] = None,
    ):
        super().__init__()
        self.inner = inner
        # Each request through this cache is telemetered exactly once,
        # by this recorder; mute the inner backend's tap.
        inner._recorder.telemetry = False
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, RunResult] = {}
        self._signature = inner.signature()

    # -- protocol -------------------------------------------------------
    def signature(self) -> str:
        return self._signature

    @property
    def supports_parallel_tasks(self) -> bool:
        return self.inner.supports_parallel_tasks

    def map_tasks(self, fn, items):
        # Generic compute is not request-shaped; pass it straight down.
        return self.inner.map_tasks(fn, items)

    def submit(self, requests: Sequence[ExecRequest]) -> List[ExecOutcome]:
        outcomes: List[Optional[ExecOutcome]] = [None] * len(requests)
        misses: List[Tuple[int, str, ExecRequest]] = []
        for i, request in enumerate(requests):
            key = request_key(request, self._signature)
            run = self._lookup(key)
            if run is not None:
                outcomes[i] = ExecResult(
                    run=run,
                    wall_seconds=0.0,
                    attempts=0,
                    backend=self.name,
                    cache_hit=True,
                )
            else:
                misses.append((i, key, request))

        if misses:
            inner_outcomes = self.inner.submit([req for _, _, req in misses])
            fresh: Dict[str, RunResult] = {}
            for (i, key, _), outcome in zip(misses, inner_outcomes):
                if isinstance(outcome, ExecResult):
                    fresh[key] = outcome.run
                outcomes[i] = outcome
                self._recorder.record_miss()
            self._memory.update(fresh)
            self._store_batch(fresh)

        for outcome in outcomes:
            assert outcome is not None
            self._recorder.record(outcome)
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        self.inner.close()

    # -- introspection --------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Requests through this cache (hits + misses; inner wall times
        show up via the recorded miss outcomes)."""
        return self._recorder.snapshot()

    def __len__(self) -> int:
        return len(self._memory)

    # -- storage layers -------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _lookup(self, key: str) -> Optional[RunResult]:
        """``key``'s run from memory, else from the blob behind its name.

        A blob read from disk memoizes every run in it, so the rest of
        its batch never touches the disk again.
        """
        run = self._memory.get(key)
        if run is not None:
            return run
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:  # absent (or unreadable): miss
            return None
        try:
            header, sections = blobfmt.decode_sections(blob, verify=True)
            if header.get("kind") != _CACHE_BLOB_KIND:
                raise blobfmt.BlobError("not a cache batch")
            runs = pickle.loads(sections["pickle"].tobytes())
            if not all(isinstance(r, RunResult) for r in runs.values()):
                raise TypeError("not a batch of runs")
            run = runs[key]
        except Exception:  # stale format, torn, corrupt or foreign: rewrite
            self._evict(path)
            return None
        self._memory.update(runs)
        return run

    @staticmethod
    def _evict(path: Path) -> None:
        """Best-effort removal of a bad entry so the rewrite is clean."""
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    def _store_batch(self, runs: Dict[str, RunResult]) -> None:
        """Write ``runs`` to disk as one blob, named by each of its keys.

        The blob lands under the first key by temp file + rename, then
        is hard-linked under every other key; a name that already
        exists is left alone.  The file goes when its last name is
        evicted or replaced, so nothing needs sweeping.
        """
        if self.directory is None or not runs:
            return
        pickled = pickle.dumps(runs, protocol=pickle.HIGHEST_PROTOCOL)
        blob = blobfmt.encode_sections(
            {"pickle": np.frombuffer(pickled, dtype=np.uint8)},
            kind=_CACHE_BLOB_KIND,
        )
        first, *others = runs
        try:
            atomic_write(self._path(first), blob)
            for key in others:
                try:
                    os.link(self._path(first), self._path(key))
                except FileExistsError:
                    pass
        except OSError:  # read-only/full disk: memory layer still works
            pass
