"""The zero-copy data path: blob containers, store reads, mmap, gc.

Property-based round trips for :mod:`repro.store.blobfmt`, the store's
blob reads (an entry that holds no blob reads absent), bit-exactness of
the mmap read path against the copying path, the mmap-safe matrix cache
key, and ``RunStore.gc``.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collecting import (
    Collector,
    TrainingSet,
    encode_raw_columns,
    raw_columns,
    raw_value,
    value_from_raw,
)
from repro.core.tuner import DacTuner
from repro.io import dumps_training_set
from repro.models.hierarchical import HierarchicalModel
from repro.models.tree import _CACHE_CONTENT_BYTES, _matrix_cache_key
from repro.store import KIND_SCHEMAS, RunStore, blobfmt, payload_digest
from repro.store.blobfmt import (
    BlobError,
    decode_sections,
    encode_sections,
    map_sections,
)

#: The SHA-256 schema 2 stored for the final model of the tune job
#: ``tests/test_store.py`` pins (TS, 60 examples, 30 trees, seed 7).
SCHEMA_2_TUNE_MODEL = (
    "c705df0de8471d7ecffa07d01134c0369fd67328145bf1f702a4ebdd756a8d15"
)


def schema_2_model_payload(model) -> bytes:
    """``model`` as model schema 2 stored it, byte for byte.

    Schema 2 kept each split's bin index as an int32 threshold (leaves
    at the int32 maximum) and stored every component's bin edges,
    concatenated, with their offsets and ``max_bins``.
    """
    sections, meta = model.to_sections()
    old = {"weights": sections["weights"], "holdout": sections["holdout"]}
    for i, component in enumerate(model._components):
        prefix = f"c{i}."
        nodes = [node for tree in component._trees for node in tree._nodes]
        edges = component._binner.edges
        old.update(
            {
                prefix + "feature": sections[prefix + "feature"],
                prefix + "threshold": np.array(
                    [
                        np.iinfo(np.int32).max if node.is_leaf
                        else node.bin_threshold
                        for node in nodes
                    ],
                    dtype=np.int32,
                ),
                prefix + "children": sections[prefix + "children"],
                prefix + "value": sections[prefix + "value"],
                prefix + "roots": sections[prefix + "roots"],
                prefix + "edges": np.concatenate(edges),
                prefix + "edges_off": np.cumsum(
                    [0] + [len(e) for e in edges]
                ).astype(np.int64),
                prefix + "val_errors": sections[prefix + "val_errors"],
            }
        )
        meta["components"][i]["max_bins"] = component._binner.max_bins
    return blobfmt.encode_sections(old, meta=meta, kind="model")


# ----------------------------------------------------------------------
# Hypothesis strategies: arbitrary section tables
# ----------------------------------------------------------------------
_DTYPES = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "<u1", "<i2"])


@st.composite
def _section(draw):
    dtype = np.dtype(draw(_DTYPES))
    ndim = draw(st.integers(min_value=1, max_value=2))
    shape = tuple(
        draw(st.integers(min_value=0, max_value=7)) for _ in range(ndim)
    )
    n = int(np.prod(shape)) if shape else 0
    if dtype.kind == "f":
        elements = st.floats(
            allow_nan=False, allow_infinity=True, width=8 * dtype.itemsize
        )
    else:
        info = np.iinfo(dtype)
        elements = st.integers(min_value=int(info.min), max_value=int(info.max))
    flat = draw(
        st.lists(elements, min_size=n, max_size=n)
    )
    return np.asarray(flat, dtype=dtype).reshape(shape)


@st.composite
def _section_table(draw):
    names = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"),
                    whitelist_characters="._-",
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    return {name: draw(_section()) for name in names}


# ----------------------------------------------------------------------
# blobfmt container properties
# ----------------------------------------------------------------------
class TestBlobRoundTripProperty:
    @given(_section_table())
    @settings(max_examples=40, deadline=None)
    def test_decode_views_are_byte_identical(self, sections):
        blob = encode_sections(sections, meta={"k": 1}, kind="test")
        header, views = decode_sections(blob, verify=True)
        assert header["kind"] == "test"
        assert header["meta"] == {"k": 1}
        assert set(views) == set(sections)
        for name, original in sections.items():
            view = views[name]
            assert view.shape == original.shape
            assert view.dtype == original.dtype
            assert view.tobytes() == original.tobytes()
            assert not view.flags.writeable

    @given(_section_table())
    @settings(max_examples=25, deadline=None)
    def test_mapped_views_match_decoded_views(self, tmp_path_factory, sections):
        blob = encode_sections(sections, kind="test")
        path = tmp_path_factory.mktemp("blob") / "container"
        path.write_bytes(blob)
        header, views = map_sections(path, verify=True)
        for name, original in sections.items():
            assert views[name].tobytes() == original.tobytes()
            assert not views[name].flags.writeable

    @given(_section_table(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_flipped_payload_byte_is_detected(self, sections, data):
        nonempty = {n: a for n, a in sections.items() if a.nbytes}
        if not nonempty:
            return  # all-empty tables have no payload byte to corrupt
        blob = bytearray(encode_sections(nonempty, kind="test"))
        # Corrupt one byte of section data (never the header JSON, whose
        # corruption is a parse error rather than a digest mismatch).
        header, _ = decode_sections(bytes(blob), verify=False)
        data_start = len(blob) - max(
            d["offset"] + d["nbytes"] for d in header["sections"]
        )
        victim = data.draw(
            st.sampled_from(sorted(nonempty)), label="section"
        )
        desc = next(
            d for d in header["sections"] if d["name"] == victim
        )
        at = data_start + desc["offset"] + data.draw(
            st.integers(min_value=0, max_value=desc["nbytes"] - 1), label="byte"
        )
        blob[at] ^= 0xFF
        with pytest.raises(BlobError, match="digest"):
            decode_sections(bytes(blob), verify=True)

    def test_truncated_header_rejected(self):
        blob = encode_sections({"a": np.arange(4.0)}, kind="test")
        for cut in (0, 4, len(blobfmt.MAGIC), len(blobfmt.MAGIC) + 8 + 3):
            with pytest.raises(BlobError):
                decode_sections(blob[:cut])

    def test_truncated_payload_rejected(self):
        blob = encode_sections({"a": np.arange(64.0)}, kind="test")
        with pytest.raises(BlobError):
            decode_sections(blob[:-7], verify=True)

    def test_wrong_magic_rejected(self):
        blob = encode_sections({"a": np.arange(4.0)}, kind="test")
        with pytest.raises(BlobError, match="magic"):
            decode_sections(b"XXXXXXXX" + blob[8:])

    def test_object_dtype_rejected(self):
        with pytest.raises(BlobError):
            encode_sections({"a": np.array([object()])}, kind="test")

    def test_sections_are_aligned(self):
        sections = {"a": np.arange(3, dtype=np.uint8), "b": np.arange(5.0)}
        blob = encode_sections(sections, kind="test")
        header, _ = decode_sections(blob, verify=True)
        for desc in header["sections"]:
            assert desc["offset"] % blobfmt.ALIGNMENT == 0


# ----------------------------------------------------------------------
# Raw-value column encoding
# ----------------------------------------------------------------------
class TestRawColumns:
    def test_raw_values_round_trip_every_parameter(self, space, rng):
        for _ in range(20):
            config = space.random(rng)
            for param in space.parameters:
                raw = raw_value(param, config[param.name])
                assert value_from_raw(param, raw) == config[param.name]

    def test_raw_columns_match_per_cell_loop_bitwise(self, space, rng):
        """Boolean, string, integer and float knobs, including defaults
        outside the sampling range (offHeap.size=0, revive.interval=1)."""
        configs = [space.random(rng) for _ in range(30)] + [space.default()]
        configs += [
            config.replacing_values({p.name: p.default for p in space.parameters[::2]})
            for config in configs[:5]
        ]
        loop = np.array(
            [[raw_value(p, c[p.name]) for p in space.parameters] for c in configs]
        )
        assert raw_columns(space, configs).tobytes() == loop.tobytes()

    def test_vectorized_encode_matches_row_loop_bitwise(self, space, rng):
        configs = [space.random(rng) for _ in range(50)]
        values = np.array(
            [[raw_value(p, c[p.name]) for p in space.parameters] for c in configs]
        )
        vectorized = encode_raw_columns(space, values)
        rows = np.array([space.encode(c) for c in configs])
        np.testing.assert_array_equal(vectorized, rows)


# ----------------------------------------------------------------------
# Store reads: blob-only entries, mmap bit-exactness, corruption handling
# ----------------------------------------------------------------------
class TestStoreCodecPaths:
    @pytest.fixture()
    def training(self, terasort):
        return Collector(terasort, seed=11).collect(24, stream="train")

    def test_retired_csv_training_set_reads_absent(self, tmp_path, training, space):
        """CSV text is not a stored training set's format: such an entry
        is a miss, so the caller recollects and rewrites it as a blob."""
        store = RunStore(tmp_path / "store")
        payload = dumps_training_set(training).encode("utf-8")
        store.put_bytes("ts", payload, kind="training_set")
        for mode in ("copy", "mmap"):
            assert store.get_training_set("ts", space=space, mode=mode) is None

    def test_pickled_model_reads_absent(self, tmp_path, terasort):
        """A model entry holds a blob or nothing: a pickled model is a
        miss, so the caller refits and rewrites it as a blob."""
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=30, n_trees=8, seed=0)
        tuner.collect()
        model = tuner.fit()
        store.put_object("m", model, kind="model")
        for mode in ("copy", "mmap"):
            assert store.get_model("m", mode=mode) is None

    def test_model_that_does_not_lower_is_refused(self, tmp_path):
        """An unfitted model has no blob form, so the store refuses it
        and writes neither an object nor an index line."""
        store = RunStore(tmp_path / "store")
        with pytest.raises(ValueError, match="not fitted"):
            store.put_model("m", HierarchicalModel())
        assert store.entry("m") is None
        assert not (store.root / "index.jsonl").exists()
        assert not list((store.root / "objects").iterdir())

    def test_unknown_codec_reads_absent(self, tmp_path, training):
        store = RunStore(tmp_path / "store")
        store.put_bytes("ts", b"future bytes", kind="training_set")
        assert store.get_training_set("ts") is None
        assert store.get_training_set("ts", mode="mmap") is None

    def test_index_lines_naming_a_codec_still_read(self, tmp_path, training):
        """Index lines written while entries named their codec: the
        field is ignored, so every blob entry of such a store reads."""
        root = tmp_path / "store"
        RunStore(root).put_training_set("ts", training)
        index = root / "index.jsonl"
        entry = json.loads(index.read_text())
        index.write_text(json.dumps({**entry, "codec": "blob1"}) + "\n")
        store = RunStore(root)
        for mode in ("copy", "mmap"):
            loaded = store.get_training_set("ts", mode=mode)
            np.testing.assert_array_equal(loaded.features(), training.features())

    def test_mmap_training_set_is_file_backed_and_exact(
        self, tmp_path, training, space
    ):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        copied = store.get_training_set("ts", space=space)
        mapped = store.get_training_set("ts", space=space, mode="mmap")
        np.testing.assert_array_equal(copied.features(), training.features())
        np.testing.assert_array_equal(mapped.features(), training.features())
        np.testing.assert_array_equal(mapped.times(), training.times())
        assert isinstance(mapped.times().base, np.memmap)
        assert not mapped.times().flags.writeable
        # Raw values reconstruct each configuration exactly.
        assert mapped.rows().tobytes() == training.rows().tobytes()

    def test_seed_vectors_are_row_encodings_bitwise(
        self, tmp_path, training, space, terasort
    ):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        # The configurations the fixture's collection drew, in row order.
        configs = [
            request.config
            for batch in Collector(terasort, seed=11).plan(24, stream="train")
            for request in batch.requests
        ]
        sets = {
            "columns": training,
            "rows": TrainingSet.from_rows(space, training.rows()),
            "mmap": store.get_training_set("ts", space=space, mode="mmap"),
        }
        for backing, ts in sets.items():
            for n in (5, len(ts), len(ts) + 7):
                seeds = ts.seed_vectors(n)
                assert len(seeds) == min(n, len(ts)), backing
                for seed, config in zip(seeds, configs):
                    assert seed.tobytes() == space.encode(config).tobytes(), backing
                    assert seed.flags.writeable

    def test_mmap_model_predictions_bitwise_equal(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=40, n_trees=12, seed=1)
        tuner.collect()
        model = tuner.fit()
        store.put_model("m", model)
        assert "codec" not in store.entry("m")  # the kind fixes the format
        X = tuner.training_set.features()
        expected = model.predict(X)
        # Restored models carry no per-tree state to walk, so the walk of
        # the fitted model they were lowered from is the oracle.
        walked = model._blend([c.predict_walk(X) for c in model._components])
        assert expected.tobytes() == walked.tobytes()
        for mode in ("copy", "mmap"):
            loaded = store.get_model("m", mode=mode)
            assert loaded.predict(X).tobytes() == walked.tobytes()
        mapped = store.get_model("m", mode="mmap")
        forest = mapped._components[0]._flat
        assert isinstance(forest.value, np.memmap)
        assert not forest.value.flags.writeable

    def test_old_layout_model_reads_absent(self, tmp_path, terasort):
        """Model blobs lowered before leaves looped to themselves (leaf
        threshold -1 and children ``root - 1``, no stored depth) carry
        model schema 1 and must read back as absent, so the caller
        refits and rewrites."""
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=30, n_trees=8, seed=0)
        tuner.collect()
        model = tuner.fit()
        sections, meta = model.to_sections()
        for i, component in enumerate(meta["components"]):
            del component["depth"]
            feature = sections[f"c{i}.feature"]
            roots = sections[f"c{i}.roots"]
            leaves = np.flatnonzero(feature < 0)
            children = sections[f"c{i}.children"].copy()
            old = roots[np.searchsorted(roots, leaves, side="right") - 1] - 1
            children[2 * leaves] = children[2 * leaves + 1] = old
            sections[f"c{i}.children"] = children
            threshold = sections[f"c{i}.threshold"].copy()
            threshold[leaves] = -1
            sections[f"c{i}.threshold"] = threshold
        payload = blobfmt.encode_sections(sections, meta=meta, kind="model")
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(KIND_SCHEMAS, "model", 1)
            store.put_bytes("m", payload, kind="model")
        for mode in ("copy", "mmap"):
            assert store.get_model("m", mode=mode) is None
        store.put_model("m", model)
        X = tuner.training_set.features()
        assert store.get_model("m").predict(X).tobytes() == model.predict(X).tobytes()

    def test_schema_2_model_reads_absent(self, tmp_path, terasort):
        """Model blobs of schema 2 (integer bin thresholds, with the bin
        edges stored beside them) read back as absent in both modes, so
        the caller refits and rewrites."""
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=60, n_trees=30, seed=7)
        tuner.collect()
        model = tuner.fit()
        payload = schema_2_model_payload(model)
        # The final model of the pinned tune job, as schema 2 stored it.
        assert payload_digest(payload) == SCHEMA_2_TUNE_MODEL
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(KIND_SCHEMAS, "model", 2)
            store.put_bytes("m", payload, kind="model")
        for mode in ("copy", "mmap"):
            assert store.get_model("m", mode=mode) is None
        store.put_model("m", model)
        X = tuner.training_set.features()
        for mode in ("copy", "mmap"):
            loaded = store.get_model("m", mode=mode)
            assert loaded.predict(X).tobytes() == model.predict(X).tobytes()

    @pytest.mark.parametrize("drain_at", ["fit", "generation"])
    def test_schema_2_fit_checkpoint_refits_to_same_fingerprint(
        self, tmp_path, monkeypatch, drain_at
    ):
        """A worker that wrote its fit checkpoint at model schema 2
        drains at that checkpoint or at the search's first generation.
        The entry reads as absent, so the next worker refits (and, after
        a mid-search drain, continues the stored GA state against the
        refitted model) and finishes the job to the uninterrupted run's
        fingerprint."""
        from repro.core.ga import GeneticAlgorithm
        from repro.service import JobService, TuneRequest

        request = TuneRequest(
            program="TS", size=10.0, n_train=40, n_trees=15, generations=3,
            patience=None, seed=2,
        )
        reference = JobService(tmp_path / "reference", use_cache=False)
        reference.submit(request)
        expected = reference.run_pending()[0].result["fingerprint"]

        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(request)

        step, steps = GeneticAlgorithm.step, []

        def counting(self, state, fitness):
            steps.append(state.generation)
            return step(self, state, fitness)

        def drained():
            if drain_at == "generation":
                return len(steps) >= 1
            data = service.store.load_job(record.job_id) or {}
            return bool(data.get("progress", {}).get("fit", {}).get("done"))

        def put_schema_2(store, key, model):
            with pytest.MonkeyPatch.context() as patch:
                patch.setitem(KIND_SCHEMAS, "model", 2)
                return store.put_bytes(
                    key, schema_2_model_payload(model), kind="model"
                )

        with monkeypatch.context() as patched:
            patched.setattr(RunStore, "put_model", put_schema_2)
            patched.setattr(GeneticAlgorithm, "step", counting)
            service.work(poll_interval=0.01, idle_polls=2, drain=drained)
        paused = service.get(record.job_id)
        assert paused.state == "running"
        assert paused.progress["fit"]["done"]
        assert ("generation" in paused.progress.get("search", {})) == (
            drain_at == "generation"
        )

        key = record.artifact_key("model")
        assert service.store.entry(key)["schema"] == 2
        for mode in ("copy", "mmap"):
            assert service.store.get_model(key, mode=mode) is None

        other = JobService(tmp_path / "store", use_cache=False, worker_id="w2")
        done = other.work(poll_interval=0.01, idle_polls=3)
        assert [job.job_id for job in done] == [record.job_id]
        assert done[0].state == "done"
        assert done[0].result["fingerprint"] == expected
        assert other.store.entry(key)["schema"] == KIND_SCHEMAS["model"]

    def test_corrupt_blob_section_reads_absent(self, tmp_path, training, space):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        path = store._object_path(str(store.entry("ts")["digest"]))
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        # copy mode verifies the artifact digest; mmap mode catches the
        # torn container at section-parse/bounds time
        assert store.get_training_set("ts", space=space) is None

    def test_truncated_blob_reads_absent_in_mmap_mode(
        self, tmp_path, training, space
    ):
        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        path = store._object_path(str(store.entry("ts")["digest"]))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get_training_set("ts", space=space, mode="mmap") is None
        assert store.get_training_set("ts", space=space) is None

    def test_space_mismatch_reads_absent(self, tmp_path, training, space):
        from repro.common.space import ConfigurationSpace

        store = RunStore(tmp_path / "store")
        store.put_training_set("ts", training)
        other = ConfigurationSpace(list(space.parameters[:-1]), name="other")
        assert store.get_training_set("ts", space=other) is None


# ----------------------------------------------------------------------
# Matrix cache key (satellite: mmap matrices must not materialize)
# ----------------------------------------------------------------------
class TestMatrixCacheKey:
    def test_small_heap_matrix_keys_by_content(self):
        X = np.arange(12.0).reshape(3, 4)
        assert _matrix_cache_key(X) == _matrix_cache_key(X.copy())

    def test_large_heap_matrix_bypasses_memo(self):
        n = _CACHE_CONTENT_BYTES // 8 + 16
        X = np.zeros((n, 1))
        assert X.nbytes > _CACHE_CONTENT_BYTES
        assert _matrix_cache_key(X) is None

    def test_mmap_matrix_keys_by_identity_not_content(self, tmp_path):
        path = tmp_path / "m.bin"
        np.arange(24.0).reshape(6, 4).tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(6, 4))
        key = _matrix_cache_key(mapped)
        assert key is not None and key[0] == "mmap"
        # a plain slice view keys back to the same mapping
        assert _matrix_cache_key(mapped[:]) is not None
        # and an equal-content heap matrix gets a different (content) key
        heap = np.asarray(mapped).copy()
        assert _matrix_cache_key(heap) != key


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
class TestStoreGc:
    def _stale(self, store):
        """Backdate every blob past the gc age floor."""
        import os

        for path in (store.root / "objects").glob("*/*"):
            os.utime(path, (1.0, 1.0))

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v1" * 100)
        store.put_bytes("k", b"v2" * 100)  # supersedes v1
        self._stale(store)
        report = store.gc()
        assert report["applied"] is False
        assert report["live"] == 1
        assert len(report["swept"]) == 1
        assert report["reclaimed_bytes"] > 0
        assert store.get_bytes("k") == b"v2" * 100
        # dry run deleted nothing: both blobs still on disk
        assert len(list((store.root / "objects").glob("*/*"))) == 2

    def test_apply_sweeps_only_unreferenced(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"old" * 50)
        old_digest = str(store.entry("k")["digest"])
        store.put_bytes("k", b"new" * 50)
        store.put_bytes("other", b"live")
        self._stale(store)
        report = store.gc(apply=True)
        assert report["applied"] is True
        assert [s["digest"] for s in report["swept"]] == [old_digest]
        assert not store._object_path(old_digest).exists()
        assert store.get_bytes("k") == b"new" * 50
        assert store.get_bytes("other") == b"live"

    def test_young_blobs_survive(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v1")
        store.put_bytes("k", b"v2")  # v1 now unreferenced but fresh
        report = store.gc(apply=True)
        assert report["swept"] == []
        assert report["skipped_young"] == 1
        assert len(list((store.root / "objects").glob("*/*"))) == 2

    def test_stale_tmp_litter_swept(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v")
        litter = store.root / "objects" / "ab" / ".crashed-writer.123.tmp"
        litter.parent.mkdir(parents=True, exist_ok=True)
        litter.write_bytes(b"partial")
        self._stale(store)
        report = store.gc(apply=True)
        assert report["tmp_swept"] == 1
        assert not litter.exists()
        assert store.get_bytes("k") == b"v"

    def test_artifacts_of_finished_jobs_stay_live(self, tmp_path, terasort):
        """Job records reference artifacts only through index keys, so
        a full tune's artifacts all survive an aggressive sweep."""
        from repro.service import JobService, TuneRequest
        from repro.store import report_fingerprint

        service = JobService(tmp_path / "store", use_cache=False)
        request = TuneRequest(
            program="TS", size=10.0, n_train=20, n_trees=6,
            generations=2, patience=None, seed=0,
        )
        record = service.submit(request)
        done = service.resume(record.job_id)
        assert done.state == "done"
        store = service.store
        self._stale(store)
        store.gc(apply=True, min_age_seconds=0.0)
        key = record.artifact_key("report")
        report = store.get_report(key)
        assert report is not None
        assert done.result["fingerprint"] == report_fingerprint(report)


# ----------------------------------------------------------------------
# Engine cache containers
# ----------------------------------------------------------------------
class TestCacheEntryContainer:
    def test_cache_entry_is_checksummed_container(self, tmp_path):
        blob = blobfmt.encode_sections(
            {"pickle": np.frombuffer(pickle.dumps(1), dtype=np.uint8)},
            kind="cache_entry",
        )
        header, sections = blobfmt.decode_sections(blob, verify=True)
        assert header["kind"] == "cache_entry"
        assert pickle.loads(sections["pickle"].tobytes()) == 1
