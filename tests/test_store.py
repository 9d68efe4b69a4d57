"""The run store: object files, index, typed artifacts, job records, digests."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.collecting import Collector
from repro.core.ga import GeneticAlgorithm
from repro.core.tuner import DacTuner
from repro.common.rng import derive_rng
from repro.service.jobs import (
    CANCELLED, DONE, FAILED, TuneRequest, request_fingerprint,
)
from repro.sparksim.scenario import (
    ScenarioRunner, builtin_trace, report_to_dict, scenario_fingerprint,
)
from repro.store import (
    KIND_SCHEMAS,
    RunStore,
    STORE_SCHEMA,
    StoreError,
    payload_digest,
    report_fingerprint,
)
from repro.store.runstore import TERMINAL_STATES
from repro.workloads import get_workload


# ----------------------------------------------------------------------
# Object files: each is its bare payload, named by the payload's SHA-256
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        payload = b"x" * 1000
        digest = store.put_bytes("k", payload)
        path = store._object_path(digest)
        assert path.read_bytes() == payload
        assert path.name == digest == payload_digest(payload)
        assert store.get_bytes("k") == payload

    def test_missing_file(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store._object_path(store.put_bytes("k", b"v")).unlink()
        assert store.get_bytes("k") is None

    def test_truncated_payload(self, tmp_path, terasort):
        """A torn object reads as absent on both paths: the copy read
        by its digest, the mmap read by the blob framing."""
        store = RunStore(tmp_path / "store")
        training = Collector(terasort, seed=3).collect(20, stream="train")
        path = store._object_path(store.put_training_set("ts", training))
        path.write_bytes(path.read_bytes()[:-17])
        assert store.get_training_set("ts") is None
        assert store.get_training_set("ts", mode="mmap") is None

    def test_corrupt_payload(self, tmp_path):
        store = RunStore(tmp_path / "store")
        path = store._object_path(store.put_object("r", {"x": 1.5}, kind="report"))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # same length, wrong content
        path.write_bytes(bytes(blob))
        assert store.get_object("r", kind="report") is None

    def test_not_an_artifact(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        training = Collector(terasort, seed=3).collect(20, stream="train")
        for digest in (
            store.put_object("r", [1, 2, 3], kind="report"),
            store.put_training_set("ts", training),
        ):
            store._object_path(digest).write_bytes(b"foreign bytes")
        assert store.get_object("r", kind="report") is None
        assert store.get_training_set("ts", mode="mmap") is None

    def test_same_payload_under_two_kinds(self, tmp_path):
        store = RunStore(tmp_path / "store")
        state = {"generation": 3}
        store.put_object("a", state, kind="report")
        store.put_object("b", state, kind="ga_state")
        assert store.get_object("a", kind="report") == state
        assert store.get_object("b", kind="ga_state") == state

    def test_no_tmp_litter(self, tmp_path):
        store = RunStore(tmp_path / "store")
        digest = store.put_bytes("k", b"x")
        assert [p.name for p in store._object_path(digest).parent.iterdir()] == [
            digest
        ]


# ----------------------------------------------------------------------
# RunStore: index + bytes/object layer
# ----------------------------------------------------------------------
class TestRunStore:
    def test_put_get_bytes(self, tmp_path):
        store = RunStore(tmp_path / "store")
        digest = store.put_bytes("some/key", b"payload")
        assert store.get_bytes("some/key") == b"payload"
        assert store.entry("some/key")["digest"] == digest
        assert store.get_bytes("other/key") is None

    def test_latest_version_wins(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v1")
        store.put_bytes("k", b"v2")
        assert store.get_bytes("k") == b"v2"
        # and a fresh store object (re-reading the index) agrees
        assert RunStore(tmp_path / "store").get_bytes("k") == b"v2"

    def test_kind_mismatch_reads_absent(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v", kind="bytes")
        assert store.get_bytes("k", kind="report") is None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v")
        monkeypatch.setitem(KIND_SCHEMAS, "bytes", KIND_SCHEMAS["bytes"] + 1)
        assert store.get_bytes("k") is None  # stale schema == absent

    def test_corrupt_blob_reads_absent(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("k", b"v" * 100)
        blob_path = store._object_path(store.entry("k")["digest"])
        blob_path.write_bytes(blob_path.read_bytes()[:-5])
        assert store.get_bytes("k") is None

    def test_torn_index_tail_skipped(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("a", b"1")
        store.put_bytes("b", b"2")
        with store._index_path().open("a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "digest"')  # torn mid-write
        reopened = RunStore(tmp_path / "store")
        assert reopened.get_bytes("a") == b"1"
        assert reopened.get_bytes("b") == b"2"
        assert reopened.keys() == ["a", "b"]

    def test_put_after_torn_index_tail_survives_reopen(self, tmp_path):
        """A put that follows a writer killed mid-append is not joined to
        the torn fragment: it reads back after reopening too."""
        RunStore(tmp_path / "store").put_bytes("a", b"1")
        index = tmp_path / "store" / "index.jsonl"
        index.write_bytes(index.read_bytes()[:-10])
        writer = RunStore(tmp_path / "store")
        writer.put_bytes("b", b"2")
        assert writer.get_bytes("b") == b"2"
        reopened = RunStore(tmp_path / "store")
        assert reopened.get_bytes("b") == b"2"
        assert reopened.keys() == ["b"]
        # The fragment keeps a line of its own, and a put on an intact
        # index adds exactly one line: no blank ones.
        reopened.put_bytes("c", b"3")
        lines = index.read_bytes().split(b"\n")
        assert len(lines) == 4 and all(lines[:3]) and lines[3] == b""

    def test_not_a_store(self, tmp_path):
        with pytest.raises(StoreError):
            RunStore(tmp_path / "absent", create=False)

    def test_schema_guard(self, tmp_path):
        root = tmp_path / "store"
        RunStore(root)
        meta = json.loads((root / "meta.json").read_text())
        for stale in (STORE_SCHEMA + 1, 1):  # newer, and headered objects
            meta["store_schema"] = stale
            (root / "meta.json").write_text(json.dumps(meta))
            with pytest.raises(StoreError, match="schema"):
                RunStore(root)

    def test_cross_process_round_trip(self, tmp_path):
        """A value written by another process reads back verbatim."""
        root = tmp_path / "store"
        RunStore(root)
        script = (
            "import sys\n"
            "from repro.store import RunStore\n"
            f"store = RunStore({str(root)!r})\n"
            "store.put_bytes('child/key', b'written-by-child')\n"
        )
        src = str(Path(__file__).parent.parent / "src")
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        store = RunStore(root)
        assert store.get_bytes("child/key") == b"written-by-child"

    def test_refresh_sees_other_writers(self, tmp_path):
        first = RunStore(tmp_path / "store")
        second = RunStore(tmp_path / "store")
        first.put_bytes("k", b"v")
        second.refresh()
        assert second.get_bytes("k") == b"v"


# ----------------------------------------------------------------------
# Typed artifacts
# ----------------------------------------------------------------------
class TestTypedArtifacts:
    def test_training_set_round_trip(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        training = Collector(terasort, seed=3).collect(20, stream="train")
        store.put_training_set("ts", training)
        loaded = store.get_training_set("ts")
        assert loaded is not None
        assert len(loaded) == len(training)
        np.testing.assert_allclose(loaded.times(), training.times())
        np.testing.assert_allclose(loaded.features(), training.features())

    def test_model_round_trip(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=30, n_trees=10, seed=0)
        tuner.collect()
        model = tuner.fit()
        store.put_model("m", model)
        loaded = store.get_model("m")
        X = tuner.training_set.features()
        np.testing.assert_allclose(loaded.predict(X), model.predict(X))

    def test_ga_state_round_trip(self, tmp_path, space):
        store = RunStore(tmp_path / "store")
        ga = GeneticAlgorithm(space, population_size=10)
        fitness = lambda pop: pop.sum(axis=1)  # noqa: E731
        state = ga.start(fitness, derive_rng("store-ga"))
        ga.step(state, fitness)
        store.put_ga_state("g", state)
        resumed = store.get_ga_state("g")
        ga.step(state, fitness)
        ga.step(resumed, fitness)
        np.testing.assert_array_equal(resumed.pop, state.pop)
        assert resumed.history == state.history

    def test_report_round_trip_and_fingerprint(self, tmp_path, terasort):
        store = RunStore(tmp_path / "store")
        tuner = DacTuner(terasort, n_train=30, n_trees=10, seed=0)
        tuner.collect()
        tuner.fit()
        report = tuner.tune(10.0, generations=2, patience=None)
        store.put_report("r", report)
        loaded = store.get_report("r")
        assert report_fingerprint(loaded) == report_fingerprint(report)
        other = tuner.tune(40.0, generations=2, patience=None)
        assert report_fingerprint(other) != report_fingerprint(report)

    def test_get_object_rejects_unpicklable_garbage(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_bytes("m", b"not a pickle", kind="model")
        assert store.get_model("m") is None


#: Every index line a TS tune job writes (60 examples, 30 trees, 5
#: generations, seed 7): artifact name, kind and payload SHA-256, in
#: index order — one line per collect batch, then the model and the
#: report.  The report's digest is left out because its payload
#: carries wall-clock timings; its fingerprint is pinned instead.  The
#: model digest is that of model schema 3 (float split thresholds, no
#: bin edges); the other digests and the fingerprint predate it.
TUNE_JOB_INDEX = [
    ("training", "training_set", "3fad0fdb0bf68428a20ee558731a597acf2e6fd310e1a65bd5e7c75bf75eba03"),
    ("training", "training_set", "9ca3c4920ca0f979b1fae6c32a4d01642d73e9609548cd74d765b86556897935"),
    ("training", "training_set", "fc29d49cde7de005801caff21048f73b5c2fa25bf2f69cc9d43d311456ada994"),
    ("training", "training_set", "7d4fa69da2878da7e6715fbd5091d8e97ccc18ed74405bc04d8878b94828e7ce"),
    ("training", "training_set", "0ca80ee5425d1bb0450fb13a124ba6562f55fd47b5c0a3792265e68cecd66a2f"),
    ("training", "training_set", "98f1e0a0c384eb49e3ce54e6839cbb1607706b12bb4154e1051fc0b9c88a2321"),
    ("training", "training_set", "25f9cdc9ef6160926861a41628714723ae8969a00d2f258082c7a8081da9e513"),
    ("training", "training_set", "4d98420113a64dc2209371b625f4ce29edf2a54b22cec4a14854d93ce5fd7138"),
    ("training", "training_set", "bd2f709963fef3bae38be72b1cf8418a5832a6c964df81ffe4d0ef13ac2e7b94"),
    ("training", "training_set", "5b9650e0d60c83b171f79664447f03d98772d44b581d7c663d30d3dbe0c40228"),
    ("model", "model", "37c97430919289b0ef552f2aeb0c4681811c0dcb7512ff060ef29f02e60fb7d1"),
    ("report", "report", None),
]


class TestStoredPayloads:
    def test_tune_job_payload_digests_golden(self, tmp_path):
        """The bytes a tune job stores, pinned before the writers changed."""
        from repro.service import JobService

        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(
            TuneRequest(
                program="TS", size=10.0, n_train=60, n_trees=30,
                generations=5, seed=7,
            )
        )
        done = service.run_pending()[0]
        assert done.result["fingerprint"] == (
            "428ac93638334274180e8601bb5f01db4b0dba7a35dd0f5e84fc3a58f382c9a5"
        )
        index = (service.store.root / "index.jsonl").read_text().splitlines()
        written = [
            (
                entry["key"],
                entry["kind"],
                None if entry["kind"] == "report" else entry["digest"],
            )
            for entry in map(json.loads, index)
        ]
        assert written == [
            (record.artifact_key(name), kind, digest)
            for name, kind, digest in TUNE_JOB_INDEX
        ]


# ----------------------------------------------------------------------
# Job records
# ----------------------------------------------------------------------
class TestJobRecords:
    def test_save_load_list(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.save_job("j-1", {"job_id": "j-1", "created": 2.0})
        store.save_job("j-2", {"job_id": "j-2", "created": 1.0})
        assert store.load_job("j-1")["job_id"] == "j-1"
        assert store.load_job("missing") is None
        assert [r["job_id"] for r in store.list_jobs()] == ["j-2", "j-1"]

    def test_corrupt_record_skipped(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.save_job("ok", {"job_id": "ok", "created": 1.0})
        (tmp_path / "store" / "jobs" / "bad.json").write_text("{torn")
        assert [r["job_id"] for r in store.list_jobs()] == ["ok"]

    @staticmethod
    def _versions(state="running"):
        return [
            {"job_id": "j", "state": "queued", "n": 0},
            {"job_id": "j", "state": "running", "n": 1},
            {"job_id": "j", "state": state, "n": 2},
        ]

    def test_appended_record_reads_back_as_its_last_line(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for record in self._versions():
            store.save_job("j", record)
        lines = (tmp_path / "store" / "jobs" / "j.json").read_bytes().split(b"\n")
        assert [json.loads(line) for line in lines] == self._versions()
        assert store.load_job("j") == self._versions()[-1]

    def test_record_truncated_mid_line_reads_as_the_previous_one(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for record in self._versions():
            store.save_job("j", record)
        path = tmp_path / "store" / "jobs" / "j.json"
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # a writer killed mid-append
        assert store.load_job("j") == self._versions()[1]
        path.write_bytes(data[: data.rindex(b"\n") + 1])  # only its newline
        assert store.load_job("j") == self._versions()[1]
        # The next append starts a line of its own past the torn tail.
        path.write_bytes(data[:-5])
        store.save_job("j", {"job_id": "j", "state": "running", "n": 3})
        assert store.load_job("j")["n"] == 3

    def test_one_line_record_from_before_appends_reads_unchanged(self, tmp_path):
        store = RunStore(tmp_path / "store")
        record = {"job_id": "old", "state": "running", "created": 1.0}
        (tmp_path / "store" / "jobs" / "old.json").write_text(
            json.dumps(record, sort_keys=True)  # a whole-file replace, no newline
        )
        assert store.load_job("old") == record
        store.save_job("old", {**record, "phase": "fit"})
        assert store.load_job("old") == {**record, "phase": "fit"}

    @pytest.mark.parametrize("final", TERMINAL_STATES)
    def test_finished_record_is_rewritten_as_one_line(self, tmp_path, final):
        store = RunStore(tmp_path / "store")
        path = tmp_path / "store" / "jobs" / "j.json"
        for record in self._versions(state=final):
            inode = path.stat().st_ino if path.exists() else None
            store.save_job("j", record)
        assert path.stat().st_ino != inode  # replaced, not appended to
        assert path.read_bytes() == json.dumps(
            self._versions(state=final)[-1], sort_keys=True
        ).encode("utf-8")
        assert store.load_job("j")["state"] == final

    def test_terminal_states_are_the_services_final_states(self):
        assert set(TERMINAL_STATES) == {DONE, FAILED, CANCELLED}

    def test_missing_record_file_is_rewritten_whole(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.save_job("j", self._versions()[0])
        (tmp_path / "store" / "jobs" / "j.json").unlink()
        store.save_job("j", self._versions()[1])
        assert store.load_job("j") == self._versions()[1]


# ----------------------------------------------------------------------
# Fingerprints: one canonical digest, goldens recorded before it existed
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_request_fingerprint_golden(self):
        requests = [
            TuneRequest(program="TS", size=10.0),
            TuneRequest(
                program="WC", size=20.0, n_train=60, n_trees=20, seed=4,
                patience=None, budget=30,
            ),
            TuneRequest(
                program="KM", kind="collect", n_train=40, warm_from="job-abc",
                learning_rate=0.05,
            ),
        ]
        assert [request_fingerprint(r) for r in requests] == [
            "b1875515e867230224a4070352e7fe9c3339ec54106bdbc981f0abe6a71b0201",
            "9d2f9fbef8d544322d9e12cc58753133e0ff89d72d46b411b16fbb70c58afa2d",
            "b4bb9c6df784ffb41e12406f6f081901eccb31f505d3965526d9bfe164d6cc6e",
        ]

    @pytest.mark.parametrize(
        "trace, digest",
        [
            ("rush", "391d2615e7742d49383f4c3a623cec82c9f94e7c4c5194423502b9ca5e71093a"),
            ("smoke", "f62f2e2a0b2259d06182347a37e0f4dfc56bbc9ffc02a86d4ba8148f4c767e4d"),
            ("spot", "4ef0f98de9d076cc32fd3b9442eb43b14128189d747c97826225c470f5d22950"),
        ],
    )
    def test_scenario_fingerprint_golden(self, trace, digest):
        report = ScenarioRunner().run(builtin_trace(trace), seed=3)
        assert scenario_fingerprint(report) == digest

    @pytest.mark.parametrize(
        "trace, digest",
        [
            ("rush", "1da225320c26b1c7e7da9697d0a4c032dc74085aaf4b8ebc77ce304f7b088bc5"),
            ("smoke", "6414c9d8f9f93288ac3d82f5033c43d43aec0aaf17ca0fe20c1b5273bb3c9a26"),
            ("spot", "92effc3c6a0b1c286c553a2cf93355e26aec38ea207dd4be35853686954bf432"),
        ],
    )
    def test_scenario_report_json_golden(self, trace, digest):
        """The bytes ``repro scenario run --out`` writes."""
        report = ScenarioRunner().run(builtin_trace(trace), seed=3)
        text = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        assert payload_digest(text.encode("utf-8")) == digest

    def test_report_fingerprint_golden(self):
        tuner = DacTuner(get_workload("WC"), n_train=60, n_trees=20, seed=4)
        tuner.collect()
        tuner.fit()
        report = tuner.tune(20.0, generations=10, patience=None)
        assert report_fingerprint(report) == (
            "4ff0f62132de438db1cef7269e3ad7c009fa5fff548efac481b54b8d2f32c35e"
        )

    def test_numpy_scalar_is_refused(self, terasort):
        tuner = DacTuner(terasort, n_train=30, n_trees=10, seed=0)
        tuner.collect()
        tuner.fit()
        report = tuner.tune(10.0, generations=2, patience=None)
        report = dataclasses.replace(
            report, predicted_seconds=np.float64(report.predicted_seconds)
        )
        with pytest.raises(TypeError, match="float64"):
            report_fingerprint(report)
