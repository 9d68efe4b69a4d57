"""The job service: data model, scheduling, budgets, warm starts, resume."""

from __future__ import annotations

import json

import pytest

from repro.core.collecting import Collector, TrainingSet
from repro.core.tuner import DacTuner
from repro.engine import InProcessBackend
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    AdmissionError,
    BudgetedBackend,
    BudgetExceeded,
    JobRecord,
    JobService,
    TuneRequest,
)
from repro.io.codecs import encode_training_set
from repro.store import RunStore, payload_digest, report_fingerprint
from repro.workloads import get_workload

#: Tiny-but-complete pipeline parameters shared by the tests here.
FAST = dict(n_train=40, n_trees=15, generations=3, patience=None, seed=2)


#: SHA-256 of each per-batch checkpoint of a TS collect job (30 examples,
#: seed 1), recorded when checkpoints were still checked against sets
#: encoded row by row from per-row objects.
COLLECT_JOB_CHECKPOINT_DIGESTS = [
    "d0beae6c2fb006a2ca89a8599589007acb9aa262a489f575b7a2c2dc6ad68242",
    "72c3566a1c86f02ae854fdbb0b6eb206bea9ede9383d18f8f3cfcad15f08737d",
    "520193970d9964af5989b25dec9ae5b067fd32945af3ed24d6721a462c6ba8f4",
    "f20775cea543745b38f8e3ae8742973346ed8f8c181c1226dc2fa6041852a404",
    "32acd785d9fdc8d3d9a4617014824aaa2b7b36cbc87e87bb11e744f70c42ff6f",
    "91a07135fe0fdd276abd31ed5762c1166e54c1e7cf40c9b4527184974dc9f89f",
    "f7719e0df32176d12d5d78283ab51d29c0bf0cd2ee1b6fd5b413b1890279f0eb",
    "789adc5dd832847c2cb2150a41b43fccd5997c85129b36f0034b53e509516622",
    "c8f0e44b9fdb7e196dd32f90c324832113b701b7326398fcbfe4e78a765343ef",
    "8376c87fef4ac9aa0f40aca41e179d8d5d8e8bdf9f8873b82fe9cf59cf4e960d",
]


def _request(**overrides) -> TuneRequest:
    return TuneRequest(**{"program": "TS", "size": 10.0, **FAST, **overrides})


def _collect(seed: int) -> TuneRequest:
    """A collect job small enough to run in a few milliseconds."""
    return TuneRequest(program="TS", kind="collect", n_train=5, seed=seed)


def _reference_report(request: TuneRequest):
    tuner = DacTuner(
        get_workload(request.program),
        n_train=request.n_train,
        n_trees=request.n_trees,
        learning_rate=request.learning_rate,
        seed=request.seed,
    )
    tuner.collect()
    tuner.fit()
    return tuner.tune(
        request.size, generations=request.generations, patience=request.patience
    )


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------
class TestTuneRequest:
    def test_round_trip(self):
        request = _request(budget=50, warm_from="prior-1")
        assert TuneRequest.from_dict(request.to_dict()) == request

    def test_unknown_keys_ignored(self):
        data = {**_request().to_dict(), "from_the_future": 1}
        assert TuneRequest.from_dict(data) == _request()

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TuneRequest(program="TS", kind="nope")
        with pytest.raises(ValueError, match="size"):
            TuneRequest(program="TS", kind="tune", size=0.0)
        with pytest.raises(ValueError, match="budget"):
            _request(budget=0)
        # collect jobs need no size
        TuneRequest(program="TS", kind="collect")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_train", 1.5),
            ("seed", "7"),
            ("size", True),
            ("generations", "x"),
            ("patience", 2.5),
            ("size", float("nan")),
            ("size", float("inf")),
            ("learning_rate", float("-inf")),
            ("budget", True),
            ("n_trees", None),
            ("program", 7),
            ("warm_from", 3),
        ],
    )
    def test_malformed_values_refused(self, field, value):
        with pytest.raises((TypeError, ValueError), match=field):
            TuneRequest.from_dict({**_request().to_dict(), field: value})


class TestJobRecord:
    def test_round_trip(self):
        record = JobRecord.new(_request(), priority=3)
        record.progress["collect"] = {"batches_done": 2}
        record.runs_by_session["1"] = 12
        loaded = JobRecord.from_dict(record.to_dict())
        assert loaded.request == record.request
        assert loaded.priority == 3
        assert loaded.progress == record.progress
        assert loaded.runs_by_session == {"1": 12}

    def test_resumable_states(self):
        record = JobRecord.new(_request())
        for state, resumable in [
            (QUEUED, True), ("running", True), (FAILED, True),
            (DONE, False), (CANCELLED, False),
        ]:
            record.state = state
            assert record.resumable is resumable


# ----------------------------------------------------------------------
# Scheduling and admission
# ----------------------------------------------------------------------
class TestScheduling:
    def test_priority_then_fifo(self, tmp_path):
        """pending(), claimable(), run_pending() and resume_all() share
        one order: highest priority first, FIFO within a priority."""
        service = JobService(tmp_path / "store")
        ran = []
        run = service.runner.run

        def recording_run(record, lease=None):
            ran.append(record.job_id)
            return run(record, lease=lease)

        service.runner.run = recording_run

        def submit_four():
            low = service.submit(_collect(seed=1), priority=0)
            high = service.submit(_collect(seed=2), priority=5)
            mid = service.submit(_collect(seed=3), priority=1)
            later_low = service.submit(_collect(seed=4), priority=0)
            return [high.job_id, mid.job_id, low.job_id, later_low.job_id]

        order = submit_four()
        assert [j.job_id for j in service.pending()] == order
        assert [j.job_id for j in service.claimable()] == order
        finished = service.run_pending()
        assert ran == order
        assert [r.job_id for r in finished] == order
        assert all(r.state == DONE for r in finished)

        ran.clear()
        order = submit_four()
        finished = service.resume_all()
        assert ran == order
        assert [r.job_id for r in finished] == order

    def test_admission_control(self, tmp_path):
        service = JobService(tmp_path / "store", max_queued=2)
        service.submit(_request())
        service.submit(_request(seed=3))
        with pytest.raises(AdmissionError, match="queue full"):
            service.submit(_request(seed=4))

    def test_get_unknown_job(self, tmp_path):
        with pytest.raises(KeyError):
            JobService(tmp_path / "store").get("nope")

    def test_cancel(self, tmp_path):
        service = JobService(tmp_path / "store")
        record = service.submit(_request())
        service.cancel(record.job_id)
        assert service.get(record.job_id).state == CANCELLED
        assert service.pending() == []
        with pytest.raises(ValueError, match="cancelled"):
            service.resume(record.job_id)


# ----------------------------------------------------------------------
# Execution: full pipeline through the service
# ----------------------------------------------------------------------
class TestExecution:
    def test_tune_job_matches_direct_tuner(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())
        finished = service.run_pending()[0]
        assert finished.state == DONE
        reference = _reference_report(record.request)
        assert finished.result["fingerprint"] == report_fingerprint(reference)
        assert finished.runs_by_session == {"1": FAST["n_train"]}
        # every phase left a durable artifact
        store = service.store
        assert store.get_training_set(record.artifact_key("training")) is not None
        assert store.get_model(record.artifact_key("model")) is not None
        assert store.get_report(record.artifact_key("report")) is not None
        assert store.event_log_path(record.job_id).exists()

    def test_collect_job(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(
            TuneRequest(program="TS", kind="collect", n_train=30, seed=1)
        )
        finished = service.run_pending()[0]
        assert finished.state == DONE
        assert finished.result["examples"] == 30
        key = record.artifact_key("training")
        training = service.store.get_training_set(key)
        assert len(training) == 30

        # Every per-batch checkpoint (one index line each) is the
        # artifact a set built from the rows so far would give.
        index = (service.store.root / "index.jsonl").read_text().splitlines()
        written = [e["digest"] for e in map(json.loads, index) if e["key"] == key]
        collector = Collector(get_workload("TS"), seed=1)
        rows = collector.collect(30, stream="train").rows()
        expected, done = [], 0
        for batch in collector.plan(30, stream="train"):
            done += len(batch.requests)
            prefix = TrainingSet.from_rows(collector.space, rows[:done])
            expected.append(payload_digest(encode_training_set(prefix)))
        assert len(expected) > 1 and written == expected
        assert written == COLLECT_JOB_CHECKPOINT_DIGESTS

    def test_budget_exhaustion_then_resume(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request(budget=10))
        failed = service.run_pending()[0]
        assert failed.state == FAILED
        assert "budget" in failed.error
        assert failed.progress["collect"]["batches_done"] >= 1
        assert not failed.progress["collect"].get("done")

        # a fresh service (fresh process, in spirit) resumes to done
        resumed = JobService(tmp_path / "store", use_cache=False).resume(
            record.job_id, budget=10_000
        )
        assert resumed.state == DONE
        reference = _reference_report(record.request)
        assert resumed.result["fingerprint"] == report_fingerprint(reference)
        total = sum(resumed.runs_by_session.values())
        assert total == FAST["n_train"]  # nothing re-executed
        assert resumed.runs_by_session["2"] < FAST["n_train"]

    def test_resume_all_picks_up_crashed_running_job(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request(budget=10))
        service.run_pending()
        # forge the crash: a SIGKILL'd worker leaves state "running"
        data = service.store.load_job(record.job_id)
        data["state"] = "running"
        data["request"]["budget"] = None
        service.store.save_job(record.job_id, data)
        finished = JobService(tmp_path / "store", use_cache=False).resume_all()
        assert [j.state for j in finished] == [DONE]

    def test_resume_of_done_job_is_a_noop(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())
        first = service.run_pending()[0]
        again = service.resume(record.job_id)
        assert again.state == DONE
        assert again.sessions == first.sessions  # did not run again

    def test_warm_start_reuses_training_and_model(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        first = service.submit(_request())
        service.run_pending()
        # same modeling params, different target size: reuses set + model
        warm = service.submit(_request(size=40.0, warm_from=first.job_id))
        finished = service.resume(warm.job_id)
        assert finished.state == DONE
        assert finished.runs_by_session == {"1": 0}  # zero substrate runs
        assert finished.progress["collect"]["warm_from"] == first.job_id
        assert finished.progress["fit"]["warm_from"] == first.job_id
        # and the answer equals tuning the same model directly
        reference = _reference_report(warm.request)
        assert finished.result["fingerprint"] == report_fingerprint(reference)

    def test_warm_start_refits_when_model_params_differ(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        first = service.submit(_request())
        service.run_pending()
        warm = service.submit(
            _request(n_trees=20, warm_from=first.job_id)  # different model
        )
        finished = service.resume(warm.job_id)
        assert finished.state == DONE
        assert finished.runs_by_session == {"1": 0}  # set still reused
        assert "warm_from" not in finished.progress["fit"]  # model refitted

    def test_shared_cache_across_jobs(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=True)
        a = service.submit(_request())
        service.run_pending()
        b = service.submit(_request(generations=2, seed=2, size=40.0))
        service.run_pending()
        done_b = service.get(b.job_id)
        # same (program, seed, n_train) collection: all 40 runs were hits
        assert done_b.state == DONE
        assert done_b.runs_by_session == {"1": 0}
        assert service.get(a.job_id).runs_by_session == {"1": FAST["n_train"]}

    def test_job_stores_one_model_and_no_ga_state(self, tmp_path):
        """Fit and search are cheap to redo: a job that is not drained
        stores its model once, after the fit, and never a GA state."""
        service = JobService(tmp_path / "store", use_cache=False)
        service.submit(_request())
        assert service.run_pending()[0].state == DONE
        index = (service.store.root / "index.jsonl").read_text().splitlines()
        kinds = [entry["kind"] for entry in map(json.loads, index)]
        assert kinds.count("model") == 1
        assert "ga_state" not in kinds
        assert kinds[-2:] == ["model", "report"]

    def test_stored_record_names_the_running_phase(self, tmp_path, monkeypatch):
        """The save that closes collect names the fit, and the model
        checkpoint names the search: no save of its own announces a
        phase."""
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())
        fit, tune, save_job = DacTuner.fit, DacTuner.tune, RunStore.save_job
        stored, saves = {}, []

        def stored_phase():
            return service.store.load_job(record.job_id)["phase"]

        def fitting(self, *args, **kwargs):
            stored["fit"] = stored_phase()
            return fit(self, *args, **kwargs)

        def tuning(self, *args, **kwargs):
            stored["search"] = stored_phase()
            return tune(self, *args, **kwargs)

        def saving(self, job_id, data):
            saves.append(data["phase"])
            return save_job(self, job_id, data)

        monkeypatch.setattr(DacTuner, "fit", fitting)
        monkeypatch.setattr(DacTuner, "tune", tuning)
        monkeypatch.setattr(RunStore, "save_job", saving)
        done = service.run_pending()[0]
        assert done.state == DONE
        assert stored == {"fit": "fit", "search": "search"}
        # The start and one save per batch, then the closes of collect,
        # fit and search, and the final state.
        batches = done.progress["collect"]["total_batches"]
        assert saves == (
            ["collect"] * (1 + batches) + ["fit", "search", "report", "report"]
        )


# ----------------------------------------------------------------------
# Budgeted backend
# ----------------------------------------------------------------------
class TestBudget:
    def test_budget_counts_only_executions(self):
        from repro.engine import CachedBackend, ExecRequest
        from repro.core.baselines import default_configuration

        workload = get_workload("TS")
        request = ExecRequest(
            job=workload.job(10.0), config=default_configuration()
        )
        engine = BudgetedBackend(CachedBackend(InProcessBackend()), budget=2)
        engine.submit([request])
        # the repeat is a cache hit: free, so it does not spend budget
        engine.submit([request])
        assert engine.executed == 1
        other = ExecRequest(job=workload.job(20.0), config=default_configuration())
        engine.submit([other])
        assert engine.executed == 2
        # the gate is checked between batches: once spent, no more batches
        with pytest.raises(BudgetExceeded):
            engine.submit([request])
        engine.close()

    def test_unlimited_budget(self):
        engine = BudgetedBackend(InProcessBackend(), budget=None)
        assert engine.submit([]) == []
        engine.close()

    def test_budget_reaches_zero_mid_batch(self):
        """The gate sits between batches: a batch in flight completes
        even when it spends the last of the budget (and then some)."""
        from repro.engine import ExecRequest
        from repro.core.baselines import default_configuration

        workload = get_workload("TS")
        batch = [
            ExecRequest(job=workload.job(size), config=default_configuration())
            for size in (10.0, 20.0)
        ]
        engine = BudgetedBackend(InProcessBackend(), budget=1)
        assert len(engine.submit(batch)) == 2  # in-flight batch completes
        assert engine.executed == 2  # documented overshoot
        with pytest.raises(BudgetExceeded, match="2 executed, budget 1"):
            engine.submit(batch[:1])
        engine.close()

    def test_exhaustion_exactly_at_batch_boundary(self, tmp_path):
        """Budget == first collect batch: the budget hits zero at the
        very instant a checkpoint lands, and the next batch's submit —
        not some mid-batch accident — fails the job."""
        request = _request()
        batches = Collector(
            get_workload(request.program), seed=request.seed
        ).plan(request.n_train, stream="train")
        assert len(batches) >= 2  # boundary needs a next batch to refuse
        first = len(batches[0].requests)

        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request(budget=first))
        (failed,) = service.run_pending()
        assert failed.state == FAILED
        assert "budget exhausted" in failed.error
        assert failed.progress["collect"]["batches_done"] == 1
        assert failed.runs_by_session == {"1": first}  # spent exactly

        # -- resume with a fresh budget: finishes, and the answer is the
        # same as an uninterrupted run's (exhaustion is a pause, not a
        # perturbation).
        resumed = service.resume(record.job_id, budget=request.n_train)
        assert resumed.state == DONE
        runs = {int(k): v for k, v in resumed.runs_by_session.items()}
        assert runs[2] == request.n_train - first  # only the suffix
        assert sum(runs.values()) == request.n_train
        assert resumed.result["fingerprint"] == report_fingerprint(
            _reference_report(request)
        )


# ----------------------------------------------------------------------
# Graceful shutdown (``repro worker --drain``)
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_mid_job_leaves_running_and_claimable(self, tmp_path):
        """Tripping the drain hook mid-run stops at the next checkpoint:
        the record stays RUNNING with no error, the lease is released,
        and the worker loop reports nothing finished."""
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())
        calls = {"n": 0}

        def hook():
            calls["n"] += 1
            return calls["n"] > 3

        finished = service.work(poll_interval=0.01, idle_polls=2, drain=hook)
        assert finished == []
        drained = service.get(record.job_id)
        assert drained.state == RUNNING
        assert drained.error is None
        assert drained.progress["collect"]["batches_done"] >= 1
        assert service.leases.holder(record.job_id) is None  # claimable

        # A fresh worker takes over and lands on the reference answer.
        other = JobService(tmp_path / "store", use_cache=False, worker_id="w2")
        done = other.work(poll_interval=0.01, idle_polls=3)
        assert [job.job_id for job in done] == [record.job_id]
        assert done[0].state == DONE
        assert done[0].result["fingerprint"] == report_fingerprint(
            _reference_report(_request())
        )

    def test_drain_before_any_job_runs_nothing(self, tmp_path):
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())
        finished = service.work(poll_interval=0.01, drain=lambda: True)
        assert finished == []
        assert service.get(record.job_id).state == QUEUED

    def test_drain_at_a_ga_generation_stores_one_state(
        self, tmp_path, monkeypatch
    ):
        """A drain tripped mid-search stores the live GA state once and
        leaves the job RUNNING with no lease; the next worker continues
        that state, stepping only the remaining generations, to the
        uninterrupted run's fingerprint."""
        from repro.core.ga import GeneticAlgorithm

        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())
        step, steps = GeneticAlgorithm.step, []

        def counting(self, state, fitness):
            steps.append(state.generation)
            return step(self, state, fitness)

        monkeypatch.setattr(GeneticAlgorithm, "step", counting)
        finished = service.work(poll_interval=0.01, idle_polls=2,
                                drain=lambda: len(steps) >= 2)
        assert finished == []
        paused = service.get(record.job_id)
        assert paused.state == RUNNING
        assert paused.error is None
        assert paused.phase == "search"
        assert paused.progress["search"] == {"generation": 2}
        assert service.leases.holder(record.job_id) is None
        index = (service.store.root / "index.jsonl").read_text().splitlines()
        kinds = [entry["kind"] for entry in map(json.loads, index)]
        assert kinds.count("ga_state") == 1

        steps.clear()
        other = JobService(tmp_path / "store", use_cache=False, worker_id="w2")
        done = other.work(poll_interval=0.01, idle_polls=3)
        assert [job.job_id for job in done] == [record.job_id]
        assert done[0].state == DONE
        assert steps == list(range(2, FAST["generations"]))
        assert done[0].result["fingerprint"] == report_fingerprint(
            _reference_report(_request())
        )

    def test_old_path_checkpoint_resumes_to_same_fingerprint(
        self, tmp_path, monkeypatch
    ):
        """A worker that pickled its model checkpoint (the store's old
        fallback for models that did not lower to blob sections) drains
        at the fit's one checkpoint.  The pickle reads as absent, so the
        next worker refits and finishes the job to the uninterrupted
        run's fingerprint."""
        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(_request())

        def drained_after_fit():
            data = service.store.load_job(record.job_id) or {}
            return bool(data.get("progress", {}).get("fit", {}).get("done"))

        with monkeypatch.context() as patched:
            patched.setattr(
                RunStore,
                "put_model",
                lambda self, key, model: self.put_object(key, model, kind="model"),
            )
            service.work(poll_interval=0.01, idle_polls=2,
                         drain=drained_after_fit)
        paused = service.get(record.job_id)
        assert paused.state == RUNNING
        assert paused.progress["fit"]["done"]
        assert paused.phase == "search"

        key = record.artifact_key("model")
        assert service.store.entry(key)["kind"] == "model"
        for mode in ("copy", "mmap"):
            assert service.store.get_model(key, mode=mode) is None

        other = JobService(tmp_path / "store", use_cache=False, worker_id="w2")
        done = other.work(poll_interval=0.01, idle_polls=3)
        assert [job.job_id for job in done] == [record.job_id]
        assert done[0].state == DONE
        assert done[0].result["fingerprint"] == report_fingerprint(
            _reference_report(_request())
        )
