"""The job runner: one job, executed through checkpointable phases.

:class:`JobRunner` drives a :class:`~repro.service.jobs.JobRecord`
through the DAC pipeline against a :class:`~repro.store.RunStore`,
persisting a durable checkpoint wherever redoing the work is expensive:

* **collect** — the batch plan is a pure function of (workload, seed,
  stream), so after each per-size batch the rows gathered so far are
  stored as a column-backed training set and ``batches_done`` advances;
  a restart hands the stored set back to :meth:`DacTuner.collect`,
  which replans and skips the finished prefix.  Collect is the phase
  the paper counts in cluster-hours.
* **fit** — the finished :class:`HierarchicalModel` is stored once; a
  crash mid-fit refits from the first order.
* **search** — seconds of work, so no generation is stored; a crash
  restarts the GA.  Only a drain requested at a generation boundary
  pickles the live :class:`~repro.core.ga.GaState` (population,
  scores, history, *and the RNG mid-stream*), and the next worker
  continues the exact random sequence from it.
* **report** — stored once, at the end.

The save that closes a phase names the next one, so the stored record
shows the running phase without a write of its own.  Because every
stochastic draw in the pipeline is derived from stable keys (HM seeds
each order, the GA its stream), a resumed job's
:class:`~repro.core.tuner.TuningReport` carries the same
:func:`~repro.store.report_fingerprint` as an uninterrupted run — crash
recovery changes the cost of a run, never its answer.

Each session appends to the job's JSONL event log in the store, so
``repro trace`` (and ``--follow``) works across interruptions, and
records its substrate-execution count in ``runs_by_session`` — the
direct evidence that resuming cost strictly less than starting over.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from typing import Callable, Optional

from repro.core.collecting import Collector, TrainingSet
from repro.core.tuner import DacTuner, TuningReport
from repro.engine import (
    CachedBackend,
    ExecutionBackend,
    ExecutionError,
    InProcessBackend,
)
from repro.service.budget import BudgetedBackend, BudgetExceeded
from repro.service.health import job_progress
from repro.service.jobs import CANCELLED, DONE, FAILED, RUNNING, JobRecord
from repro.service.jobs import TuneRequest, parse_job
from repro.service.lease import Lease, LeaseLost
from repro.store import RunStore, report_fingerprint
from repro.telemetry import events as tele
from repro.telemetry.events import Telemetry
from repro.telemetry.sinks import JsonlSink
from repro.workloads import get_workload


class DrainRequested(Exception):
    """A graceful stop was requested and the current checkpoint is durable.

    Raised from inside :meth:`JobRunner._checkpoint` — i.e. strictly
    *after* the phase artifact and job record landed on disk — so the
    abandoned job is RUNNING with a complete checkpoint and no lease:
    exactly the shape :meth:`JobService.claimable` hands to the next
    worker.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"job {job_id}: drained at checkpoint boundary")


class JobRunner:
    """Executes one job at a time against a store, checkpointing as it goes.

    A checkpoint ends each collect batch, the fit and the job; the
    search checkpoints only to hand the job over on a drain.  While
    :meth:`run` drives a job, the runner holds that job's lease and
    renews it at each checkpoint.

    Parameters
    ----------
    store:
        The :class:`RunStore` holding job records, artifacts, event logs
        and the shared substrate-result cache.
    engine_factory:
        Builds the substrate backend for each job session (default: a
        fresh :class:`InProcessBackend`).  The runner wraps it with the
        store's :class:`CachedBackend` (unless ``use_cache=False``) and,
        when the request carries a budget, a :class:`BudgetedBackend`.
    use_cache:
        Share substrate results across jobs/sessions through the
        store's ``cache/`` directory.  Crash-recovery tests disable it
        to prove resumption comes from checkpoints, not cached runs.
    """

    def __init__(
        self,
        store: RunStore,
        engine_factory: Optional[Callable[[], ExecutionBackend]] = None,
        use_cache: bool = True,
    ):
        self.store = store
        self.engine_factory = engine_factory or InProcessBackend
        self.use_cache = use_cache
        #: Graceful-drain hook: when set and it returns true, the runner
        #: stops at the next checkpoint boundary (after the persist) or
        #: GA generation (after persisting its state), releases the
        #: lease and leaves the job RUNNING + resumable.  Once true, it
        #: must stay true.
        self.should_stop: Optional[Callable[[], bool]] = None
        #: Liveness hook: a :class:`~repro.service.health.HeartbeatWriter`
        #: (or anything with ``maybe_beat()``) refreshed at every
        #: checkpoint, on top of its own background thread — so a
        #: heartbeat is guaranteed fresh whenever durable progress lands.
        self.heartbeat = None
        #: The lease of the job :meth:`run` is driving (None between
        #: jobs, or for a run without one).
        self._lease: Optional[Lease] = None

    # ------------------------------------------------------------------
    def run(self, record: JobRecord, lease: Optional[Lease] = None) -> JobRecord:
        """Run ``record`` to completion (or failure), checkpointing.

        Safe to call on a fresh job or on one found mid-flight after a
        crash: every phase first reads its own durable progress.  With
        a ``lease``, every checkpoint renews it and verifies the
        fencing token; losing the lease (taken over while this worker
        was stalled) abandons the job without committing anything
        further — the usurper owns it now.
        """
        self._lease = lease
        try:
            return self._run(record)
        except LeaseLost as exc:
            # Everything after the loss was rejected before reaching
            # the store; the record on disk belongs to the new holder.
            record.error = str(exc)
            return record
        finally:
            self._lease = None
            if lease is not None:
                try:
                    lease.release()
                except OSError:  # pragma: no cover - lease dir vanished
                    pass

    def _run(self, record: JobRecord) -> JobRecord:
        record.state = RUNNING
        record.sessions += 1
        session = str(record.sessions)
        record.runs_by_session.setdefault(session, 0)
        self._save(record, engine=None, session=session)

        engine = self._build_engine(record)
        try:
            with engine, self._job_telemetry(record.job_id):
                with tele.span(
                    "job",
                    job_id=record.job_id,
                    kind=record.request.kind,
                    session=record.sessions,
                ):
                    self._execute(record, engine, session)
                    if record.state == DONE:
                        tele.event(
                            "job.completed",
                            job_id=record.job_id,
                            worker=record.worker,
                            fencing_token=record.fencing_token,
                            sessions=record.sessions,
                        )
        except DrainRequested:
            # The checkpoint that observed the stop request is already
            # durable; the record stays RUNNING with no error so any
            # worker (including a restarted this-one) can claim it.
            pass
        except BudgetExceeded as exc:
            record.state = FAILED
            record.error = str(exc)
        except ExecutionError as exc:
            record.state = FAILED
            record.error = f"substrate failure: {exc}"
        except LeaseLost:
            raise  # not a job failure: the job moved to another worker
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            record.state = FAILED
            record.error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        finally:
            self._save(record, engine, session)
        return record

    # ------------------------------------------------------------------
    def _execute(self, record: JobRecord, engine: ExecutionBackend, session: str) -> None:
        request = record.request
        tuner = DacTuner(
            get_workload(request.program),
            n_train=request.n_train,
            n_trees=request.n_trees,
            learning_rate=request.learning_rate,
            seed=request.seed,
            engine=engine,
        )
        training = self._phase_collect(record, tuner, engine, session)
        if request.kind == "collect":
            record.state = DONE
            record.result = {
                "examples": len(training),
                "training_key": record.artifact_key("training"),
                "simulated_hours": Collector.simulated_hours(training),
            }
            return

        self._phase_fit(record, tuner, engine, session)
        report = self._phase_search(record, tuner, engine, session)
        record.phase = "report"

        self._checkpoint(
            record,
            engine,
            session,
            lambda: self.store.put_report(record.artifact_key("report"), report),
        )
        record.state = DONE
        record.result = {
            "predicted_seconds": float(report.predicted_seconds),
            "fingerprint": report_fingerprint(report),
            "model_holdout_error": float(report.model_holdout_error),
            "ga_generations": report.ga.generations,
            "report_key": record.artifact_key("report"),
        }

    # -- phase: collect -------------------------------------------------
    def _phase_collect(
        self,
        record: JobRecord,
        tuner: DacTuner,
        engine: ExecutionBackend,
        session: str,
    ) -> TrainingSet:
        store = self.store
        request = record.request
        progress = record.progress.setdefault("collect", {})
        key = record.artifact_key("training")

        if progress.get("done"):
            # Completed checkpoint: map it read-only — workers on one
            # host share a single page-cache copy of the matrix.
            training = store.get_training_set(key, mode="mmap")
            if training is not None and len(training) == request.n_train:
                tuner.training_set = training
                return training
            progress.clear()  # artifact lost/torn: re-collect

        training = None
        if request.warm_from and not progress.get("batches_done"):
            training = self._warm_training(request)
        if training is not None:
            store.put_training_set(key, training)
            progress["warm_from"] = request.warm_from
            tele.event(
                "job.warm_start",
                job_id=record.job_id,
                source=request.warm_from,
                artifact="training_set",
            )
            tuner.training_set = training
        else:
            def checkpoint(training, batches_done, total_batches):
                def persist():
                    store.put_training_set(key, training)
                    progress["total_batches"] = total_batches
                    progress["batches_done"] = batches_done

                self._checkpoint(record, engine, session, persist)

            # Resume from whatever batch prefix the stored set holds: a
            # crash between its put and the record save leaves it one
            # batch ahead of ``batches_done``.  Anything else starts over.
            training = tuner.collect(
                resume_from=store.get_training_set(key), checkpoint=checkpoint
            )
        # The save that closes collect names a tune job's fit as running.
        progress["done"] = True
        if request.kind == "tune":
            record.phase = "fit"
        self._save(record, engine, session)
        return training

    def _warm_training(self, request: TuneRequest) -> Optional[TrainingSet]:
        """A prior job's complete training set, when it fits this request."""
        prior = self._load_record(request.warm_from)
        if prior is None or not prior.progress.get("collect", {}).get("done"):
            return None
        if (
            prior.request.program != request.program
            or prior.request.seed != request.seed
            or prior.request.n_train != request.n_train
        ):
            return None
        return self.store.get_training_set(
            prior.artifact_key("training"), mode="mmap"
        )

    # -- phase: fit -----------------------------------------------------
    def _phase_fit(
        self,
        record: JobRecord,
        tuner: DacTuner,
        engine: ExecutionBackend,
        session: str,
    ) -> None:
        store = self.store
        request = record.request
        progress = record.progress.setdefault("fit", {})
        key = record.artifact_key("model")

        if progress.get("done"):
            # Completed checkpoint: the node tables come back as
            # read-only memmap views — zero deserialization.
            model = store.get_model(key, mode="mmap")
            if model is not None:
                tuner.model = model
                return
            progress.clear()  # artifact lost/torn: refit

        model = self._warm_model(request)
        if model is None:
            model = tuner.fit()
        else:
            progress["warm_from"] = request.warm_from
            tele.event(
                "job.warm_start",
                job_id=record.job_id,
                source=request.warm_from,
                artifact="model",
            )
            tuner.model = model
        # The fit's one checkpoint; its save names the search as running.
        progress["done"] = True
        record.phase = "search"
        self._checkpoint(
            record, engine, session, lambda: store.put_model(key, model)
        )

    def _warm_model(self, request: TuneRequest) -> Optional[object]:
        """A prior job's finished model, when the model parameters match."""
        prior = self._load_record(request.warm_from)
        if prior is None or not prior.progress.get("fit", {}).get("done"):
            return None
        if not request.model_params_match(prior.request):
            return None
        return self.store.get_model(prior.artifact_key("model"), mode="mmap")

    # -- phase: search --------------------------------------------------
    def _phase_search(
        self,
        record: JobRecord,
        tuner: DacTuner,
        engine: ExecutionBackend,
        session: str,
    ) -> TuningReport:
        store = self.store
        request = record.request
        progress = record.progress.setdefault("search", {})
        key = record.artifact_key("ga")

        # A GA state is stored only when a worker drains mid-search.
        state = None
        if progress.get("generation") is not None:
            state = store.get_ga_state(key)

        def on_generation(live_state):
            # Redoing a search costs seconds, so only a drain request
            # stores its state; the checkpoint then raises DrainRequested.
            if self.should_stop is None or not self.should_stop():
                return

            def persist():
                store.put_ga_state(key, live_state)
                progress["generation"] = live_state.generation

            self._checkpoint(record, engine, session, persist)

        report = tuner.tune(
            request.size,
            generations=request.generations,
            population_size=request.population_size,
            patience=request.patience,
            ga_state=state,
            on_generation=on_generation,
        )
        progress["done"] = True
        progress["generation"] = report.ga.generations
        return report

    # -- engine / telemetry / persistence helpers -----------------------
    def _build_engine(self, record: JobRecord) -> ExecutionBackend:
        engine = self.engine_factory()
        if self.use_cache:
            engine = CachedBackend(engine, directory=self.store.cache_dir)
        if record.request.budget is not None:
            engine = BudgetedBackend(engine, record.request.budget)
        return engine

    @contextmanager
    def _job_telemetry(self, job_id: str):
        """Record this session of the job in its own per-store JSONL log.

        The job's pipeline replaces whichever one is installed (a
        worker's, or the CLI's ``--telemetry``) for the duration, so the
        job log is its only writer, and each session opens with its own
        ``meta`` record.  The log is appended and flushed per record, so
        every session of a resumed job lands in one file that ``repro
        trace --follow`` can tail live.
        """
        session = Telemetry(
            [JsonlSink(self.store.event_log_path(job_id), append=True, live=True)]
        )
        previous = tele.install(session)
        try:
            yield
        finally:
            tele.install(previous)
            session.close()

    def _load_record(self, job_id: Optional[str]) -> Optional[JobRecord]:
        return parse_job(self.store.load_job(job_id)) if job_id else None

    def _checkpoint(
        self,
        record: JobRecord,
        engine: Optional[ExecutionBackend],
        session: str,
        persist: Callable[[], None],
    ) -> None:
        """Run one artifact write + record save, timing the overhead.

        The accumulated ``checkpoint_wall_seconds`` is what
        ``benchmarks/bench_store.py`` reads to bound store overhead.
        """
        start = time.perf_counter()
        persist()
        self._save(record, engine, session, wall_start=start)
        progress = job_progress(record)
        tele.event(
            "job.progress",
            job_id=record.job_id,
            phase=progress["phase"],
            done=progress["done"],
            total=progress["total"],
            fraction=progress["fraction"],
            session=session,
        )
        if self.should_stop is not None and self.should_stop():
            tele.event(
                "job.drained",
                job_id=record.job_id,
                phase=record.phase,
                session=session,
            )
            raise DrainRequested(record.job_id)

    def _save(
        self,
        record: JobRecord,
        engine: Optional[ExecutionBackend],
        session: str,
        wall_start: Optional[float] = None,
    ) -> None:
        start = time.perf_counter() if wall_start is None else wall_start
        if engine is not None:
            stats = engine.stats
            record.runs_by_session[session] = int(stats.runs - stats.cache_hits)
        lease = self._lease
        if lease is not None:
            lease.renew()  # LeaseLost when the job was taken over
            self._guard_fencing(record, lease)
            record.fencing_token = lease.token
            record.worker = lease.worker
        if self.heartbeat is not None:
            self.heartbeat.maybe_beat()
        record.touch()
        self.store.save_job(record.job_id, record.to_dict())
        record.checkpoint_wall_seconds += time.perf_counter() - start

    def _guard_fencing(self, record: JobRecord, lease: Lease) -> None:
        """Refuse to commit over a higher token's (or a cancelled) record.

        The lease renewal above already rejects most stale writers; this
        closes the remaining window where a stealer replaced the lease
        *after* our renewal read, by checking the durable record itself
        — the newest committed fencing token always wins.
        """
        data = self.store.load_job(record.job_id)
        if data is None:
            return
        committed = int(data.get("fencing_token") or 0)
        if committed > lease.token:
            raise LeaseLost(
                f"job {record.job_id}: committed fencing token {committed} "
                f"outranks ours ({lease.token}); dropping stale write"
            )
        if data.get("state") == CANCELLED:
            raise LeaseLost(
                f"job {record.job_id}: cancelled by another process"
            )
