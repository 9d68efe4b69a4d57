"""Shared-cluster scenarios: N jobs contending for one executor pool.

The paper (and the rest of ``sparksim``) measures one job at a time on
an idle cluster.  This module models the situation the tuning service
actually faces: jobs arrive over time (:mod:`repro.sparksim.arrivals`),
queue for executors under a FIFO or fair policy, slow each other down
through shared I/O, run on heterogeneously fast nodes, straggle, and
occasionally lose executors to spot revocations.

The model is deliberately two-level.  Each job's *isolated* behaviour
comes from one ordinary :class:`~repro.sparksim.simulator.SparkSimulator`
run (executed through the engine, so backends and caches apply); the
scenario layer then replays those jobs as fluid work against the shared
pool with a piecewise-constant-rate event loop: between events a job
with ``granted`` of its ``demand`` slots progresses at

    rate = (granted / demand) * node_speed
           / (straggler_factor * (1 + c * io_fraction * others / slots))

so ``finish - start == isolated seconds`` exactly when a job runs alone
at full demand on unit-speed nodes.  Everything stochastic was drawn at
trace-generation time, which makes :func:`simulate` pure: one
``(TraceSpec, seed)`` pair produces a bit-identical
:class:`ScenarioReport` on any backend — :func:`scenario_fingerprint`
is the equality test, mirroring the store's ``report_fingerprint``.

:class:`InterferenceBackend` closes the loop back to the tuner: it is
an :class:`~repro.engine.backends.ExecutionBackend` that rewrites every
measurement into the target job's completion time (queueing included)
when injected into a fixed background scenario — so the unchanged DAC
collect→fit→search pipeline tunes *under interference*.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.space import ConfigurationSpace
from repro.engine.backends import ExecutionBackend, InProcessBackend
from repro.engine.request import ExecOutcome, ExecRequest, require_success
from repro.sparksim.arrivals import (
    FAIR,
    FIFO,
    JobTemplate,
    Revocation,
    Trace,
    TraceSpec,
    generate_trace,
    resolve_revocations,
)
from repro.sparksim.cluster import PAPER_CLUSTER, ClusterSpec
from repro.sparksim.config import SparkConf
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.sparksim.events import (
    SCENARIO_JOB_ARRIVED,
    SCENARIO_JOB_FINISHED,
    SCENARIO_JOB_STARTED,
    SCENARIO_REVOCATION,
    SCENARIO_SPAN,
)
from repro.store.artifacts import canonical_digest, exact
from repro.telemetry import events as tele

#: Relative tolerance for "this job's remaining work is zero".
_FINISH_EPS = 1e-9

Observer = Callable[..., None]


# ----------------------------------------------------------------------
# The pure core: loads, allocation, and the event loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobLoad:
    """One job as the shared pool sees it.

    ``isolated_s`` is the job's run time alone at full ``demand`` on
    unit-speed nodes (its total work, in seconds); ``io_fraction`` is
    the share of its core-seconds spent on disk/shuffle, which sets how
    hard co-runners hurt it.
    """

    job_id: str
    arrival_s: float
    demand: int
    isolated_s: float
    straggler_factor: float = 1.0
    io_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.demand < 1:
            raise ValueError(f"{self.job_id}: demand must be >= 1")
        if self.isolated_s <= 0:
            raise ValueError(f"{self.job_id}: isolated_s must be positive")
        if self.arrival_s < 0:
            raise ValueError(f"{self.job_id}: arrival_s must be >= 0")
        if self.straggler_factor < 1.0:
            raise ValueError(f"{self.job_id}: straggler_factor must be >= 1")
        if not 0.0 <= self.io_fraction <= 1.0:
            raise ValueError(f"{self.job_id}: io_fraction must be in [0, 1]")


@dataclass(frozen=True)
class SimOutcome:
    """What the event loop observed for one job."""

    job_id: str
    start_s: float
    finish_s: float
    busy_executor_s: float
    revocation_hits: int


def allocate(
    jobs: Sequence[Tuple[str, int, bool]], capacity: int, policy: str
) -> Dict[str, int]:
    """Grant executors to arrived jobs, in arrival order.

    ``jobs`` is ``(job_id, demand, already_started)`` triples.  FIFO
    gives each job its full capped demand in order and stops granting
    *unstarted* jobs at the first one that does not fit (head-of-line
    queueing); already-started jobs degrade gracefully to whatever is
    free instead of being paused outright (what matters under
    revocation).  FAIR water-fills one slot at a time, round-robin in
    arrival order, capped at each job's demand.
    """
    grants: Dict[str, int] = {job_id: 0 for job_id, _, _ in jobs}
    if len(grants) != len(jobs):
        raise ValueError("duplicate job ids in allocation request")
    if capacity <= 0:
        return grants
    free = capacity
    if policy == FIFO:
        blocked = False
        for job_id, demand, started in jobs:
            want = min(demand, capacity)
            if started:
                granted = min(want, free)
                grants[job_id] = granted
                free -= granted
            elif not blocked:
                if want <= free:
                    grants[job_id] = want
                    free -= want
                else:
                    blocked = True
    elif policy == FAIR:
        want = {job_id: min(demand, capacity) for job_id, demand, _ in jobs}
        progress = True
        while free > 0 and progress:
            progress = False
            for job_id, _, _ in jobs:
                if free == 0:
                    break
                if grants[job_id] < want[job_id]:
                    grants[job_id] += 1
                    free -= 1
                    progress = True
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return grants


def simulate(
    loads: Sequence[JobLoad],
    slots: int,
    policy: str = FIFO,
    revocations: Sequence[Revocation] = (),
    interference_coefficient: float = 0.0,
    slot_speeds: Sequence[float] = (),
    rework: float = 0.5,
    observer: Optional[Observer] = None,
) -> Tuple[List[SimOutcome], float]:
    """Run the shared-pool event loop; returns per-job outcomes plus the
    pool's total busy executor-seconds (accumulated independently of the
    per-job figures, so conservation is a checkable property rather than
    an identity by construction).

    Pure: no clocks, no RNG.  ``observer(kind, **fields)``, if given,
    sees every ``arrived``/``started``/``finished``/``revocation`` event
    plus one ``alloc`` record per scheduling decision.
    """
    if slots < 1:
        raise ValueError("pool needs at least one slot")
    speeds = list(slot_speeds) if slot_speeds else [1.0] * slots
    if len(speeds) != slots:
        raise ValueError("slot_speeds must have one entry per slot")

    order = sorted(loads, key=lambda load: (load.arrival_s, load.job_id))
    state = {
        load.job_id: {
            "load": load,
            "remaining": load.isolated_s,
            "busy": 0.0,
            "started": None,
            "finished": None,
            "hits": 0,
        }
        for load in order
    }
    if len(state) != len(order):
        raise ValueError("duplicate job ids in loads")

    def emit(kind: str, **fields: object) -> None:
        if observer is not None:
            observer(kind, **fields)

    boundaries = sorted(
        {load.arrival_s for load in order}
        | {r.at_s for r in revocations}
        | {r.end_s for r in revocations}
    )
    revocation_starts = {r.at_s for r in revocations}

    t = 0.0
    pool_busy = 0.0
    announced: set = set()
    last_grants: Dict[str, int] = {}
    rework_due = False

    budget = 1000 + 200 * (len(order) + len(revocations))
    for _ in range(budget):
        for load in order:
            if load.arrival_s <= t and load.job_id not in announced:
                announced.add(load.job_id)
                emit("arrived", t=load.arrival_s, job=load.job_id)
        if all(st["finished"] is not None for st in state.values()):
            break

        revoked = sum(r.slots for r in revocations if r.at_s <= t < r.end_s)
        capacity = max(0, slots - revoked)
        active = [
            load
            for load in order
            if load.arrival_s <= t and state[load.job_id]["finished"] is None
        ]
        grants = allocate(
            [
                (
                    load.job_id,
                    load.demand,
                    state[load.job_id]["started"] is not None,
                )
                for load in active
            ],
            capacity,
            policy,
        )

        if rework_due:
            # A revocation just landed: jobs that lost part of their
            # share redo a fraction of the work completed on it.
            for load in active:
                st = state[load.job_id]
                old = last_grants.get(load.job_id, 0)
                new = grants.get(load.job_id, 0)
                done = load.isolated_s - st["remaining"]
                if old > 0 and new < old and done > 0:
                    lost = (old - new) / old
                    st["remaining"] = min(
                        load.isolated_s, st["remaining"] + rework * done * lost
                    )
                    st["hits"] += 1
            rework_due = False

        # Contiguous slot assignment from index 0 (revocation removes
        # the top of the range), so a grant's speed is the mean of the
        # node blocks it actually occupies.
        cursor = 0
        speed_of: Dict[str, float] = {}
        for load in active:
            granted = grants[load.job_id]
            if granted > 0:
                block = speeds[cursor : cursor + granted]
                speed_of[load.job_id] = sum(block) / granted
                cursor += granted

        for load in active:
            st = state[load.job_id]
            if grants[load.job_id] > 0 and st["started"] is None:
                st["started"] = t
                emit(
                    "started",
                    t=t,
                    job=load.job_id,
                    granted=grants[load.job_id],
                    queue_s=t - load.arrival_s,
                )
        emit("alloc", t=t, capacity=capacity, grants=dict(grants))

        total_granted = sum(grants.values())
        rates: Dict[str, float] = {}
        for load in active:
            granted = grants[load.job_id]
            if granted == 0:
                continue
            others = total_granted - granted
            contention = 1.0 + interference_coefficient * load.io_fraction * (
                others / slots
            )
            rates[load.job_id] = (
                (granted / load.demand)
                * speed_of[load.job_id]
                / (load.straggler_factor * contention)
            )

        t_boundary = math.inf
        for b in boundaries:
            if b > t:
                t_boundary = b
                break
        completions = {
            job_id: t + state[job_id]["remaining"] / rate
            for job_id, rate in rates.items()
            if rate > 0
        }
        t_next = min([t_boundary, *completions.values()])
        if math.isinf(t_next):
            raise RuntimeError(
                "scenario deadlock: unfinished jobs but no runnable work "
                "and no future event"
            )

        dt = max(0.0, t_next - t)
        for load in active:
            granted = grants[load.job_id]
            if granted == 0:
                continue
            st = state[load.job_id]
            st["busy"] += granted * dt
            st["remaining"] = max(0.0, st["remaining"] - rates[load.job_id] * dt)
        pool_busy += total_granted * dt
        t = t_next

        for job_id, tc in completions.items():
            st = state[job_id]
            if st["finished"] is None and tc <= t + _FINISH_EPS:
                st["remaining"] = 0.0
                st["finished"] = t
                emit("finished", t=t, job=job_id)
        for load in active:
            st = state[load.job_id]
            if (
                st["finished"] is None
                and st["remaining"] <= _FINISH_EPS * max(1.0, load.isolated_s)
            ):
                st["remaining"] = 0.0
                st["finished"] = t
                emit("finished", t=t, job=load.job_id)

        if t in revocation_starts:
            rework_due = True
            for r in revocations:
                if r.at_s == t:
                    emit("revocation", t=t, slots=r.slots, duration_s=r.duration_s)
        last_grants = grants
    else:
        raise RuntimeError("scenario simulation exceeded its event budget")

    outcomes = []
    for load in order:
        st = state[load.job_id]
        outcomes.append(
            SimOutcome(
                job_id=load.job_id,
                start_s=float(st["started"]),
                finish_s=float(st["finished"]),
                busy_executor_s=float(st["busy"]),
                revocation_hits=int(st["hits"]),
            )
        )
    return outcomes, pool_busy


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobOutcome:
    """Per-job queueing/run/slowdown breakdown in a scenario."""

    job_id: str
    program: str
    size: float
    demand: int
    arrival_s: float
    start_s: float
    finish_s: float
    isolated_s: float
    straggler_factor: float
    io_fraction: float
    busy_executor_s: float
    revocation_hits: int

    @property
    def queue_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def run_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def slowdown(self) -> float:
        """End-to-end (queue + run) time over the isolated run time."""
        return (self.finish_s - self.arrival_s) / self.isolated_s


@dataclass(frozen=True)
class ScenarioReport:
    """Everything one ``(spec, seed)`` scenario run produced."""

    spec: TraceSpec
    seed: int
    slots: int
    jobs: Tuple[JobOutcome, ...]
    revocations: Tuple[Revocation, ...]
    makespan_s: float
    pool_busy_executor_s: float

    @property
    def mean_slowdown(self) -> float:
        return sum(j.slowdown for j in self.jobs) / len(self.jobs)

    @property
    def max_slowdown(self) -> float:
        return max(j.slowdown for j in self.jobs)

    @property
    def mean_queue_s(self) -> float:
        return sum(j.queue_s for j in self.jobs) / len(self.jobs)

    @property
    def utilization(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.pool_busy_executor_s / (self.slots * self.makespan_s)


#: How :func:`report_from_dict` reads a scalar field, by its type name
#: (a string: this module and ``arrivals`` postpone annotations).
_CASTS = {"float": float, "int": int, "str": str}


def _fields_doc(obj, number: Callable[[float], object]) -> Dict[str, object]:
    """A dataclass's fields by name, each ``float`` field through ``number``."""
    doc = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = number(value) if f.type == "float" else value
    return doc


def _report_doc(
    report: ScenarioReport, number: Callable[[float], object]
) -> Dict[str, object]:
    """The report as a JSON document: the spec's own document, then one
    :func:`_fields_doc` per job and per revocation."""
    doc = _fields_doc(report, number)
    doc["spec"] = report.spec.to_dict()
    doc["jobs"] = [_fields_doc(job, number) for job in report.jobs]
    doc["revocations"] = [_fields_doc(r, number) for r in report.revocations]
    return doc


def _from_doc(cls, doc: Dict[str, object], **built: object):
    """``cls`` from a :func:`_fields_doc` document: each field not given
    in ``built`` is cast by its type name."""
    return cls(**{
        f.name: built[f.name] if f.name in built else _CASTS[f.type](doc[f.name])
        for f in dataclasses.fields(cls)
    })


def scenario_fingerprint(report: ScenarioReport) -> str:
    """Digest of a report's semantic content (the replay equality test).

    Floats go through ``repr`` so the digest covers their exact values;
    two runs with equal fingerprints made bit-identical scheduling
    decisions.  Each revocation is the list ``[at_s, slots,
    duration_s]``.  Mirrors the store's ``report_fingerprint``.
    """
    doc = _report_doc(report, exact)
    doc["revocations"] = [list(r.values()) for r in doc["revocations"]]
    return canonical_digest(doc)


def report_to_dict(report: ScenarioReport) -> Dict[str, object]:
    """JSON document for one report; embeds the spec and seed so a saved
    report is replayable on its own, plus the fingerprint for quick
    comparison."""
    doc = _report_doc(report, lambda value: value)
    doc["fingerprint"] = scenario_fingerprint(report)
    return doc


def report_from_dict(doc: Dict[str, object]) -> ScenarioReport:
    """Rebuild a report from :func:`report_to_dict` output.  JSON floats
    round-trip exactly, so the rebuilt report's fingerprint equals the
    original's."""
    return _from_doc(
        ScenarioReport,
        doc,
        spec=TraceSpec.from_dict(doc["spec"]),
        jobs=tuple(_from_doc(JobOutcome, job) for job in doc["jobs"]),
        revocations=tuple(_from_doc(Revocation, r) for r in doc["revocations"]),
    )


def render_scenario_report(report: ScenarioReport) -> str:
    """Human-readable per-job table plus pool summary."""
    header = (
        f"{'job':<10} {'prog':<5} {'demand':>6} {'arrive':>8} {'queue':>8} "
        f"{'run':>8} {'slowdown':>8} {'revoked':>7}"
    )
    lines = [
        f"scenario {report.spec.name!r} seed={report.seed} "
        f"policy={report.spec.policy} slots={report.slots} "
        f"jobs={len(report.jobs)}",
        header,
        "-" * len(header),
    ]
    for j in report.jobs:
        lines.append(
            f"{j.job_id:<10} {j.program:<5} {j.demand:>6d} {j.arrival_s:>8.1f} "
            f"{j.queue_s:>8.1f} {j.run_s:>8.1f} {j.slowdown:>8.2f} "
            f"{j.revocation_hits:>7d}"
        )
    lines.append(
        f"makespan {report.makespan_s:.1f}s  "
        f"mean slowdown {report.mean_slowdown:.2f}  "
        f"max {report.max_slowdown:.2f}  "
        f"mean queue {report.mean_queue_s:.1f}s  "
        f"utilization {report.utilization:.0%}  "
        f"revocations {len(report.revocations)}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner: traces -> isolated runs -> shared-pool replay
# ----------------------------------------------------------------------
def _slot_speeds(factors: Sequence[float], slots: int) -> Tuple[float, ...]:
    """Expand per-node speed factors into per-slot speeds: the pool
    divides into equal contiguous blocks, one per node."""
    if not factors:
        return ()
    n = len(factors)
    return tuple(factors[min(i * n // slots, n - 1)] for i in range(slots))


def demand_for(config, cluster: ClusterSpec, slots: int) -> int:
    """Executor slots a configuration asks the shared pool for.

    The configuration's total task slots (executor packing x cores per
    executor), rounded and capped at the pool — the knob that makes
    idle-optimal configurations over-provision under contention.
    """
    conf = config if isinstance(config, SparkConf) else SparkConf(config, cluster)
    return max(1, min(slots, int(round(conf.total_task_slots))))


def io_fraction_of(run) -> float:
    """Share of a run's core-seconds spent on disk and shuffle I/O."""
    compute = sum(s.compute_core_seconds for s in run.stages)
    io = sum(s.io_core_seconds for s in run.stages)
    shuffle = sum(s.shuffle_core_seconds for s in run.stages)
    total = compute + io + shuffle
    if total <= 0:
        return 0.0
    return min(1.0, max(0.0, (io + shuffle) / total))


@dataclass(frozen=True)
class SharedPool:
    """The executor pool one trace replays against."""

    spec: TraceSpec
    slots: int
    revocations: Tuple[Revocation, ...]

    def replay(
        self, loads: Sequence[JobLoad], observer: Optional[Observer] = None
    ) -> Tuple[List[SimOutcome], float]:
        """:func:`simulate` ``loads`` on this pool under the spec's
        policy, interference, node speeds and revocation rework."""
        return simulate(
            loads,
            self.slots,
            policy=self.spec.policy,
            revocations=self.revocations,
            interference_coefficient=self.spec.interference_coefficient,
            slot_speeds=_slot_speeds(self.spec.node_speed_factors, self.slots),
            rework=self.spec.revocation_rework,
            observer=observer,
        )


class ScenarioRunner:
    """Runs a :class:`TraceSpec` end to end against an engine."""

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        engine: Optional[ExecutionBackend] = None,
        space: ConfigurationSpace = SPARK_CONF_SPACE,
    ):
        self.cluster = cluster
        self.engine = engine if engine is not None else InProcessBackend(cluster)
        self.space = space

    def slots_for(self, spec: TraceSpec) -> int:
        return (
            spec.executor_slots
            if spec.executor_slots is not None
            else self.cluster.total_cores
        )

    def pool(self, trace: Trace) -> SharedPool:
        """The pool ``trace`` replays against, its revocations bound to
        the pool's size."""
        slots = self.slots_for(trace.spec)
        return SharedPool(trace.spec, slots, resolve_revocations(trace, slots))

    def job_loads(self, trace: Trace) -> List[JobLoad]:
        """Isolated measurements for every arrival, as one engine batch.

        One ``submit`` call covers the whole trace, so process-pool and
        in-process backends see identical batches and (by the engine's
        determinism contract) produce identical loads.
        """
        from repro.workloads import get_workload

        slots = self.slots_for(trace.spec)
        requests = [
            ExecRequest(
                job=get_workload(arrival.program).job(arrival.size),
                config=arrival.config,
            )
            for arrival in trace.arrivals
        ]
        runs = require_success(self.engine.submit(requests))
        loads = []
        for arrival, run in zip(trace.arrivals, runs):
            loads.append(
                JobLoad(
                    job_id=arrival.job_id,
                    arrival_s=arrival.arrival_s,
                    demand=demand_for(arrival.config, self.cluster, slots),
                    isolated_s=run.seconds,
                    straggler_factor=arrival.straggler_factor,
                    io_fraction=io_fraction_of(run),
                )
            )
        return loads

    def run(self, spec: TraceSpec, seed: int = 0) -> ScenarioReport:
        trace = generate_trace(spec, seed, space=self.space)
        pool = self.pool(trace)
        loads = self.job_loads(trace)
        observer = _telemetry_observer(spec.name) if tele.enabled() else None
        with tele.span(
            SCENARIO_SPAN,
            trace=spec.name,
            seed=seed,
            jobs=len(loads),
            policy=spec.policy,
            slots=pool.slots,
        ):
            outcomes, pool_busy = pool.replay(loads, observer)
        by_id = {load.job_id: load for load in loads}
        arrivals = {arrival.job_id: arrival for arrival in trace.arrivals}
        # The load and the event loop's outcome carry every other field.
        jobs = tuple(
            JobOutcome(
                program=arrivals[o.job_id].program,
                size=arrivals[o.job_id].size,
                **{**vars(by_id[o.job_id]), **vars(o)},
            )
            for o in outcomes
        )
        return ScenarioReport(
            spec=spec,
            seed=seed,
            slots=pool.slots,
            jobs=jobs,
            revocations=pool.revocations,
            makespan_s=max(j.finish_s for j in jobs),
            pool_busy_executor_s=pool_busy,
        )


def _telemetry_observer(trace_name: str) -> Observer:
    names = {
        "arrived": SCENARIO_JOB_ARRIVED,
        "started": SCENARIO_JOB_STARTED,
        "finished": SCENARIO_JOB_FINISHED,
        "revocation": SCENARIO_REVOCATION,
    }

    def observe(kind: str, **fields: object) -> None:
        name = names.get(kind)
        if name is not None:  # "alloc" stays out of the event log
            tele.event(name, trace=trace_name, **fields)

    return observe


# ----------------------------------------------------------------------
# Tuning under interference
# ----------------------------------------------------------------------
#: Job id the target request is injected under (cannot collide with the
#: generated ``<program>-NNN`` ids).
TARGET_JOB_ID = "__target__"


class InterferenceBackend(ExecutionBackend):
    """Rewrites measurements into shared-cluster completion times.

    Wraps a base engine: every request first runs in isolation on the
    base backend (cacheable, deterministic), then gets injected as a
    job arriving at ``target_arrival_s`` into the background scenario
    ``(spec, seed)``; the reported ``seconds`` becomes the target's
    queue + run completion time.  The whole DAC pipeline — collector,
    model, GA — runs unchanged on top, and therefore optimizes the
    configuration *for the contended cluster*.
    """

    name = "interference"

    def __init__(
        self,
        base: ExecutionBackend,
        spec: TraceSpec,
        seed: int = 0,
        cluster: ClusterSpec = PAPER_CLUSTER,
        target_arrival_s: float = 0.0,
    ):
        super().__init__()
        if target_arrival_s < 0:
            raise ValueError("target_arrival_s must be >= 0")
        self.base = base
        self.spec = spec
        self.seed = seed
        self.cluster = cluster
        self.target_arrival_s = target_arrival_s
        self.supports_parallel_tasks = base.supports_parallel_tasks
        self._runner = ScenarioRunner(cluster, engine=base)
        self._background: Optional[Tuple[SharedPool, List[JobLoad]]] = None

    @property
    def slots(self) -> int:
        """Size of the contended executor pool."""
        return self._runner.slots_for(self.spec)

    def _bg(self) -> Tuple[SharedPool, List[JobLoad]]:
        if self._background is None:
            trace = generate_trace(self.spec, self.seed)
            self._background = (
                self._runner.pool(trace),
                self._runner.job_loads(trace),
            )
        return self._background

    def submit(self, requests: Sequence[ExecRequest]) -> List[ExecOutcome]:
        # Each request is telemetered once, by this backend's recorder,
        # with its contended seconds: the base's isolated runs and the
        # background's stay out of the event log.  The base may be
        # shared (the experiments' engine), so its tap is muted only
        # for this call.
        tap = self.base._recorder.telemetry
        self.base._recorder.telemetry = False
        try:
            base_outcomes = self.base.submit(requests)
            pool, bg_loads = self._bg()
        finally:
            self.base._recorder.telemetry = tap
        outcomes: List[ExecOutcome] = []
        for request, outcome in zip(requests, base_outcomes):
            if outcome.ok:
                target = JobLoad(
                    job_id=TARGET_JOB_ID,
                    arrival_s=self.target_arrival_s,
                    demand=demand_for(request.config, self.cluster, pool.slots),
                    isolated_s=outcome.run.seconds,
                    io_fraction=io_fraction_of(outcome.run),
                )
                sim_outcomes, _ = pool.replay([*bg_loads, target])
                finish = next(
                    o.finish_s for o in sim_outcomes if o.job_id == TARGET_JOB_ID
                )
                outcome = dataclasses.replace(
                    outcome,
                    run=dataclasses.replace(
                        outcome.run, seconds=finish - self.target_arrival_s
                    ),
                )
            self._recorder.record(outcome)
            outcomes.append(outcome)
        return outcomes

    def map_tasks(self, fn, items: Sequence) -> List:
        return self.base.map_tasks(fn, items)

    def signature(self) -> str:
        return (
            f"interference|{self.base.signature()}|{self.spec.spec_key()}"
            f"|seed={self.seed}|arrival={self.target_arrival_s!r}"
        )

    def close(self) -> None:
        self.base.close()


# ----------------------------------------------------------------------
# Built-in traces
# ----------------------------------------------------------------------
def _min_size(program: str) -> float:
    from repro.workloads import get_workload

    return float(min(get_workload(program).paper_sizes))


def _smoke_trace() -> TraceSpec:
    """Small, adversity-free: queueing and contention only."""
    return TraceSpec(
        name="smoke",
        templates=(
            JobTemplate(program="WC", size=_min_size("WC")),
            JobTemplate(program="TS", size=_min_size("TS")),
        ),
        n_jobs=4,
        arrival_rate_per_min=6.0,
        policy=FIFO,
        executor_slots=48,
    )


def _rush_trace() -> TraceSpec:
    """A burst of mixed tenants with random configs and stragglers —
    the default background for tuning under interference."""
    return TraceSpec(
        name="rush",
        templates=(
            JobTemplate(program="WC", size=_min_size("WC"), random_config=True),
            JobTemplate(program="TS", size=_min_size("TS"), random_config=True),
            JobTemplate(
                program="KM", size=_min_size("KM"), random_config=True, weight=0.5
            ),
        ),
        n_jobs=10,
        arrival_rate_per_min=10.0,
        policy=FAIR,
        executor_slots=64,
        straggler_probability=0.15,
    )


def _spot_trace() -> TraceSpec:
    """Spot-market cluster: heterogeneous nodes, revocations."""
    return TraceSpec(
        name="spot",
        templates=(
            JobTemplate(program="TS", size=_min_size("TS")),
            JobTemplate(program="WC", size=_min_size("WC")),
        ),
        n_jobs=6,
        arrival_rate_per_min=4.0,
        policy=FIFO,
        executor_slots=48,
        node_speed_factors=(1.0, 0.9, 0.75),
        revocation_rate_per_min=0.3,
        revocation_fraction=0.25,
        revocation_duration_s=120.0,
        revocation_horizon_s=1800.0,
    )


_BUILTIN_BUILDERS = {
    "smoke": _smoke_trace,
    "rush": _rush_trace,
    "spot": _spot_trace,
}

#: Names accepted by ``builtin_trace`` / ``repro scenario run --trace``.
BUILTIN_TRACES = tuple(sorted(_BUILTIN_BUILDERS))


def builtin_trace(name: str) -> TraceSpec:
    """One of the named built-in scenarios (see :data:`BUILTIN_TRACES`)."""
    try:
        return _BUILTIN_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; built-ins: {', '.join(BUILTIN_TRACES)}"
        ) from None
