"""Checkpoint overhead and the zero-copy load path.

Two store contracts are gated here:

* checkpoint overhead ("under a few percent") — routing a tune
  through ``JobService``, which persists a digest-checked artifact
  plus the job record after every collect batch, after the fit and
  at the end, costs only a small constant per checkpoint on top of
  the plain in-process pipeline.  Measured two ways: a macro
  wall-clock A/B, and the service's own
  ``JobRecord.checkpoint_wall_seconds`` accounting, which must stay
  under 5% of the job's wall time (the arithmetic bound cannot flake
  on a noisy runner).

* the zero-copy read path — ``get_model(key, mode="mmap")`` on a
  500-tree columnar-blob checkpoint must load much faster than
  unpickling the same model (it reads only the header; node tables
  stay untouched until predict gathers from them), must not
  materialize the payload into the reader's heap, and N concurrent
  readers must share one page-cache copy (O(1) resident memory per
  extra reader, measured by PSS).  The measured numbers land in
  ``BENCH_store.json``.
"""

import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.tuner import DacTuner
from repro.engine import InProcessBackend
from repro.models.hierarchical import HierarchicalModel
from repro.service import JobService, TuneRequest
from repro.store import RunStore
from repro.telemetry import read_event_log
from repro.workloads import get_workload

#: The "standard tune run": large enough that per-checkpoint constants
#: amortize the way they do in real use, small enough for CI.
TUNE = dict(n_train=200, n_trees=120, seed=0)
TUNE_SIZE, TUNE_GENERATIONS = 10.0, 10

REQUEST = TuneRequest(
    program="TS",
    size=TUNE_SIZE,
    n_train=TUNE["n_train"],
    n_trees=TUNE["n_trees"],
    generations=TUNE_GENERATIONS,
    patience=None,
    seed=TUNE["seed"],
)


def _tune_direct() -> float:
    """The plain pipeline: no store, no checkpoints; returns wall time."""
    start = time.perf_counter()
    tuner = DacTuner(get_workload("TS"), engine=InProcessBackend(), **TUNE)
    tuner.collect()
    tuner.fit()
    tuner.tune(TUNE_SIZE, generations=TUNE_GENERATIONS, patience=None)
    return time.perf_counter() - start


def _tune_via_service(tmp_path):
    """The same run as a durable job; returns the finished record."""
    service = JobService(tmp_path / "store", use_cache=False)
    record = service.submit(REQUEST)
    return service.resume(record.job_id)


def test_tune_direct(benchmark, once):
    """Baseline: the standard tune run with no store."""
    assert benchmark.pedantic(_tune_direct, **once) > 0


def test_tune_with_store(benchmark, once, tmp_path):
    """The same run checkpointing every collect batch, the model and
    the report."""
    record = benchmark.pedantic(_tune_via_service, args=(tmp_path,), **once)
    assert record.state == "done"


def test_checkpoint_overhead_below_a_few_percent(tmp_path):
    """Arithmetic bound: measured persist time < 5% of the job's wall.

    The runner accumulates the wall spent inside every checkpoint
    (artifact write + record save) into the job record, so the bound
    uses the service's own accounting rather than a flaky A/B.
    """
    start = time.perf_counter()
    record = _tune_via_service(tmp_path)
    wall = time.perf_counter() - start

    assert record.state == "done"
    spent = record.checkpoint_wall_seconds
    # Every checkpoint the runner made logged one ``job.progress`` event.
    events = read_event_log(RunStore(tmp_path / "store").event_log_path(record.job_id))
    checkpoints = sum(r.get("name") == "job.progress" for r in events.records)
    assert checkpoints == 12  # 10 collect batches, the model, the report
    assert spent < 0.05 * wall, (
        f"checkpointing: {spent * 1e3:.1f}ms across {checkpoints} "
        f"checkpoints vs {wall:.3f}s job wall"
    )


# ----------------------------------------------------------------------
# Zero-copy load path: mmap vs unpickle on a 500-tree checkpoint
# ----------------------------------------------------------------------
#: A paper-scale checkpoint: 500 perfect-binary depth-10 trees over the
#: 42-column feature matrix (~28 MB of node tables), splitting at the
#: edges of 256 bins per feature.
FOREST_TREES = 500
FOREST_DEPTH = 10
FOREST_FEATURES = 42
FOREST_BINS = 256

#: CI gates (locally mmap loads are 100x+ faster and resolve a few
#: hundred KB; the floors only catch a return to eager materialization).
LOAD_SPEEDUP_FLOOR = 5.0
LAZY_RSS_DIVISOR = 4.0
SHARED_PSS_CEILING = 2.0  # x artifact size, for 3 concurrent readers

STORE_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _synthetic_checkpoint() -> HierarchicalModel:
    """A frozen single-component HM with a large synthetic node table.

    Built straight from sections: fitting 500 deep trees for real takes
    minutes, but the load path only cares about array sizes and a valid
    traversal structure (heap-layout perfect trees, leaves at depth 10,
    each leaf looping to itself, each split's threshold one of the
    features' bin edges).
    """
    gen = np.random.default_rng(0)
    n_nodes = 2 ** (FOREST_DEPTH + 1) - 1
    n_internal = 2 ** FOREST_DEPTH - 1
    total = FOREST_TREES * n_nodes
    idx = np.tile(np.arange(n_nodes), FOREST_TREES)
    internal = idx < n_internal
    offsets = np.repeat(
        np.arange(FOREST_TREES, dtype=np.int64) * n_nodes, n_nodes
    )
    feature = np.where(
        internal, gen.integers(0, FOREST_FEATURES, total), -1
    ).astype(np.int32)
    edges = np.linspace(0.0, 1.0, FOREST_BINS - 1)
    threshold = np.where(
        internal, edges[gen.integers(0, FOREST_BINS - 2, total)], np.inf
    )
    left = np.where(internal, offsets + 2 * idx + 1, offsets + idx)
    right = np.where(internal, offsets + 2 * idx + 2, offsets + idx)
    children = np.column_stack([left, right]).reshape(-1).astype(np.int32)
    sections = {
        "weights": np.asarray([1.0]),
        "holdout": np.asarray([0.25]),
        "c0.feature": feature,
        "c0.threshold": threshold,
        "c0.children": children,
        "c0.value": gen.normal(size=total) * 0.01,
        "c0.roots": (np.arange(FOREST_TREES) * n_nodes).astype(np.int32),
        "c0.val_errors": np.full(FOREST_TREES, 0.1),
    }
    component_meta = {
        "n_trees": FOREST_TREES,
        "learning_rate": 0.05,
        "tree_complexity": FOREST_DEPTH,
        "subsample": 0.5,
        "target_accuracy": None,
        "validation_fraction": 0.2,
        "patience": FOREST_TREES,
        "convergence_tol": 1e-8,
        "min_samples_leaf": 1,
        "random_state": 0,
        "base": 0.0,
        "stopped_reason": "all trees fitted",
        "n_trees_fitted": FOREST_TREES,
        "depth": FOREST_DEPTH,
    }
    meta = {
        "n_trees": FOREST_TREES,
        "learning_rate": 0.05,
        "tree_complexity": FOREST_DEPTH,
        "subsample": 0.5,
        "target_accuracy": 0.9,
        "max_order": 1,
        "validation_fraction": 0.2,
        "patience": FOREST_TREES,
        "random_state": 0,
        "order": 1,
        "components": [component_meta],
    }
    return HierarchicalModel.from_sections(sections, meta)


def _vm_rss_kb() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found")


def _pss_kb(pid: int):
    """Proportional set size of ``pid`` in KB, or None if unsupported."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _load_model(store, key, mode):
    """``mode="pickle"`` unpickles the baseline; any other mode is a
    :meth:`RunStore.get_model` read mode."""
    if mode == "pickle":
        return store.get_object(key, kind="model")
    return store.get_model(key, mode=mode)


def _load_probe(root, key, mode, conn):
    """Child body: time one model load and report the load-only RSS delta."""
    store = RunStore(root)
    rss_before = _vm_rss_kb()
    start = time.perf_counter()
    model = _load_model(store, key, mode)
    load_seconds = time.perf_counter() - start
    conn.send(
        {
            "ok": model is not None,
            "load_seconds": load_seconds,
            "rss_delta_kb": _vm_rss_kb() - rss_before,
        }
    )
    conn.close()


def _reader_probe(root, key, X, start, release, conn):
    """Child body: once every reader exists, mmap-load, touch the node
    tables via predict, then hold the mapping alive while the parent
    samples our PSS."""
    store = RunStore(root)
    # The pages inherited from the parent are shared by every reader, so
    # the baseline waits until all of them are forked.
    start.wait(timeout=120)
    pss_before = _pss_kb(os.getpid())
    model = store.get_model(key, mode="mmap")
    prediction = model.predict(X)
    conn.send({"pss_before_kb": pss_before, "checksum": float(prediction.sum())})
    release.wait(timeout=120)
    conn.close()


@pytest.fixture(scope="module")
def zero_copy():
    """Measure the mmap and pickle load paths; emit ``BENCH_store.json``."""
    if not hasattr(os, "fork"):
        pytest.skip("load probes need fork")
    ctx = multiprocessing.get_context("fork")
    workdir = tempfile.mkdtemp(prefix="bench-store-")
    store = RunStore(Path(workdir) / "store")
    model = _synthetic_checkpoint()
    store.put_model("model/blob", model)
    store.put_object("model/pickle", model, kind="model")
    blob_path = store._object_path(str(store.entry("model/blob")["digest"]))
    blob_kb = blob_path.stat().st_size // 1024

    # the bench is moot unless all three paths predict identically
    X = np.random.default_rng(1).random((64, FOREST_FEATURES))
    expected = model.predict(X)
    for key, mode in (("model/blob", "mmap"), ("model/pickle", "pickle")):
        loaded = _load_model(store, key, mode)
        assert loaded.predict(X).tobytes() == expected.tobytes()

    def probe(key, mode, repeats=3):
        samples = []
        for _ in range(repeats):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_load_probe, args=(store.root, key, mode, child)
            )
            proc.start()
            child.close()
            sample = parent.recv()
            proc.join(timeout=60)
            assert sample["ok"]
            samples.append(sample)
        return {
            "load_seconds": min(s["load_seconds"] for s in samples),
            "rss_delta_kb": int(
                np.median([s["rss_delta_kb"] for s in samples])
            ),
        }

    results = {
        "forest": {
            "trees": FOREST_TREES,
            "depth": FOREST_DEPTH,
            "artifact_kb": blob_kb,
        },
        "pickle": probe("model/pickle", "pickle"),
        "mmap": probe("model/blob", "mmap"),
    }
    results["load_speedup"] = round(
        results["pickle"]["load_seconds"] / results["mmap"]["load_seconds"], 2
    )

    # three concurrent readers, each touching the whole node table:
    # PSS counts each shared page at 1/n-readers, so the summed deltas
    # stay around one artifact's worth if (and only if) the mapping is
    # actually shared.  Every reader is sampled only once all three
    # have reported, so each is charged its share of the pages every
    # reader holds, not whatever it touched before the others did.
    start, release = ctx.Event(), ctx.Event()
    readers = []
    for _ in range(3):
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_reader_probe,
            args=(store.root, "model/blob", X, start, release, child),
        )
        proc.start()
        child.close()
        readers.append((proc, parent))
    start.set()
    # sent after predict: each reader's pages are resident
    samples = [parent.recv() for _, parent in readers]
    deltas = []
    for (proc, _), sample in zip(readers, samples):
        pss_now = _pss_kb(proc.pid)
        if sample["pss_before_kb"] is None or pss_now is None:
            deltas = None
            break
        deltas.append(pss_now - sample["pss_before_kb"])
    release.set()
    for proc, _ in readers:
        proc.join(timeout=60)
    results["shared_readers"] = (
        None
        if deltas is None
        else {"readers": 3, "total_pss_delta_kb": int(sum(deltas))}
    )

    STORE_RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(
        f"\n500-tree checkpoint ({blob_kb} KB): "
        f"unpickle {results['pickle']['load_seconds'] * 1e3:.1f}ms "
        f"(+{results['pickle']['rss_delta_kb']} KB RSS) vs "
        f"mmap {results['mmap']['load_seconds'] * 1e3:.1f}ms "
        f"(+{results['mmap']['rss_delta_kb']} KB RSS), "
        f"{results['load_speedup']}x"
    )
    return results


def test_mmap_load_speedup_floor(zero_copy):
    """Loading via mmap must beat unpickling by >= 5x at 500 trees."""
    assert zero_copy["load_speedup"] >= LOAD_SPEEDUP_FLOOR, (
        f"mmap load only {zero_copy['load_speedup']}x faster than "
        f"unpickle (floor {LOAD_SPEEDUP_FLOOR}x) — the zero-copy path "
        "is materializing the payload"
    )


def test_mmap_load_is_lazy(zero_copy):
    """Loading must not pull the node tables into the reader's heap."""
    pickle_kb = zero_copy["pickle"]["rss_delta_kb"]
    mmap_kb = zero_copy["mmap"]["rss_delta_kb"]
    assert mmap_kb < pickle_kb / LAZY_RSS_DIVISOR, (
        f"mmap load grew RSS by {mmap_kb} KB vs {pickle_kb} KB for "
        "unpickle — sections are being copied at load time"
    )


def test_concurrent_readers_share_one_copy(zero_copy):
    """3 readers with every page touched cost ~1 resident copy, not 3."""
    shared = zero_copy["shared_readers"]
    if shared is None:
        pytest.skip("kernel lacks /proc/<pid>/smaps_rollup")
    ceiling = SHARED_PSS_CEILING * zero_copy["forest"]["artifact_kb"]
    assert shared["total_pss_delta_kb"] < ceiling, (
        f"3 mmap readers cost {shared['total_pss_delta_kb']} KB PSS "
        f"total (ceiling {ceiling:.0f} KB) — pages are not shared"
    )
