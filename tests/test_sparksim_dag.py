"""Tests for JobSpec/StageSpec validation and DAG utilities."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.units import GB
from repro.sparksim.dag import JobSpec, StageSpec
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.extended import EXTRA_WORKLOADS

#: Every shipped workload's stage order, identical at each of its paper
#: sizes, as networkx.lexicographical_topological_sort produced it.
GOLDEN_ORDERS = {
    "PR": ["load-links", "rank-iterations", "write-ranks"],
    "KM": [
        "stageA-read-cache",
        "stageB-sample",
        "stageC-iterate",
        "stageD-collect",
        "stageE-summary",
    ],
    "BA": ["tokenize-vectorize", "aggregate-term-freqs", "train-collect-model"],
    "NW": ["build-graph", "propagate-hops", "write-associations"],
    "WC": ["tokenize-combine", "merge-counts"],
    "TS": ["stage1-sample-map", "stage2-sort-write"],
    "LR": ["load-cache-examples", "gradient-iterations", "final-model"],
    # Declared scan-fact first: both scans are ready, so name order wins.
    "JN": ["scan-dimension", "scan-fact", "hash-join"],
    "SC": ["scan-filter-project"],
}


def linear_job():
    return JobSpec(
        program="toy",
        datasize_bytes=1 * GB,
        stages=(
            StageSpec(name="a", input_bytes=1 * GB, shuffle_out_ratio=0.5),
            StageSpec(name="b", parents=("a",), shuffle_out_ratio=0.2),
            StageSpec(name="c", parents=("b",)),
        ),
    )


class TestStageSpec:
    def test_rejects_zero_repeat(self):
        with pytest.raises(ValueError, match="repeat"):
            StageSpec(name="x", repeat=0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            StageSpec(name="x", input_bytes=-1)

    def test_rejects_implausible_shuffle_ratio(self):
        with pytest.raises(ValueError):
            StageSpec(name="x", shuffle_out_ratio=50.0)

    def test_defaults_are_sane(self):
        s = StageSpec(name="x")
        assert s.repeat == 1 and s.parents == () and s.cache_output is None


class TestJobSpec:
    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            JobSpec("p", 1.0, (StageSpec(name="a"), StageSpec(name="a")))

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            JobSpec("p", 1.0, (StageSpec(name="a", parents=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            JobSpec(
                "p",
                1.0,
                (
                    StageSpec(name="a", parents=("b",)),
                    StageSpec(name="b", parents=("a",)),
                ),
            )
        with pytest.raises(ValueError, match="cycle"):
            JobSpec("p", 1.0, (StageSpec(name="a"), StageSpec("b", parents=("b",))))

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("p", 1.0, ())

    def test_topological_order_respects_dependencies(self):
        order = [s.name for s in linear_job().topological_stages()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_diamond_topology(self):
        job = JobSpec(
            "p",
            1.0,
            (
                StageSpec(name="root", input_bytes=1.0, shuffle_out_ratio=1.0),
                StageSpec(name="left", parents=("root",), shuffle_out_ratio=1.0),
                StageSpec(name="right", parents=("root",), shuffle_out_ratio=1.0),
                StageSpec(name="join", parents=("left", "right")),
            ),
        )
        order = [s.name for s in job.topological_stages()]
        assert order[0] == "root" and order[-1] == "join"

    def test_ready_stages_pop_in_name_order(self):
        # A diamond declared in reverse name order: b and m are ready at once.
        diamond = JobSpec(
            "p",
            1.0,
            (
                StageSpec(name="z", parents=("m", "b")),
                StageSpec(name="m", parents=("a",)),
                StageSpec(name="b", parents=("a",)),
                StageSpec(name="a", input_bytes=1.0),
            ),
        )
        assert [s.name for s in diamond.topological_stages()] == ["a", "b", "m", "z"]
        # A newly ready stage (a) overtakes an older ready one (z) by name;
        # a parent listed twice is one edge.
        two_roots = JobSpec(
            "p",
            1.0,
            (
                StageSpec(name="z"),
                StageSpec(name="m"),
                StageSpec(name="b", parents=("z", "z")),
                StageSpec(name="a", parents=("m",)),
            ),
        )
        assert [s.name for s in two_roots.topological_stages()] == ["m", "a", "z", "b"]

    @pytest.mark.parametrize("abbr", sorted(GOLDEN_ORDERS))
    def test_workload_stage_orders_are_pinned(self, abbr):
        assert set(GOLDEN_ORDERS) == set(ALL_WORKLOADS) | set(EXTRA_WORKLOADS)
        workload = get_workload(abbr)
        for size in workload.paper_sizes:
            job = workload.job(size)
            assert [s.name for s in job.topological_stages()] == GOLDEN_ORDERS[abbr]

    def test_stage_order_is_not_a_field(self):
        """The cached order leaves equality, hash, repr (the engine's
        cache keys) and pickling as they were."""
        job = linear_job()
        twin = JobSpec(job.program, job.datasize_bytes, job.stages)
        assert job == twin and hash(job) == hash(twin)
        assert repr(job) == (
            f"JobSpec(program={job.program!r}, "
            f"datasize_bytes={job.datasize_bytes!r}, stages={job.stages!r})"
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.topological_stages() == job.topological_stages()

    def test_stage_lookup(self):
        job = linear_job()
        assert job.stage("b").parents == ("a",)
        with pytest.raises(KeyError):
            job.stage("zzz")

    def test_total_input_bytes(self):
        assert linear_job().total_input_bytes == 1 * GB

    def test_graph_edges(self):
        stages = linear_job().topological_stages()
        edges = {(parent, s.name) for s in stages for parent in s.parents}
        assert edges == {("a", "b"), ("b", "c")}


@pytest.mark.parametrize("module", ["networkx", "scipy"])
def test_entry_points_do_not_import(module):
    """The stage sort (networkx) and HM's stacking solve (scipy) are
    in-house: no entry point loads either dependency."""
    code = (
        "import sys, repro.core.tuner, repro.service, repro.cli.main; "
        f"sys.exit({module!r} in sys.modules)"
    )
    src = str(Path(__file__).parent.parent / "src")
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
