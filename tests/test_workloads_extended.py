"""Tests for the extension workloads (LR, Join, Scan)."""

import pytest

from repro.core.baselines import default_configuration
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.workloads import ALL_WORKLOADS, get_workload
from repro.workloads.extended import EXTRA_WORKLOADS


class TestRegistry:
    def test_table1_registry_unchanged(self):
        assert set(ALL_WORKLOADS) == {"PR", "KM", "BA", "NW", "WC", "TS"}

    def test_extras_registered_separately(self):
        assert set(EXTRA_WORKLOADS) == {"LR", "JN", "SC"}

    def test_lookup_finds_extras(self):
        assert get_workload("LR").name == "LogisticRegression"
        assert get_workload("join").abbr == "JN"

    def test_unknown_lists_both_registries(self):
        with pytest.raises(KeyError, match="Scan"):
            get_workload("Nope")


@pytest.mark.parametrize("abbr", ["LR", "JN", "SC"])
class TestExtraWorkloadJobs:
    def test_jobs_build_for_all_sizes(self, abbr):
        w = get_workload(abbr)
        for size in w.paper_sizes:
            job = w.job(size)
            assert job.datasize_bytes == w.bytes_for(size)
            assert len(job.topological_stages()) == len(job.stages)

    def test_simulator_executes(self, abbr, simulator):
        w = get_workload(abbr)
        result = simulator.run(w.job(w.paper_sizes[0]), default_configuration())
        assert result.seconds > 0

    def test_monotone_in_size(self, abbr, simulator):
        w = get_workload(abbr)
        config = SPARK_CONF_SPACE.from_dict(
            {"spark.executor.memory": 8192, "spark.executor.cores": 4}
        )
        t_small = simulator.run(w.job(w.paper_sizes[0]), config).seconds
        t_large = simulator.run(w.job(w.paper_sizes[-1]), config).seconds
        assert t_large > t_small


class TestWorkloadCharacter:
    def test_lr_is_iterative_and_cached(self):
        job = get_workload("LR").job(30.0)
        assert job.stage("gradient-iterations").repeat > 5
        assert job.stage("load-cache-examples").cache_output == "examples"

    def test_join_has_two_sources(self):
        job = get_workload("JN").job(40.0)
        assert set(job.stage("hash-join").parents) == {"scan-fact", "scan-dimension"}

    def test_scan_is_single_streaming_stage(self):
        job = get_workload("SC").job(100.0)
        assert len(job.stages) == 1
        assert job.stages[0].working_set_factor < 0.1

    def test_scan_least_tunable(self, simulator):
        """Scan is the control: tuning wins far less than on TeraSort."""
        from repro.core.expert import ExpertTuner
        from repro.sparksim.cluster import PAPER_CLUSTER

        expert = ExpertTuner(PAPER_CLUSTER).tune()
        default = default_configuration()

        def gain(abbr, size):
            w = get_workload(abbr)
            job = w.job(size)
            return (
                simulator.run(job, default).seconds
                / simulator.run(job, expert).seconds
            )

        assert gain("SC", 150.0) < gain("TS", 30.0)

    def test_lr_tunes_end_to_end(self):
        """Extras work through the whole DAC pipeline."""
        from repro.core.tuner import DacTuner

        tuner = DacTuner(get_workload("LR"), n_train=120, n_trees=60,
                         learning_rate=0.15)
        tuner.collect()
        tuner.fit()
        report = tuner.tune(30.0, generations=15)
        assert report.predicted_seconds > 0
