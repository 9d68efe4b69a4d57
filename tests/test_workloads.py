"""Tests for the six Table-1 workloads and the registry."""

import pytest

from repro.common.units import GB
from repro.workloads import ALL_WORKLOADS, get_workload

TABLE1 = {
    "PR": ("PageRank", (1.2, 1.4, 1.6, 1.8, 2.0), "million pages"),
    "KM": ("KMeans", (160.0, 192.0, 224.0, 256.0, 288.0), "million points"),
    "BA": ("Bayes", (1.2, 1.4, 1.6, 1.8, 2.0), "million pages"),
    "NW": ("NWeight", (10.5, 11.5, 12.5, 13.5, 14.5), "million edges"),
    "WC": ("WordCount", (80.0, 100.0, 120.0, 140.0, 160.0), "GB"),
    "TS": ("TeraSort", (10.0, 20.0, 30.0, 40.0, 50.0), "GB"),
}


class TestRegistry:
    def test_table1_membership_and_order(self):
        assert list(ALL_WORKLOADS) == list(TABLE1)

    @pytest.mark.parametrize("abbr", list(TABLE1))
    def test_table1_names_sizes_units(self, abbr):
        w = get_workload(abbr)
        name, sizes, unit = TABLE1[abbr]
        assert w.name == name
        assert w.paper_sizes == sizes
        assert w.unit == unit

    def test_lookup_by_full_name_case_insensitive(self):
        assert get_workload("terasort") is ALL_WORKLOADS["TS"]
        assert get_workload("km") is ALL_WORKLOADS["KM"]

    def test_unknown_workload_raises_with_listing(self):
        with pytest.raises(KeyError, match="TeraSort"):
            get_workload("SparkPi")


class TestJobConstruction:
    @pytest.mark.parametrize("abbr", list(TABLE1))
    def test_every_size_builds_a_valid_job(self, abbr):
        w = get_workload(abbr)
        for size in w.paper_sizes:
            job = w.job(size)
            assert job.program == abbr
            assert job.datasize_bytes == w.bytes_for(size)
            assert len(job.topological_stages()) == len(job.stages)

    @pytest.mark.parametrize("abbr", list(TABLE1))
    def test_bytes_scale_linearly(self, abbr):
        w = get_workload(abbr)
        small, large = w.paper_sizes[0], w.paper_sizes[-1]
        assert w.bytes_for(large) / w.bytes_for(small) == pytest.approx(
            large / small
        )

    def test_gb_workloads_convert_exactly(self):
        assert get_workload("TS").bytes_for(10.0) == 10 * GB
        assert get_workload("WC").bytes_for(80.0) == 80 * GB

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            get_workload("TS").job(-1.0)

    def test_size_range_covers_paper_sizes(self):
        for w in ALL_WORKLOADS.values():
            low, high = w.size_range()
            assert low < min(w.paper_sizes)
            assert high > max(w.paper_sizes)


class TestWorkloadTraits:
    def test_iterative_programs_have_repeats(self):
        for abbr, stage_name in [("PR", "rank-iterations"),
                                 ("KM", "stageC-iterate"),
                                 ("NW", "propagate-hops")]:
            job = get_workload(abbr).job(get_workload(abbr).paper_sizes[0])
            assert job.stage(stage_name).repeat > 1

    def test_batch_programs_have_no_repeats(self):
        for abbr in ("WC", "TS"):
            job = get_workload(abbr).job(10.0)
            assert all(s.repeat == 1 for s in job.stages)

    def test_caching_programs_cache(self):
        assert any(s.cache_output for s in get_workload("KM").job(160).stages)
        assert any(s.cache_output for s in get_workload("PR").job(1.2).stages)
        assert not any(s.cache_output for s in get_workload("TS").job(10).stages)

    def test_terasort_shuffles_everything(self):
        job = get_workload("TS").job(10.0)
        assert job.stage("stage1-sample-map").shuffle_out_ratio == 1.0

    def test_kmeans_broadcasts_centroids(self):
        job = get_workload("KM").job(160.0)
        assert job.stage("stageC-iterate").broadcast_bytes > 0
        assert job.stage("stageC-iterate").collect_bytes > 0

    def test_nweight_has_large_records(self):
        job = get_workload("NW").job(10.5)
        # Large adjacency rows expose spark.kryoserializer.buffer.max.
        assert job.stage("build-graph").record_bytes > 8 * 1024 * 1024

    def test_bayes_collects_model_to_driver(self):
        job = get_workload("BA").job(1.2)
        assert job.stage("train-collect-model").collect_bytes > 10 * 1024 * 1024
