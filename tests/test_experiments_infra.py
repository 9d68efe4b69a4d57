"""Tests for experiment infrastructure: caches and shared tuning runs."""

import pytest

from repro.experiments.common import FAST, Scale, collected
from repro.experiments.tuning_runs import ProgramTuning, tune_program

SMALL = Scale(
    name="infra-small",
    n_train=100,
    n_test=40,
    n_trees=50,
    learning_rate=0.2,
    ga_generations=10,
    ga_population=16,
    programs=("TS",),
)


class TestCollectedCache:
    def test_same_key_same_object(self):
        a = collected("TS", 30, "train", seed=5)
        b = collected("TS", 30, "train", seed=5)
        assert a is b  # memoized

    def test_streams_are_distinct(self):
        train = collected("TS", 30, "train", seed=5)
        test = collected("TS", 30, "test", seed=5)
        assert train is not test
        # Raw parameter values reconstruct each configuration exactly.
        assert set(map(tuple, train.rows()[:, 3:].tolist())).isdisjoint(
            map(tuple, test.rows()[:, 3:].tolist())
        )

    def test_scale_is_hashable_for_caching(self):
        assert hash(FAST) == hash(FAST)
        assert FAST != SMALL


class TestTuneProgram:
    @pytest.fixture(scope="class")
    def tuning(self):
        return tune_program("TS", SMALL)

    def test_returns_complete_artifacts(self, tuning):
        assert isinstance(tuning, ProgramTuning)
        assert set(tuning.dac_reports) == {10.0, 20.0, 30.0, 40.0, 50.0}
        assert len(tuning.rfhoc_report.configuration) == 41
        assert len(tuning.expert) == 41
        assert tuning.default["spark.executor.memory"] == 1024

    def test_memoized_per_scale_and_program(self, tuning):
        assert tune_program("TS", SMALL) is tuning

    def test_dac_config_accessor(self, tuning):
        assert tuning.dac_config(30.0) == tuning.dac_reports[30.0].configuration

    def test_costs_recorded(self, tuning):
        assert tuning.collecting_simulated_hours > 0
        assert tuning.modeling_wall_seconds > 0
