"""Integration tests for the DAC, RFHOC and expert tuners."""

import numpy as np
import pytest

from repro.core.baselines import default_configuration
from repro.core.expert import ExpertTuner
from repro.core.rfhoc import RfhocTuner
from repro.core.tuner import DacTuner
from repro.sparksim.cluster import PAPER_CLUSTER
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.workloads import get_workload

#: Three small tunes (120 examples, 60 trees, 30 generations: the job
#: size of perfbench's service-mix), recorded while HM's stacking weights
#: still came from ``scipy.optimize.nnls``.  The NumPy solver that
#: replaced it moves those weights' last bits (about 1e-15), never the
#: decision: ``(seed, size, GA generations run, predicted seconds,
#: holdout error, configuration values in SPARK_CONF_SPACE order)``.
GOLDEN_TUNES = {
    "TS": (11, 50.0, 30, 175.7358819505456, 0.3989075121742817, (
        20, 87, 377, 262, 3.6992205562616327, 0.6644519748678221, 75, "lz4",
        84, 37, False, 40, 67, 11, 1, 8198, 5874, 137, 493, 4020, 1275, 8,
        114, 5, 16, 5, True, False, 0.77587727963637, False, False, True,
        True, False, "java", 0.9170370275854773, True, 48, True, "hash", 245,
    )),
    "KM": (12, 288.0, 30, 903.0100439491885, 0.27586388749027774, (
        68, 72, 116, 333, 3.464525900988304, 0.9437800902768038, 69, "lzf",
        74, 52, False, 49, 67, 8, 2, 8458, 11540, 162, 131, 3091, 2029, 3,
        255, 6, 17, 5, False, False, 0.8178519524239947, False, True, False,
        True, True, "java", 0.6626844796232917, False, 37, True, "sort", 478,
    )),
    "NW": (13, 14.5, 30, 90.66123248713117, 0.5410812983867807, (
        66, 121, 988, 583, 3.1797548666259474, 0.10131544380395696, 26,
        "snappy", 70, 73, False, 112, 45, 2, 2, 8337, 12170, 269, 393, 2802,
        1267, 2, 259, 5, 4, 7, True, True, 0.7331455515963259, False, True,
        False, True, False, "kryo", 0.8100654064710735, False, 46, False,
        "hash", 620,
    )),
}


@pytest.fixture(scope="module")
def fitted_dac():
    """A small but real DAC pipeline on TeraSort (shared by tests)."""
    tuner = DacTuner(get_workload("TS"), n_train=200, n_trees=120,
                     learning_rate=0.1, seed=3)
    tuner.collect()
    tuner.fit()
    return tuner


class TestDacTuner:
    def test_collect_populates_training_set(self, fitted_dac):
        assert len(fitted_dac.training_set) == 200
        assert fitted_dac.collector.simulated_hours(fitted_dac.training_set) > 0

    def test_fit_produces_model_with_holdout_error(self, fitted_dac):
        assert fitted_dac.model is not None
        assert 0.0 < fitted_dac.model.holdout_error_ < 1.0

    def test_tune_returns_complete_report(self, fitted_dac):
        report = fitted_dac.tune(30.0, generations=25)
        assert report.program == "TS"
        assert report.datasize == 30.0
        assert report.predicted_seconds > 0
        assert len(report.configuration) == 41
        assert report.searching_wall_seconds > 0
        assert len(report.ga.history) >= 2

    def test_tuned_beats_default_when_executed(self, fitted_dac, simulator):
        report = fitted_dac.tune(40.0, generations=40)
        job = get_workload("TS").job(40.0)
        tuned = simulator.run(job, report.configuration).seconds
        default = simulator.run(job, default_configuration()).seconds
        assert tuned < default

    def test_datasize_awareness_changes_configuration(self, fitted_dac):
        small = fitted_dac.tune(10.0, generations=40).configuration
        large = fitted_dac.tune(50.0, generations=40).configuration
        assert small != large

    def test_predict_seconds_positive(self, fitted_dac):
        """The GA objective: model-predicted seconds for a configuration."""
        encoded = SPARK_CONF_SPACE.encode(default_configuration())
        (pred,) = fitted_dac.fitness_for(30.0)(encoded[None, :])
        assert np.isfinite(pred) and pred > 0

    def test_fast_scale_factory_with_override(self):
        tuner = DacTuner.fast_scale(get_workload("TS"), n_train=100)
        assert tuner.n_train == 100
        assert tuner.n_trees == 250


@pytest.mark.parametrize("program", sorted(GOLDEN_TUNES))
def test_tuning_decisions_match_goldens(program):
    seed, size, ga_generations, predicted, holdout, values = GOLDEN_TUNES[program]
    tuner = DacTuner(get_workload(program), n_train=120, n_trees=60,
                     learning_rate=0.1, seed=seed)
    report = tuner.tune(size, generations=30)
    assert report.configuration.as_dict() == dict(zip(SPARK_CONF_SPACE.names, values))
    assert report.ga.generations == ga_generations
    assert report.predicted_seconds == pytest.approx(predicted, rel=1e-12, abs=0)
    assert report.model_holdout_error == pytest.approx(holdout, rel=1e-12, abs=0)


class TestRfhocTuner:
    def test_model_ignores_datasize(self, fitted_dac):
        rfhoc = RfhocTuner(get_workload("TS"), n_train=200, n_trees=40)
        rfhoc.fit(fitted_dac.training_set)
        report = rfhoc.tune(generations=20)
        assert len(report.configuration) == 41
        assert report.predicted_seconds > 0

    def test_single_configuration_for_all_sizes(self, fitted_dac):
        """RFHOC's defining limitation: one config per program."""
        rfhoc = RfhocTuner(get_workload("TS"), n_train=200, n_trees=40)
        rfhoc.fit(fitted_dac.training_set)
        a = rfhoc.tune(generations=15)
        b = rfhoc.tune(generations=15)
        assert a.configuration == b.configuration  # deterministic, size-free


class TestExpertTuner:
    def test_produces_valid_configuration(self):
        config = ExpertTuner(PAPER_CLUSTER).tune()
        assert len(config) == 41

    def test_follows_guide_rules(self):
        config = ExpertTuner(PAPER_CLUSTER).tune()
        assert config["spark.executor.cores"] == 5
        assert config["spark.serializer"] == "kryo"
        assert config["spark.executor.memory"] > 1024  # never the default 1 GB
        assert config["spark.default.parallelism"] == 50  # clamped to range

    def test_rules_are_datasize_oblivious(self):
        # The expert tuner has no datasize input at all — by construction.
        a = ExpertTuner(PAPER_CLUSTER).tune()
        b = ExpertTuner(PAPER_CLUSTER).tune()
        assert a == b

    def test_expert_beats_default_on_big_inputs(self, simulator):
        job = get_workload("WC").job(160.0)
        expert = simulator.run(job, ExpertTuner(PAPER_CLUSTER).tune()).seconds
        default = simulator.run(job, default_configuration()).seconds
        assert expert < default
