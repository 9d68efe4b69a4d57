"""Property-based round-trip tests for the persistence formats."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collecting import TrainingSet, performance_rows
from repro.io import load_spark_conf, save_spark_conf, save_training_set
from repro.sparksim.confspace import SPARK_CONF_SPACE

random_configs = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: SPARK_CONF_SPACE.random(np.random.default_rng(seed))
)


class TestSparkConfRoundTripProperty:
    @given(random_configs)
    @settings(max_examples=30, deadline=None)
    def test_any_configuration_round_trips(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("conf") / "spark-dac.conf"
        save_spark_conf(config, path)
        loaded = load_spark_conf(path, SPARK_CONF_SPACE)
        for name in SPARK_CONF_SPACE.names:
            original = config[name]
            if isinstance(original, float):
                assert loaded[name] == pytest.approx(original, rel=1e-4)
            else:
                assert loaded[name] == original

    @given(random_configs)
    @settings(max_examples=20, deadline=None)
    def test_file_is_line_oriented_properties(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("conf") / "x.conf"
        save_spark_conf(config, path)
        lines = [
            line for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 41
        assert all(len(line.split(None, 1)) == 2 for line in lines)


class TestTrainingSetCsvProperty:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31 - 1),
                st.floats(min_value=0.1, max_value=1e5),
                st.floats(min_value=1.0, max_value=1e12),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_training_sets_round_trip(self, tmp_path_factory, rows):
        """Any set's CSV parses back to its exact times, sizes and
        configurations."""
        configs = [
            SPARK_CONF_SPACE.random(np.random.default_rng(seed)) for seed, _, _ in rows
        ]
        seconds = [s for _, s, _ in rows]
        sizes = [b for _, _, b in rows]
        training = TrainingSet.from_rows(
            SPARK_CONF_SPACE,
            performance_rows(
                SPARK_CONF_SPACE, seconds, [b / 1e9 for b in sizes], sizes, configs
            ),
        )
        path = tmp_path_factory.mktemp("csv") / "S.csv"
        save_training_set(training, path)
        with path.open(newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert [float(r["t_seconds"]) for r in parsed] == seconds
        assert [float(r["dsize_bytes"]) for r in parsed] == sizes
        for row, config in zip(parsed, configs):
            for name in SPARK_CONF_SPACE.names:
                value = config[name]
                if isinstance(value, bool):
                    assert row[name] == ("true" if value else "false")
                elif isinstance(value, str):
                    assert row[name] == value
                else:
                    assert type(value)(row[name]) == value
