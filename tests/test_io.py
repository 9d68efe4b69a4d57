"""Tests for CSV training sets and spark-dac.conf round trips."""

import csv

import numpy as np
import pytest

from repro.core.collecting import Collector
from repro.io import (
    dumps_training_set,
    format_spark_submit,
    load_spark_conf,
    save_spark_conf,
    save_training_set,
)
from repro.io.sparkconf_file import format_value, parse_value
from repro.store import RunStore, payload_digest
from repro.workloads import get_workload


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


class TestTrainingSetCsv:
    def test_roundtrip_preserves_everything(self, space, tmp_path):
        """Every row of the file parses back to the collected time and
        sizes and to the exact configuration the collector drew."""
        collector = Collector(get_workload("TS"), seed=7)
        training = collector.collect(30, stream="train")
        configs = [
            request.config
            for batch in collector.plan(30, stream="train")
            for request in batch.requests
        ]
        path = tmp_path / "S.csv"
        save_training_set(training, path)
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(training)
        meta = [
            [float(row[c]) for c in ("t_seconds", "dsize", "dsize_bytes")]
            for row in rows
        ]
        assert np.array(meta).tobytes() == training.rows()[:, :3].tobytes()
        for row, config in zip(rows, configs):
            assert {name: row[name] for name in space.names} == {
                name: _csv_cell(config[name]) for name in space.names
            }

    def test_loaded_set_matches_golden(self, terasort, tmp_path):
        """A collected set writes the same CSV, features and stored blob
        as when the CSV was read back into a set; the digests were
        recorded when the store still chose formats through a codec
        registry."""
        collected = Collector(terasort, seed=21).collect(20, stream="train")
        store = RunStore(tmp_path / "store")
        assert len(collected) == 20
        assert payload_digest(dumps_training_set(collected).encode()) == (
            "8752364dba956ae928baf2cee8fa0ba0a1390f0c48e1cd159cc79438b91ac11a"
        )
        assert payload_digest(collected.features().tobytes()) == (
            "4f1d2b7e6a9bead334f1d51d3df1af484def9efb2a6b9a28edae66ec3f510be3"
        )
        assert store.put_training_set("ts", collected) == (
            "0538c1f94b6a2970e1e8097543f5a1860b7185b49f48480b9bed304f10cfcf70"
        )


class TestSparkConfFile:
    def test_roundtrip_default(self, tmp_path, space):
        path = tmp_path / "spark-dac.conf"
        config = space.default()
        save_spark_conf(config, path, comment="TS @ 30 GB")
        assert load_spark_conf(path, space) == config
        assert "# TS @ 30 GB" in path.read_text()

    def test_roundtrip_random(self, tmp_path, space, rng):
        path = tmp_path / "spark-dac.conf"
        for _ in range(5):
            config = space.random(rng)
            save_spark_conf(config, path)
            loaded = load_spark_conf(path, space)
            for name in space.names:
                if isinstance(config[name], float):
                    assert loaded[name] == pytest.approx(config[name], rel=1e-4)
                else:
                    assert loaded[name] == config[name]

    def test_spark_unit_suffixes(self, space):
        config = space.default()
        assert format_value("spark.executor.memory", config["spark.executor.memory"]) == "1024m"
        assert format_value("spark.shuffle.file.buffer", 32) == "32k"
        assert format_value("spark.network.timeout", 120) == "120s"

    def test_serializer_rendered_as_class_name(self):
        assert (
            format_value("spark.serializer", "kryo")
            == "org.apache.spark.serializer.KryoSerializer"
        )
        assert parse_value(
            "spark.serializer", "org.apache.spark.serializer.JavaSerializer"
        ) == "java"

    def test_partial_file_fills_defaults(self, tmp_path, space):
        path = tmp_path / "partial.conf"
        path.write_text("spark.executor.memory 8192m\nspark.serializer kryo\n")
        config = load_spark_conf(path, space)
        assert config["spark.executor.memory"] == 8192
        assert config["spark.serializer"] == "kryo"
        assert config["spark.executor.cores"] == 12  # default

    def test_unknown_key_rejected(self, tmp_path, space):
        path = tmp_path / "bad.conf"
        path.write_text("spark.bogus 1\n")
        with pytest.raises(ValueError, match="unknown parameter"):
            load_spark_conf(path, space)

    def test_malformed_line_rejected(self, tmp_path, space):
        path = tmp_path / "bad.conf"
        path.write_text("spark.executor.memory\n")
        with pytest.raises(ValueError, match="key value"):
            load_spark_conf(path, space)

    def test_comments_and_blanks_ignored(self, tmp_path, space):
        path = tmp_path / "c.conf"
        path.write_text("# a comment\n\nspark.executor.cores 4\n")
        assert load_spark_conf(path, space)["spark.executor.cores"] == 4

    def test_spark_submit_rendering(self, space):
        text = format_spark_submit(space.default(), "job.jar", "com.example.Main")
        assert text.startswith("spark-submit")
        assert "--conf spark.executor.memory=1024m" in text
        assert text.rstrip().endswith("job.jar")
