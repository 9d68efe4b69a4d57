"""Tests for the collecting component (CG + DG + performance vectors)."""

import numpy as np
import pytest

from repro.core.collecting import (
    CollectBatch,
    Collector,
    TrainingSet,
    performance_rows,
    raw_value,
)
from repro.engine import ExecRequest
from repro.workloads import get_workload
from repro.workloads.datagen import DatasetSizeGenerator


class TestPerformanceVector:
    """Equation (5)'s vectors are the rows of :func:`performance_rows`."""

    def test_rejects_nonpositive_time(self, space):
        with pytest.raises(ValueError, match="time must be positive"):
            performance_rows(space, [0.0], 10.0, 1e9, [space.default()])

    def test_rejects_nonpositive_size(self, space):
        with pytest.raises(ValueError, match="datasize must be positive"):
            performance_rows(space, [5.0], 10.0, 0.0, [space.default()])

    @pytest.mark.parametrize("seconds, datasize_bytes", [(0.0, 1e9), (5.0, 0.0)])
    def test_row_blocks_reject_what_vectors_reject(
        self, space, seconds, datasize_bytes
    ):
        with pytest.raises(ValueError):
            performance_rows(
                space, [5.0, seconds], 10.0, datasize_bytes, [space.default()] * 2
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["seconds", "datasize", "datasize_bytes"])
    def test_non_finite_rejected_by_vectors_and_row_blocks(self, space, field, value):
        bad = {"seconds": 5.0, "datasize": 10.0, "datasize_bytes": 1e9, field: value}
        with pytest.raises(ValueError, match="finite"):
            performance_rows(space, configurations=[space.default()], **bad)


class TestCollector:
    def test_sizes_satisfy_equation4(self):
        collector = Collector(get_workload("TS"))
        assert len(collector.sizes) == 10
        assert DatasetSizeGenerator.satisfies_gap(collector.sizes)

    def test_collect_counts_and_spread(self):
        collector = Collector(get_workload("TS"), seed=1)
        ts = collector.collect(25, stream="train")
        assert len(ts) == 25
        sizes = set(ts.rows()[:, 1].tolist())
        # 25 over 10 sizes: every size is used.
        assert len(sizes) == 10

    def test_streams_are_disjoint_random_draws(self):
        collector = Collector(get_workload("TS"), seed=1)
        train = collector.collect(10, stream="train")
        test = collector.collect(10, stream="test")
        # Raw parameter values reconstruct each configuration exactly.
        train_configs = set(map(tuple, train.rows()[:, 3:].tolist()))
        test_configs = set(map(tuple, test.rows()[:, 3:].tolist()))
        assert not (train_configs & test_configs)

    def test_collect_is_reproducible(self):
        a = Collector(get_workload("TS"), seed=4).collect(8)
        b = Collector(get_workload("TS"), seed=4).collect(8)
        assert a.times().tolist() == b.times().tolist()

    def test_rejects_zero_examples(self):
        with pytest.raises(ValueError):
            Collector(get_workload("TS")).collect(0)

    def test_collected_columns_are_read_only(self):
        ts = Collector(get_workload("TS"), seed=2).collect(5)
        assert not ts.times().flags.writeable
        assert not ts.to_columns()["values"].flags.writeable

    def test_simulated_hours_matches_sum(self, small_training_set):
        collector = Collector(get_workload("TS"), seed=7)
        hours = collector.simulated_hours(small_training_set)
        expected = sum(small_training_set.times().tolist()) / 3600.0
        assert hours == pytest.approx(expected)


class TestTrainingSet:
    def test_features_shape_is_42(self, small_training_set):
        X = small_training_set.features()
        assert X.shape == (len(small_training_set), 42)
        assert np.all(X >= 0) and np.all(X <= 1.0 + 1e-9)

    def test_datasize_column_normalized_to_max(self, small_training_set):
        X = small_training_set.features()
        assert X[:, -1].max() == pytest.approx(1.0)

    def test_log_times_consistent_with_times(self, small_training_set):
        assert np.allclose(
            np.exp(small_training_set.log_times()), small_training_set.times()
        )

    def test_empty_training_set_rejected(self, space):
        with pytest.raises(ValueError, match="empty"):
            TrainingSet.from_rows(space, np.empty((0, 3 + len(space))))


class TestBatchPlan:
    """plan() + run_batch() is collect(), batch by batch."""

    def test_plan_covers_all_examples(self):
        collector = Collector(get_workload("TS"), seed=9)
        batches = collector.plan(25, stream="train")
        assert sum(len(b.requests) for b in batches) == 25
        assert [b.index for b in batches] == list(range(len(batches)))
        assert len({b.size for b in batches}) == len(batches)

    def test_plan_is_deterministic(self):
        a = Collector(get_workload("TS"), seed=9).plan(12)
        b = Collector(get_workload("TS"), seed=9).plan(12)
        assert [r.config for batch in a for r in batch.requests] == [
            r.config for batch in b for r in batch.requests
        ]

    def test_batchwise_equals_collect(self):
        whole = Collector(get_workload("TS"), seed=11).collect(20, stream="train")
        collector = Collector(get_workload("TS"), seed=11)
        blocks = []
        for batch in collector.plan(20, stream="train"):
            done = sum(len(b) for b in blocks)
            blocks.append(collector.run_batch(batch, done=done, total=20))
        assert np.concatenate(blocks).tobytes() == whole.rows().tobytes()

    def test_sink_block_matches_per_cell_loop(self, space):
        """run_batch's row block, column by column, equals the row-by-row
        raw_value layout — defaults outside a knob's range included."""
        collector = Collector(get_workload("TS"), seed=3)
        (planned, *_) = collector.plan(30, stream="train")
        default = ExecRequest(job=planned.requests[0].job, config=space.default())
        batch = CollectBatch(0, planned.size, planned.requests + (default,))
        block = collector.run_batch(batch)
        runs = collector.engine.submit(list(batch.requests))
        loop = np.array(
            [
                [run.seconds, batch.size, batch.datasize_bytes]
                + [raw_value(p, request.config[p.name]) for p in space.parameters]
                for request, run in zip(batch.requests, runs)
            ]
        )
        assert block.tobytes() == loop.tobytes()

    def test_resume_from_partial_prefix(self):
        """Replanning after a crash reproduces the unfinished suffix."""
        whole = Collector(get_workload("TS"), seed=13).collect(20, stream="train")
        first = Collector(get_workload("TS"), seed=13)
        batches = first.plan(20, stream="train")
        blocks = [first.run_batch(b) for b in batches[:3]]  # crash after three
        second = Collector(get_workload("TS"), seed=13)  # fresh process
        replanned = second.plan(20, stream="train")
        blocks += [second.run_batch(b) for b in replanned[3:]]
        assert np.concatenate(blocks).tobytes() == whole.rows().tobytes()

    def test_checkpoint_sees_every_batch_prefix(self):
        """collect's checkpoint hook gets the set after every batch; the
        last one is the collected set."""
        whole = Collector(get_workload("TS"), seed=13).collect(20, stream="train")
        calls = []
        result = Collector(get_workload("TS"), seed=13).collect(
            20, checkpoint=lambda ts, done, total: calls.append((ts, done, total))
        )
        total = len(Collector(get_workload("TS"), seed=13).plan(20))
        assert [(done, n) for _, done, n in calls] == [
            (i, total) for i in range(1, total + 1)
        ]
        for ts, _, _ in calls:
            assert ts.rows().tobytes() == whole.rows()[: len(ts)].tobytes()
        assert calls[-1][0] is result
        assert result.rows().tobytes() == whole.rows().tobytes()

    def test_resume_from_runs_only_the_missing_batches(self):
        whole = Collector(get_workload("TS"), seed=13).collect(20, stream="train")
        stored = []
        Collector(get_workload("TS"), seed=13).collect(
            20, checkpoint=lambda ts, done, total: stored.append(ts)
        )
        resumed = Collector(get_workload("TS"), seed=13)
        result = resumed.collect(20, resume_from=stored[2])
        assert resumed.engine.stats.runs == 20 - len(stored[2])
        assert result.rows().tobytes() == whole.rows().tobytes()

    def test_resume_from_a_non_prefix_starts_over(self):
        whole = Collector(get_workload("TS"), seed=13).collect(20, stream="train")
        torn = TrainingSet.from_rows(whole.space, whole.rows()[:3])
        collector = Collector(get_workload("TS"), seed=13)
        result = collector.collect(20, resume_from=torn)
        assert collector.engine.stats.runs == 20
        assert result.rows().tobytes() == whole.rows().tobytes()
