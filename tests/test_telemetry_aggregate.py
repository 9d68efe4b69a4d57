"""Tests for cross-log aggregation: cursors and merging."""

import json
import os

import pytest

from repro.telemetry.aggregate import (
    LogAggregator,
    LogCursor,
    labels_for_log,
)


def _meta(wall_start=1000.0):
    return json.dumps(
        {"kind": "meta", "version": 1, "wall_start": wall_start, "pid": 1}
    )


def _event(name, ts, **fields):
    return json.dumps(
        {"kind": "event", "name": name, "ts": ts, "parent": 0, "fields": fields}
    )


class TestLabels:
    def test_worker_log_gets_worker_label(self):
        assert labels_for_log("events/worker-vm-12-abc.jsonl") == {
            "worker": "vm-12-abc"
        }

    def test_job_log_gets_job_label(self):
        assert labels_for_log("events/ts-deadbeef.jsonl") == {
            "job": "ts-deadbeef"
        }


class TestLogCursor:
    def test_reads_records_with_wall_from_meta(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(_meta(1000.0) + "\n" + _event("a", 2.5) + "\n")
        records = LogCursor(path).poll()
        assert len(records) == 1
        assert records[0].wall == pytest.approx(1002.5)
        assert records[0].name == "a"
        assert records[0].labels == {"job": "job"}

    def test_incremental_polls_return_only_new_records(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(_meta() + "\n" + _event("a", 1.0) + "\n")
        cursor = LogCursor(path)
        assert [r.name for r in cursor.poll()] == ["a"]
        assert cursor.poll() == []
        with path.open("a") as handle:
            handle.write(_event("b", 2.0) + "\n")
        assert [r.name for r in cursor.poll()] == ["b"]

    def test_torn_tail_held_back_until_newline(self, tmp_path):
        path = tmp_path / "job.jsonl"
        line = _event("whole", 1.0)
        path.write_text(_meta() + "\n" + line[:10])
        cursor = LogCursor(path)
        assert cursor.poll() == []  # half a record is not a record
        with path.open("a") as handle:
            handle.write(line[10:] + "\n")
        assert [r.name for r in cursor.poll()] == ["whole"]

    def test_torn_tail_mid_record_skipped_when_writer_died(self, tmp_path):
        # A SIGKILLed writer leaves garbage with no newline; the next
        # session appends a fresh meta + records after it.  The torn
        # bytes merge with the next line into unparsable JSON, which is
        # dropped -- never raised.
        path = tmp_path / "job.jsonl"
        path.write_text(_meta() + "\n" + '{"kind": "event", "na')
        cursor = LogCursor(path)
        assert cursor.poll() == []
        with path.open("a") as handle:
            handle.write("\n" + _event("after", 5.0) + "\n")
        assert [r.name for r in cursor.poll()] == ["after"]

    def test_appended_sessions_use_their_own_epoch(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(
            _meta(1000.0) + "\n" + _event("s1", 1.0) + "\n"
            + _meta(5000.0) + "\n" + _event("s2", 1.0) + "\n"
        )
        walls = [r.wall for r in LogCursor(path).poll()]
        assert walls == [pytest.approx(1001.0), pytest.approx(5001.0)]

    def test_absent_then_created_file(self, tmp_path):
        path = tmp_path / "late.jsonl"
        cursor = LogCursor(path)
        assert cursor.poll() == []
        path.write_text(_meta() + "\n" + _event("born", 0.5) + "\n")
        assert [r.name for r in cursor.poll()] == ["born"]

    def test_truncation_reopens_from_start(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(_meta() + "\n" + _event("a", 1.0) + "\n" * 4)
        cursor = LogCursor(path)
        cursor.poll()
        path.write_text(_meta(2000.0) + "\n" + _event("b", 1.0) + "\n")
        records = cursor.poll()
        assert [r.name for r in records] == ["b"]
        assert records[0].wall == pytest.approx(2001.0)

    def test_rotation_new_inode_reopens_from_start(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(_meta() + "\n" + _event("a", 1.0) + "\n")
        cursor = LogCursor(path)
        cursor.poll()
        replacement = tmp_path / "job.jsonl.tmp"
        # Same byte length as the original: only the inode differs.
        replacement.write_text(_meta() + "\n" + _event("z", 1.0) + "\n")
        os.replace(replacement, path)
        assert [r.name for r in cursor.poll()] == ["z"]

    def test_garbage_lines_dropped(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text(
            "not json\n" + '["a", "list"]\n' + _event("good", 1.0) + "\n"
        )
        assert [r.name for r in LogCursor(path).poll()] == ["good"]


class TestLogAggregator:
    def test_merges_across_logs_in_wall_order(self, tmp_path):
        # Out-of-order *across* logs: worker A's events interleave with
        # worker B's even though each file is internally ordered.
        (tmp_path / "worker-a.jsonl").write_text(
            _meta(1000.0) + "\n" + _event("x", 1.0) + "\n"
            + _event("x", 5.0) + "\n"
        )
        (tmp_path / "worker-b.jsonl").write_text(
            _meta(1000.0) + "\n" + _event("y", 3.0) + "\n"
        )
        agg = LogAggregator(tmp_path)
        merged = agg.poll()
        assert [(r.name, r.wall) for r in merged] == [
            ("x", 1001.0), ("y", 1003.0), ("x", 1005.0),
        ]

    def test_resume_duplicates_with_new_epoch_are_kept(self, tmp_path):
        # A resumed job may re-emit an identical-looking event in a new
        # session; its wall differs (new meta), so it is a new sample.
        (tmp_path / "ts-1.jsonl").write_text(
            _meta(1000.0) + "\n" + _event("collect.size", 1.0, done=10) + "\n"
            + _meta(2000.0) + "\n" + _event("collect.size", 1.0, done=10) + "\n"
        )
        merged = LogAggregator(tmp_path).poll()
        assert len(merged) == 2

    def test_empty_and_absent_logs_merge_without_raising(self, tmp_path):
        (tmp_path / "worker-empty.jsonl").write_text("")
        agg = LogAggregator(tmp_path)
        assert agg.poll() == []
        assert agg.poll() == []  # still empty, still fine

    def test_missing_directory_is_not_an_error(self, tmp_path):
        assert LogAggregator(tmp_path / "nope").poll() == []

    def test_new_logs_discovered_mid_watch(self, tmp_path):
        agg = LogAggregator(tmp_path)
        assert agg.poll() == []
        (tmp_path / "ts-late.jsonl").write_text(
            _meta() + "\n" + _event("hello", 1.0) + "\n"
        )
        assert [r.name for r in agg.poll()] == ["hello"]
        assert len(agg.logs) == 1

