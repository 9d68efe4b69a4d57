"""Tests for the telemetry subsystem: events, sinks, trace."""

import json
import re

import pytest

from repro import telemetry
from repro.telemetry import events as tele
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.trace import read_event_log, render_timeline


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry globally off."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestEventsAndSpans:
    def test_module_helpers_are_noop_when_off(self):
        assert not tele.enabled()
        tele.event("x", a=1)  # must not raise
        with tele.span("y", b=2) as span:
            span.note(c=3)
        assert span is tele.span("z")  # shared null singleton

    def test_event_records_fields_and_timestamps(self):
        with telemetry.session() as tel:
            tele.event("stage.completed", stage="sort", seconds=1.5)
            records = [r for r in tel.records if r["kind"] == "event"]
        assert records[0]["name"] == "stage.completed"
        assert records[0]["fields"] == {"stage": "sort", "seconds": 1.5}
        assert records[0]["ts"] >= 0.0

    def test_span_nesting_parent_ids(self):
        with telemetry.session() as tel:
            with tele.span("outer") as outer:
                tele.event("inside")
                with tele.span("inner") as inner:
                    pass
            spans = {r["name"]: r for r in tel.records if r["kind"] == "span"}
            events = [r for r in tel.records if r["kind"] == "event"]
        assert spans["inner"]["parent"] == outer.id
        assert spans["outer"]["parent"] == tele.ROOT
        assert events[0]["parent"] == outer.id
        assert inner.id != outer.id

    def test_span_records_error_class(self):
        with telemetry.session() as tel:
            with pytest.raises(RuntimeError):
                with tele.span("failing"):
                    raise RuntimeError("boom")
            record = [r for r in tel.records if r["kind"] == "span"][0]
        assert record["fields"]["error"] == "RuntimeError"

    def test_monotonic_timestamps(self):
        with telemetry.session() as tel:
            for i in range(5):
                tele.event("tick", i=i)
            stamps = [r["ts"] for r in tel.records if r["kind"] == "event"]
        assert stamps == sorted(stamps)


class TestSessionLifecycle:
    def test_enable_twice_raises(self):
        telemetry.enable()
        try:
            with pytest.raises(RuntimeError):
                telemetry.enable()
        finally:
            telemetry.disable()

    def test_disable_is_idempotent_and_returns_pipeline(self):
        tel = telemetry.enable()
        assert telemetry.disable() is tel
        assert telemetry.disable() is None

    def test_ring_buffer_bounds_and_counts(self):
        sink = RingBufferSink(capacity=4)
        for i in range(10):
            sink.write({"i": i})
        assert len(sink.records) == 4
        assert sink.total_written == 10
        assert sink.records[-1]["i"] == 9


class TestEventLogRoundTrip:
    def test_jsonl_write_read_roundtrip(self, tmp_path):
        with telemetry.session(directory=tmp_path):
            with tele.span("outer", label="x"):
                tele.event("stage.completed", stage="sort", seconds=2.0)
        path = tmp_path / "events.jsonl"
        meta = json.loads(path.read_text().splitlines()[0])
        assert (meta["kind"], meta["version"]) == ("meta", 1)
        log = read_event_log(path)
        [span] = log.spans
        [event] = log.events
        assert span["name"] == "outer" and span["fields"] == {"label": "x"}
        assert event["parent"] == span["id"]  # nesting survives the disk trip
        assert log.duration >= 0.0

    def test_reader_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = {"kind": "event", "name": "ok", "ts": 0.0, "parent": 0, "fields": {}}
        path.write_text("not json\n" + json.dumps(good) + "\n[1,2]\n\n")
        log = read_event_log(path)
        assert [r["name"] for r in log.events] == ["ok"]

    def test_chrome_trace_is_valid_json(self, tmp_path):
        with telemetry.session() as tel:
            with tele.span("outer"):
                tele.event("marker", x=1)
            records = list(tel.records)
        out = tmp_path / "trace.json"
        telemetry.write_chrome_trace(records, out)
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "i" in phases
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"outer", "marker"} <= names

    def test_render_trace_report(self, tmp_path):
        with telemetry.session(directory=tmp_path):
            with tele.span("tune.search"):
                tele.event("ga.generation", generation=1)
        log = read_event_log(tmp_path / "events.jsonl")
        text = telemetry.render_trace_report(log)
        assert "timeline:" in text
        assert "tune.search" in text
        assert "ga.generation" in text


class TestResumedJobLog:
    def test_each_session_keeps_its_own_spans_on_the_wall_clock(
        self, tmp_path
    ):
        """A job that runs out of budget and is resumed appends a second
        session to its log, where span ids and ``ts`` start over: each
        ``job`` span lists only its own session's children, and the
        timeline, duration and Chrome trace put session 2 after 1."""
        from repro.cli.main import main
        from repro.service import JobService, TuneRequest

        service = JobService(tmp_path / "store", use_cache=False)
        record = service.submit(TuneRequest(
            program="TS", size=10.0, n_train=60, n_trees=20, generations=5,
            population_size=12, seed=3, budget=25,
        ))
        [failed] = service.run_pending()
        assert failed.state == "failed" and "budget" in failed.error
        assert service.resume(record.job_id, budget=100).state == "done"

        path = service.store.event_log_path(record.job_id)
        log = read_event_log(path)
        first, second = [t for t in log.tagged if t.name == "job"]
        assert (first.session, second.session) == (1, 2)
        assert [c.name for c in log.children_of(first)] == ["collect"]
        assert [c.name for c in log.children_of(second)] == [
            "collect", "tune.fit", "tune.search"]
        first_end = first.wall + first.record["dur"]
        assert second.wall >= first_end
        assert log.duration >= second.wall + second.record["dur"] - first.wall

        rows = render_timeline(log, limit=10_000).splitlines()
        offsets = [float(row.split()[0].rstrip("s")) for row in rows]
        assert offsets == sorted(offsets)
        session_one = [t for t in log.tagged
                       if t.kind == "span" and t.session == 1]
        jobs = [i for i, row in enumerate(rows) if row.split()[1] == "job"]
        assert jobs == [0, len(session_one)]

        chrome = tmp_path / "trace.json"
        assert main(["trace", str(path), "--chrome", str(chrome)]) == 0
        one, two = [e for e in json.loads(chrome.read_text())["traceEvents"]
                    if e["name"] == "job"]
        assert two["ts"] >= one["ts"] + one["dur"]


class TestCliIntegration:
    def test_tune_writes_event_log_and_trace_renders(self, tmp_path, capsys):
        from repro.cli.main import main

        out = tmp_path / "tele"
        code = main(
            [
                "tune", "TS", "--size", "10",
                "--train", "60", "--trees", "30", "--generations", "5",
                "--telemetry", str(out), "--trace",
            ]
        )
        assert code == 0
        assert not tele.enabled()  # session torn down after the command
        runs = int(re.search(r"engine\[.*\]: (\d+) runs",
                             capsys.readouterr().out).group(1))

        names = []
        with (out / "events.jsonl").open() as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("name"):
                    names.append(record["name"])
        assert {
            "stage.completed",
            "ga.generation",
            "hm.order",
            "model.fit",
            "engine.request",
            "sim.run",
            "tune.search",
        } <= set(names)
        # One engine.request record per run the engine accounted.
        assert runs >= 60
        assert names.count("engine.request") == runs
        assert sorted(p.name for p in out.iterdir()) == [
            "events.jsonl", "trace.json",
        ]
        assert json.loads((out / "trace.json").read_text())["traceEvents"]

        assert main(["trace", str(out / "events.jsonl")]) == 0
        rendered = capsys.readouterr().out
        assert "timeline:" in rendered and "sim.run" in rendered
        assert "stages:" in rendered  # stage table from stage.completed events

    def test_trace_skips_an_undecodable_line(self, tmp_path, capsys):
        from repro.cli.main import main

        path = tmp_path / "events.jsonl"
        kept = {"kind": "event", "name": "kept", "ts": 0.5, "parent": 0,
                "fields": {}}
        path.write_bytes(b"\xff\n" + json.dumps(kept).encode() + b"\n")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 records" in out and "kept" in out

    def test_trace_of_a_missing_log_exits_2(self, tmp_path, capsys):
        from repro.cli.main import main

        assert main(["trace", str(tmp_path / "missing.jsonl")]) == 2
        assert "missing.jsonl" in capsys.readouterr().err

    def test_quiet_suppresses_info_output(self, capsys):
        from repro.cli.main import main

        assert main(["workloads", "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        # A later invocation without --quiet restores info output.
        assert main(["workloads"]) == 0
        assert "TeraSort" in capsys.readouterr().out

    def test_telemetry_does_not_change_results(self):
        """Determinism: the tuned configuration is identical on/off."""
        from repro.core.tuner import DacTuner
        from repro.engine import InProcessBackend
        from repro.workloads import get_workload

        def tune():
            tuner = DacTuner(
                get_workload("TS"), n_train=60, n_trees=30, seed=0,
                engine=InProcessBackend(),
            )
            tuner.collect()
            tuner.fit()
            return tuner.tune(10.0, generations=5)

        plain = tune()
        with telemetry.session():
            instrumented = tune()
        assert plain.configuration.as_dict() == instrumented.configuration.as_dict()
        assert plain.predicted_seconds == instrumented.predicted_seconds


class TestJsonlSinkModes:
    def test_append_continues_existing_log(self, tmp_path):
        from repro.telemetry.sinks import JsonlSink

        path = tmp_path / "events.jsonl"
        first = JsonlSink(path)
        first.write({"kind": "event", "name": "a", "ts": 0.0, "fields": {}})
        first.close()
        second = JsonlSink(path, append=True)
        second.write({"kind": "event", "name": "b", "ts": 1.0, "fields": {}})
        second.close()
        names = [r["name"] for r in read_event_log(path).events]
        assert names == ["a", "b"]

    def test_live_mode_flushes_per_record(self, tmp_path):
        from repro.telemetry.sinks import JsonlSink

        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, live=True)
        sink.write({"kind": "event", "name": "now", "ts": 0.0, "fields": {}})
        # visible before close: that is what --follow relies on
        assert [r["name"] for r in read_event_log(path).events] == ["now"]
        sink.close()


class TestFollowEvents:
    def test_streams_existing_then_appended_records(self, tmp_path):
        import threading
        from repro.telemetry import follow_events
        from repro.telemetry.sinks import JsonlSink

        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, live=True)
        sink.write({"kind": "event", "name": "first", "ts": 0.0, "fields": {}})

        seen = []

        def tail():
            for record in follow_events(path, poll_seconds=0.01, idle_timeout=1.0):
                seen.append(record.get("name"))
                if len(seen) == 2:
                    return

        thread = threading.Thread(target=tail)
        thread.start()
        sink.write({"kind": "event", "name": "second", "ts": 1.0, "fields": {}})
        thread.join(timeout=10)
        sink.close()
        assert seen == ["first", "second"]

    def test_idle_timeout_and_missing_file(self, tmp_path):
        from repro.telemetry import follow_events

        records = list(
            follow_events(tmp_path / "never.jsonl", poll_seconds=0.01, idle_timeout=0.05)
        )
        assert records == []

    def test_torn_tail_line_held_back(self, tmp_path):
        from repro.telemetry import follow_events

        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "event", "name": "ok", "fields": {}}\n{"kind": "ev')
        seen = [
            r.get("name")
            for r in follow_events(path, poll_seconds=0.01, idle_timeout=0.05)
        ]
        assert seen == ["ok"]

    def test_truncated_file_reopens_from_start(self, tmp_path):
        import threading
        from repro.telemetry import follow_events

        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "event", "name": "old", "fields": {}}\n' * 3)
        seen = []
        resumed = threading.Event()

        def tail():
            for record in follow_events(path, poll_seconds=0.01, idle_timeout=2.0):
                seen.append(record.get("name"))
                if record.get("name") == "fresh":
                    return

        thread = threading.Thread(target=tail)
        thread.start()
        while len(seen) < 3 and thread.is_alive():
            resumed.wait(0.01)
        # Truncate to something *shorter* than the follower's offset.
        path.write_text('{"kind": "event", "name": "fresh", "fields": {}}\n')
        thread.join(timeout=10)
        assert seen == ["old", "old", "old", "fresh"]

    def test_rotated_file_reopens_from_start(self, tmp_path):
        import os
        import threading
        from repro.telemetry import follow_events

        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "event", "name": "old", "fields": {}}\n')
        seen = []

        def tail():
            for record in follow_events(path, poll_seconds=0.01, idle_timeout=2.0):
                seen.append(record.get("name"))
                if record.get("name") == "rotated":
                    return

        thread = threading.Thread(target=tail)
        thread.start()
        while len(seen) < 1 and thread.is_alive():
            threading.Event().wait(0.01)
        # Replace the file wholesale (new inode, same length as before
        # plus growth): only inode detection can catch this.
        replacement = tmp_path / "events.jsonl.new"
        replacement.write_text(
            '{"kind": "event", "name": "rotated", "fields": {}}\n'
        )
        os.replace(replacement, path)
        thread.join(timeout=10)
        assert seen == ["old", "rotated"]

    def test_format_record_lines(self):
        from repro.telemetry import format_record

        assert format_record({"kind": "meta"}) is None
        event_line = format_record(
            {"kind": "event", "name": "ga.generation", "ts": 1.5,
             "fields": {"generation": 3}}
        )
        assert "ga.generation" in event_line and "generation=3" in event_line
        span_line = format_record(
            {"kind": "span", "name": "collect", "ts": 0.0, "dur": 2.0, "fields": {}}
        )
        assert "collect" in span_line and "2.00s" in span_line
