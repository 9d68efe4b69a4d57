"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.telemetry import read_event_log

SRC = str(Path(__file__).parent.parent / "src")


def _repro(*argv: str) -> subprocess.CompletedProcess:
    """Run ``repro`` as a genuinely separate process (shared-store tests)."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_requires_size(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "TS"])

    def test_experiment_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestWorkloadsCommand:
    def test_lists_all_programs(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for abbr in ("PR", "KM", "BA", "NW", "WC", "TS"):
            assert abbr in out


class TestRunCommand:
    def test_run_default(self, capsys):
        assert main(["run", "TS", "--size", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table-2 defaults" in out and "total:" in out

    def test_run_with_stages(self, capsys):
        assert main(["run", "WC", "--size", "80", "--stages"]) == 0
        out = capsys.readouterr().out
        assert "tokenize-combine" in out and "merge-counts" in out

    def test_run_expert(self, capsys):
        assert main(["run", "KM", "--size", "160", "--expert"]) == 0
        assert "expert rules" in capsys.readouterr().out

    def test_run_report_flag(self, capsys):
        assert main(["run", "TS", "--size", "40", "--report"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out and "===" in out

    def test_run_with_conf_file(self, capsys, tmp_path, space):
        from repro.io import save_spark_conf

        conf = tmp_path / "my.conf"
        save_spark_conf(space.from_dict({"spark.executor.memory": 8192}), conf)
        assert main(["run", "TS", "--size", "10", "--conf", str(conf)]) == 0
        assert str(conf) in capsys.readouterr().out

    def test_conflicting_config_sources_error(self, capsys, tmp_path):
        code = main(["run", "TS", "--size", "10", "--conf", "x", "--expert"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_workload_reports_error(self, capsys):
        assert main(["run", "Nope", "--size", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCollectCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "S.csv"
        code = main(["collect", "TS", "--examples", "12", "--output", str(out_file)])
        assert code == 0
        assert out_file.exists()
        lines = out_file.read_text().splitlines()
        assert len(lines) == 13  # header + 12 rows

    def test_csv_loads_back(self, tmp_path, space):
        import csv

        out_file = tmp_path / "S.csv"
        main(["collect", "KM", "--examples", "10", "--output", str(out_file)])
        with out_file.open(newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == ["t_seconds", "dsize", "dsize_bytes", *space.names]
        assert len(rows) == 10
        assert all(float(row[0]) > 0 for row in rows)


class TestTuneCommand:
    def test_end_to_end_with_conf_output(self, capsys, tmp_path, space):
        from repro.io import load_spark_conf

        conf = tmp_path / "spark-dac.conf"
        code = main(
            [
                "tune", "TS", "--size", "20",
                "--train", "120", "--trees", "60",
                "--generations", "20",
                "--output", str(conf),
                "--spark-submit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured: DAC" in out
        assert "spark-submit" in out
        tuned = load_spark_conf(conf, space)
        assert len(tuned) == 41


class TestExperimentCommand:
    def test_fig2_fast(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out


class TestJobsCommand:
    """The ``repro jobs`` front end over a run store."""

    FAST = ["--train", "30", "--trees", "10", "--generations", "2", "--seed", "1"]

    def test_requires_store_or_url(self):
        # --store moved out of the parser's required set when --url
        # (remote mode) arrived; the command itself enforces exactly one.
        assert main(["jobs", "submit", "TS", "--size", "10"]) == 2
        assert main(
            ["jobs", "submit", "TS", "--size", "10",
             "--store", "s", "--url", "http://localhost:1"]
        ) == 2

    def test_submit_list_status_cancel(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["jobs", "submit", "TS", "--size", "10", *self.FAST, "--store", store]
        ) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("ts-")

        assert main(["jobs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "queued" in out

        assert main(["jobs", "status", job_id, "--store", store]) == 0
        assert "state: queued" in capsys.readouterr().out

        assert main(["jobs", "cancel", job_id, "--store", store]) == 0
        capsys.readouterr()
        assert main(["jobs", "status", job_id, "--store", store]) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_submit_run_then_trace(self, capsys, tmp_path):
        store = tmp_path / "store"
        code = main(
            ["jobs", "submit", "TS", "--size", "10", *self.FAST,
             "--store", str(store), "--run", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out and "fingerprint" in out
        job_id = out.strip().splitlines()[0]

        # the per-job event log renders through repro trace
        events = store / "events" / f"{job_id}.jsonl"
        assert main(["trace", str(events)]) == 0
        out = capsys.readouterr().out
        assert "collect" in out and "ga.generation" in out

        # and --follow streams it (idle timeout ends the tail)
        assert main(
            ["trace", str(events), "--follow", "--idle-timeout", "0.05"]
        ) == 0
        assert "ga.generation" in capsys.readouterr().out

    def test_jobs_run_drains_queue(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        main(["jobs", "submit", "TS", "--collect-only", *self.FAST, "--store", store])
        capsys.readouterr()
        assert main(["jobs", "run", "--store", store, "--no-cache"]) == 0
        assert "done" in capsys.readouterr().out

    def test_resume_needs_id_or_all(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["jobs", "resume", "--store", store]) == 2

    def test_status_of_missing_job_errors(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["jobs", "status", "nope", "--store", store]) == 2


class TestJobsCliAcrossProcesses:
    """``repro jobs`` against a store another process populated.

    The store is the only channel: one process submits (or runs), a
    different one lists, inspects, cancels, and follows — the CLI story
    the multi-host worker design depends on.
    """

    FAST = TestJobsCommand.FAST

    def test_list_status_cancel_jobs_submitted_elsewhere(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        submitted = _repro(
            "jobs", "submit", "TS", "--size", "10", *self.FAST, "--store", store
        )
        assert submitted.returncode == 0, submitted.stderr
        job_id = submitted.stdout.strip().splitlines()[-1]
        assert job_id.startswith("ts-")

        assert main(["jobs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "queued" in out

        assert main(["jobs", "status", job_id, "--store", store]) == 0
        assert "state: queued" in capsys.readouterr().out

        assert main(["jobs", "cancel", job_id, "--store", store]) == 0
        capsys.readouterr()
        # ... and the cancel is visible back in a third process
        status = _repro("jobs", "status", job_id, "--store", store)
        assert status.returncode == 0 and "cancelled" in status.stdout

    def test_status_reflects_run_in_other_process(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["jobs", "submit", "TS", "--collect-only", *self.FAST, "--store", store]
        ) == 0
        job_id = capsys.readouterr().out.strip()
        ran = _repro("jobs", "run", "--store", store, "--no-cache")
        assert ran.returncode == 0, ran.stderr
        assert main(["jobs", "status", job_id, "--store", store]) == 0
        assert "state: done" in capsys.readouterr().out

    def test_trace_follow_ends_cleanly_when_job_completes(self, capsys, tmp_path):
        """``repro trace --follow`` on a job another process is running:
        the stream carries the live session and, once ``job.completed``
        lands and the log goes quiet, the idle timeout ends the follow
        with a clean exit — no hang, no error."""
        store = tmp_path / "store"
        assert main(
            ["jobs", "submit", "TS", "--collect-only", *self.FAST,
             "--store", str(store)]
        ) == 0
        job_id = capsys.readouterr().out.strip()
        events = store / "events" / f"{job_id}.jsonl"

        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "jobs", "run",
             "--store", str(store), "--no-cache"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # The idle clock starts with the follow: begin it once the
            # child has created the job log, however slowly it starts.
            deadline = time.monotonic() + 120.0
            while not events.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            code = main(
                ["trace", str(events), "--follow", "--idle-timeout", "2"]
            )
        finally:
            child.wait(timeout=300)
        assert code == 0
        out = capsys.readouterr().out
        assert "collect" in out
        assert "job.completed" in out  # the follow saw the job finish

    def test_trace_follow_into_closed_pipe_stops_quietly(self, tmp_path):
        """``repro trace --follow | head -1``: once the reader is gone the
        follow stops at once, exits non-zero and writes nothing to stderr."""
        events = tmp_path / "events.jsonl"
        record = {"kind": "event", "name": "tick", "fields": {"pad": "x" * 200}}
        events.write_text((json.dumps(record) + "\n") * 2000)  # > a pipe buffer
        # Leaving the ``with`` closes both pipes and reaps the child.
        with subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", str(events),
             "--follow", "--idle-timeout", "30"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            try:
                assert child.stdout.readline()
                child.stdout.close()
                assert child.wait(timeout=20) != 0
                assert b"Logging error" not in child.stderr.read()
            finally:
                child.kill()


class TestWorkerCommand:
    """The ``repro worker`` front end over the lease-based loop."""

    FAST = TestJobsCommand.FAST

    def test_parser_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_drains_store_and_logs_leases(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        submitted = _repro(
            "jobs", "submit", "TS", "--collect-only", *self.FAST, "--store", store
        )
        job_id = submitted.stdout.strip().splitlines()[-1]

        code = main(
            ["worker", "--store", store, "--worker-id", "w-cli",
             "--poll-interval", "0.01", "--exit-when-idle", "2", "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert job_id in out and "done" in out

        log_path = tmp_path / "store" / "events" / "worker-w-cli.jsonl"
        names = [
            json.loads(line).get("name")
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        assert "worker.started" in names
        assert "lease.acquired" in names
        assert "lease.released" in names
        assert names[-1] == "worker.exit"
        # The job's records go to its own log, which opens with the
        # session's meta record, and not to the worker's.
        assert "job.completed" not in names
        job_log = tmp_path / "store" / "events" / f"{job_id}.jsonl"
        records = [json.loads(line) for line in job_log.read_text().splitlines()]
        assert records[0]["kind"] == "meta"
        assert "job.completed" in [record.get("name") for record in records]


class TestStoreFlagOnTuneCollect:
    def test_tune_via_store_writes_conf(self, capsys, tmp_path):
        conf = tmp_path / "spark-dac.conf"
        code = main(
            ["tune", "TS", "--size", "10", "--train", "30", "--trees", "10",
             "--generations", "2", "--store", str(tmp_path / "store"),
             "--output", str(conf), "--no-cache"]
        )
        assert code == 0
        assert conf.exists()
        out = capsys.readouterr().out
        assert "submitted job" in out and "fingerprint" in out

    def test_tune_via_store_prints_spark_submit_and_job_log(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        own = tmp_path / "tele"
        code = main(
            ["tune", "TS", "--size", "10", "--train", "30", "--trees", "10",
             "--generations", "2", "--store", str(store), "--spark-submit",
             "--no-cache", "--telemetry", str(own)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spark-submit \\" in out and "--conf spark." in out
        job_id = out.split("submitted job ", 1)[1].split()[0]
        job_log = store / "events" / f"{job_id}.jsonl"
        assert f"event log: {job_log}" in out

        # --telemetry records the command's own session; the job's
        # records are in the job log only.
        names = [r["name"] for r in read_event_log(own / "events.jsonl").records]
        assert "lease.acquired" in names and "engine.request" not in names
        names = [r["name"] for r in read_event_log(job_log).records]
        assert "engine.request" in names

    def test_collect_via_store_writes_csv(self, capsys, tmp_path):
        out_file = tmp_path / "set.csv"
        code = main(
            ["collect", "TS", "--examples", "20", "--output", str(out_file),
             "--store", str(tmp_path / "store")]
        )
        assert code == 0
        assert out_file.exists()
        assert "submitted job" in capsys.readouterr().out
