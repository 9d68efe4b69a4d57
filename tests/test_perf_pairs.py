"""scripts/perf_pairs.py on kept outputs: pairing, wins, fingerprints,
and the no-regression verdict.

Every output already ends in perfbench's JSON line, so the script reuses
it and runs no benchmark.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(path: Path, op_s: float, fingerprints, failed: int = 0):
    lines = [
        f"op op{i} TS seed=7 size=10 raw 1.0 s ref {op_s} s ok fingerprint={fp}"
        for i, fp in enumerate(fingerprints)
    ]
    metrics = {"op_p50_s": {"value": op_s, "unit": "s"}}
    lines.append(json.dumps(
        {"correct": not failed, "attempted": len(fingerprints),
         "failed": failed, "metrics": metrics}
    ))
    path.write_text("\n".join(lines) + "\n")


def checkout(tmp_path: Path) -> Path:
    spec = {"run_seconds": 40,
            "end_to_end": [{"name": "op_p50_s", "better": "lower",
                            "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    return tmp_path


def test_pairs_wins_ties_and_fingerprints(perf_pairs, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    parent = [1.30, 1.20, 1.25, 1.10]
    change = [1.10, 1.20, 1.05, 1.15]  # win, tie, win, loss
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        write_run(out / f"tune-cold-{seed}-parent.txt", p, ["a", "b"])
        write_run(out / f"tune-cold-{seed}-change.txt", c, ["a", "b"])
    args = ["--parent", str(checkout(tmp_path)), "--change", str(tmp_path),
            "--workload", "tune-cold", "--seeds", "1-4", "--out", str(out)]
    assert perf_pairs.main(args) == 0
    summary = json.loads((out / "tune-cold-summary.json").read_text())
    assert summary["metrics"]["op_p50_s"]["wins"] == 2
    assert summary["metrics"]["op_p50_s"]["ties"] == 1
    assert summary["metrics"]["op_p50_s"]["gain_rule"] is False
    assert summary["metrics"]["op_p50_s"]["no_regression"] == "within"
    assert summary["fingerprints"] == {"compared": 8, "mismatched": 0}
    printed = capsys.readouterr().out
    assert "seed 1: change first" in printed
    assert "25%  within\n" in printed

    write_run(out / "tune-cold-3-change.txt", 1.05, ["a", "x"])
    assert perf_pairs.main(args) == 1
    assert "fingerprint differs on op1 TS seed=7 size=10: b vs x" in (
        capsys.readouterr().out
    )


def test_no_regression_verdicts(perf_pairs):
    verdict = perf_pairs.no_regression
    parent = [1.00, 1.02, 0.98, 1.01, 0.99]  # IQR 2% of the median
    slower = [1.20, 1.22, 1.19, 1.21, 1.18]
    assert verdict(parent, [1.05, 1.06, 1.04, 1.05, 1.07], 0.1, True) == "within"
    assert verdict(parent, slower, 0.1, True) == "worse"
    assert verdict(parent, slower, 0.1, False) == "within"  # higher is better
    assert verdict(parent, [0.85, 0.8, 0.82, 0.9, 0.86], 0.1, False) == "worse"
    assert verdict(parent, slower, None, True) is None
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]  # IQR 40% of the median
    assert verdict(noisy, [1.0] * 5, 0.25, True) == "unresolved"
    assert verdict(noisy, [1.5] * 5, 0.25, True) == "unresolved"
    # Every change run beats every parent run: resolved however noisy.
    assert verdict(noisy, [0.5, 0.55, 0.4, 0.59, 0.5], 0.25, True) == "within"


def test_seed_ranges(perf_pairs):
    assert list(perf_pairs.parse_seeds("801-803")) == [801, 802, 803]
    assert list(perf_pairs.parse_seeds("5")) == [5]
    for bad in ("9-3", "a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            perf_pairs.parse_seeds(bad)


def test_checkout_with_bytecode_is_refused(perf_pairs, tmp_path, capsys):
    sides = {name: tmp_path / name for name in ("parent", "change")}
    for path in sides.values():
        path.mkdir()
        checkout(path)
    stale = sides["change"] / "perfbench" / "__pycache__"
    stale.mkdir(parents=True)
    out = tmp_path / "out"
    args = ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "tune-cold", "--seeds", "1-2", "--out", str(out)]
    assert perf_pairs.main(args) == 2
    assert f"first {stale});" in capsys.readouterr().err
    assert not out.exists()  # refused before any run


def test_runs_write_no_bytecode(perf_pairs, tmp_path, monkeypatch):
    envs = []
    monkeypatch.setattr(
        perf_pairs.subprocess, "run", lambda cmd, **kwargs: envs.append(kwargs["env"])
    )
    perf_pairs.run_side(tmp_path, "tune-cold", 1, 40, tmp_path / "run.txt")
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]
