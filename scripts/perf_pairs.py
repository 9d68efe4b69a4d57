#!/usr/bin/env python3
"""Compare two checkouts on the DAC benchmark, in alternating pairs.

Usage:

    python scripts/perf_pairs.py --parent ../parent --change . \\
        --workload tune-cold --seeds 801-810 [--out perf-pairs]

For every seed it runs ``perfbench/run.py --trace 0`` once in each
checkout, at the run length ``BENCHMARK.json`` fixes.  Seed parity
decides which side goes first (even seeds run the parent first), so
machine drift does not favour one side.  Every run's full output is
kept under ``--out`` as ``<workload>-<seed>-<side>.txt``; a file that
already ends in perfbench's JSON line is reused, so an interrupted
comparison resumes where it stopped.

It then prints, per end-to-end metric of ``BENCHMARK.json``: each
side's median and quartiles, the parent's interquartile range, the
change's wins and ties over the pairs, whether the gain rule holds
(at least nine tenths of the pairs won and a median difference larger
than the parent's IQR), and the no-regression verdict against the
metric's ``bound`` (see :func:`no_regression`).  It also prints
failed/attempted ops per side and checks that every op's fingerprint
is the same on both sides.

Exits 1 when a run fails or a fingerprint differs.  The benchmark's
own files are only executed, never imported or modified.

Exits 2 before any run when either checkout holds a ``__pycache__``
under ``src/`` or ``perfbench/``: a side that loads modules from stale
bytecode while the other compiles them from source skews ``setup_s``.
Compare clean copies (``git archive`` or ``git clone``).  Every run
sets ``PYTHONDONTWRITEBYTECODE=1``, so the copies stay clean from one
seed to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FINGERPRINT = re.compile(r"^op (.*) fingerprint=(\S+)$")


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def load_result(path: Path):
    """perfbench's final JSON object from a kept output, or None."""
    if not path.is_file():
        return None
    lines = path.read_text().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_side(checkout: Path, workload: str, seed: int, seconds, out: Path):
    """One perfbench run in ``checkout``, its output kept in ``out``."""
    result = load_result(out)
    if result is None:
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        print(f"  {out.name}: running", flush=True)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        with out.open("w") as sink:
            subprocess.run(
                cmd, cwd=checkout, stdout=sink, stderr=subprocess.STDOUT, env=env
            )
        result = load_result(out)
    return result


def bytecode_dirs(checkout: Path):
    """Every ``__pycache__`` directory under the checkout's ``src/`` and
    ``perfbench/``."""
    return sorted(
        path
        for top in ("src", "perfbench")
        for path in (checkout / top).rglob("__pycache__")
    )


def op_fingerprints(path: Path):
    """``(op description, fingerprint)`` per op line of one output."""
    ops = []
    for line in path.read_text().splitlines():
        match = FINGERPRINT.match(line)
        if match:
            # Drop the timings and status; keep label, program, seed, size.
            ops.append((match.group(1).split(" raw ")[0], match.group(2)))
    return ops


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def no_regression(parent, change, bound, lower):
    """``within``, ``worse`` or ``unresolved`` for one metric, or None.

    ``bound`` is the metric's ``BENCHMARK.json`` bound, a fraction of
    the parent median (None: the metric has no bound).  The change is
    ``within`` when its median is worse than the parent's by at most
    that much and ``worse`` when by more.  When the parent's own IQR is
    wider than the bound the runs are too noisy to tell: ``unresolved``,
    unless every change run beats every parent run.
    """
    if bound is None:
        return None
    flip = 1.0 if lower else -1.0
    if max(flip * c for c in change) < min(flip * p for p in parent):
        return "within"
    q1, p50, q3 = quartiles(parent)
    scale = abs(p50) or 1.0
    if (q3 - q1) / scale > bound:
        return "unresolved"
    c50 = statistics.median(change)
    return "within" if flip * (c50 - p50) / scale <= bound else "worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        metavar="A-B")
    parser.add_argument("--out", type=Path, default=Path("perf-pairs"),
                        help="directory that keeps every run's output")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        stale = bytecode_dirs(checkout)
        if stale:
            print(f"{side} checkout carries bytecode ({len(stale)} __pycache__ "
                  f"directories, first {stale[0]}); compare clean copies",
                  file=sys.stderr)
            return 2
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)

    results = {side: {} for side in SIDES}
    outputs = {side: {} for side in SIDES}
    for seed in args.seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        print(f"seed {seed}: {order[0]} first", flush=True)
        for side in order:
            out = args.out / f"{args.workload}-{seed}-{side}.txt"
            outputs[side][seed] = out
            results[side][seed] = run_side(
                checkouts[side], args.workload, seed, spec["run_seconds"], out
            )

    status = 0
    broken = [
        f"{side} seed {seed}" for side in SIDES
        for seed, result in results[side].items() if result is None
    ]
    if broken:
        print("runs without a result: " + ", ".join(broken))
        status = 1
    seeds = [
        s for s in args.seeds
        if results["parent"][s] is not None and results["change"][s] is not None
    ]
    if not seeds:
        return 1

    print(f"\n{args.workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
    print(f"{'metric':16s} {'parent':>12s} {'(q1-q3)':15s} {'IQR':>8s} "
          f"{'change':>12s} {'(q1-q3)':15s} {'delta':>8s} {'wins':>5s} "
          f"{'ties':>5s}  {'gain rule':9s}  {'bound':>5s}  no regression")
    summary = {"workload": args.workload, "seeds": seeds, "metrics": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {
            side: [results[side][s]["metrics"][name]["value"] for s in seeds]
            for side in SIDES
        }
        stats = {side: quartiles(values[side]) for side in SIDES}
        iqr = stats["parent"][2] - stats["parent"][0]
        wins = ties = 0
        for p, c in zip(values["parent"], values["change"]):
            if p == c:
                ties += 1
            elif (c < p) == lower:
                wins += 1
        p50, c50 = stats["parent"][1], stats["change"][1]
        delta = (c50 - p50) / p50 if p50 else 0.0
        gained = (c50 < p50) == lower and c50 != p50
        rule = gained and wins >= 0.9 * len(seeds) and abs(c50 - p50) > iqr
        bound = metric.get("bound")
        verdict = no_regression(values["parent"], values["change"], bound, lower)
        print(f"{name:16s} {p50:12.4f} ({stats['parent'][0]:.4f}-"
              f"{stats['parent'][2]:.4f}) {iqr:8.4f} {c50:12.4f} "
              f"({stats['change'][0]:.4f}-{stats['change'][2]:.4f}) "
              f"{100 * delta:+7.2f}% {wins:5d} {ties:5d}  "
              f"{'met' if rule else 'not met':9s}  "
              f"{'-' if bound is None else f'{100 * bound:.0f}%':>5s}  "
              f"{verdict or '-'}")
        summary["metrics"][name] = {
            "parent": values["parent"], "change": values["change"],
            "wins": wins, "ties": ties, "gain_rule": rule,
            "no_regression": verdict,
        }

    for side in SIDES:
        attempted = sum(results[side][s]["attempted"] for s in seeds)
        failed = sum(results[side][s]["failed"] for s in seeds)
        print(f"{side}: {failed} of {attempted} ops failed")

    compared = mismatched = 0
    for seed in seeds:
        ops = {side: op_fingerprints(outputs[side][seed]) for side in SIDES}
        if len(ops["parent"]) != len(ops["change"]):
            print(f"seed {seed}: {len(ops['parent'])} parent ops "
                  f"vs {len(ops['change'])} change ops")
            status = 1
        for (op, a), (_, b) in zip(ops["parent"], ops["change"]):
            compared += 1
            if a != b:
                mismatched += 1
                print(f"seed {seed}: fingerprint differs on {op}: {a} vs {b}")
    print(f"fingerprints: {compared - mismatched} of {compared} ops identical")
    if mismatched:
        status = 1
    summary["fingerprints"] = {"compared": compared, "mismatched": mismatched}
    (args.out / f"{args.workload}-summary.json").write_text(
        json.dumps(summary, indent=1) + "\n"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
