#!/usr/bin/env python3
"""Run every workload with and without tracing and print all metrics.

    python3 perfbench/report.py            # measured sizes, BENCHMARK.json run length
    python3 perfbench/report.py --toy      # the benchmark's smoke test

Each run goes through ``run.py`` in its own process, as the benchmark is
run.  The table lists every metric by name with its unit, and
``error_rate`` (failed / attempted ops) per workload.  Exits 1 unless
every metric of ``BENCHMARK.json`` is printed with its unit (and no
other), every op passed its checks, and ``run.py`` refuses to run in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def run_workload(workload: str, seed: int, seconds: float, trace: int, toy: bool) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--toy"] if toy else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def refuses_without_program(bench: dict) -> bool:
    """run.py must fail, printing no result, where only the benchmark's files are."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        return proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes, 1 s runs")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = 1 if args.toy else bench["run_seconds"]

    problems = []
    print(f"{'workload':14s} {'metric':34s} {'value':>14s}  unit")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(workload, args.seed, seconds, trace, args.toy)
            got = result["metrics"]
            for metric in bench[kind]:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or not in {metric['unit']}")
                    continue
                print(f"{workload:14s} {metric['name']:34s} {entry['value']:14.6g}  {entry['unit']}")
            extra = set(got) - {m["name"] for m in bench[kind]}
            if extra:
                problems.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
            rate = result["failed"] / result["attempted"]
            if trace == 0:
                print(f"{workload:14s} {'error_rate':34s} {rate:14.6g}  ratio"
                      f"  ({result['failed']} of {result['attempted']} ops)")
            if rate != 0 or not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed ops")
    if not refuses_without_program(bench):
        problems.append("run.py did not refuse to run without the program's sources")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
