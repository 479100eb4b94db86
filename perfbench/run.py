#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pseudoherm command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-real --seed 1 --seconds 28 --trace 0

One op is one in-process call of ``pseudoherm.cli.main(argv)`` with
``--json`` to a file, on the argv and input files that ``workloads.py``
generates from the seed.  Ops run back to back from this one process (a
closed loop with one client) until the next op would end after
``--seconds``; at least two ops run, so that two identical invocations
can be compared byte for byte.  Before the timed ops, one toy-size op of
the same workload warms up imports, code paths and the BLAS.

Every op is checked: a non-zero exit or an exception, an oracle miss, a
verdict that differs from ``reference.json``, or output bytes that differ
from the run's first op count as a failure (``failed`` of ``attempted``;
``error_rate`` in the summary).

``--trace 0`` prints the end-to-end metrics: ``op_s`` (median op wall
time), ``setup_s`` (median over fresh interpreters of ``import
pseudoherm.cli`` plus ``make_parser()``) and ``peak_rss_mb`` (peak
resident memory of this process).  ``--trace 1`` alternates untraced and
traced ops and prints the per-layer metrics of ``tracer.py``, each the
median over the traced ops, and ``trace.overhead_s``, the traced minus
the untraced median op time.  The spans of the last traced op of a run
are written to ``.perfbench-work/spans-<workload>.jsonl``.

The BLAS runs with a pinned thread count, recorded with the rest of the
environment on the ``env`` line of every run.  ``--toy`` runs the
smoke-test sizes.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_OPS = 2
SETUP_CODE = "import pseudoherm.cli as cli; cli.make_parser()"


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MiB"), ("_ratio", "ratio"), ("_bytes", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for lib in (numpy, scipy):
        deps = lib.show_config(mode="dicts")["Build Dependencies"]
        blas[lib.__name__] = f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"CLI import failed: {proc.stderr.decode()[-500:]}")
    return times


class Runner:
    """Runs and checks the ops of one workload."""

    def __init__(self, cli, workload, expected, out: Path):
        self.cli = cli
        self.workload = workload
        self.expected = expected
        self.out = out
        self.first: bytes | None = None
        self.first_why: str | None = None
        self.attempted = 0
        self.failed = 0

    def call(self) -> tuple[float, bytes | None, str | None]:
        """One CLI invocation: (wall seconds, report bytes, failure reason)."""
        self.out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.cli.main(self.workload.argv + ["--json", str(self.out)])
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, None, f"exit code {code}"
        return elapsed, self.out.read_bytes(), None

    def _check(self, data: bytes) -> str | None:
        doc = json.loads(data)
        why = self.workload.oracle(doc)
        if why is None and self.expected is None:
            why = f"reference.json has no verdicts for variant {self.workload.variant}"
        if why is None:
            import workloads  # numpy may only load after pin_blas(), so not at the top

            if json.loads(json.dumps(workloads.verdicts(doc))) != self.expected:
                why = "verdicts differ from reference.json"
        return why

    def op(self) -> tuple[float, bytes | None]:
        """Run, check and count one op."""
        elapsed, data, why = self.call()
        if why is None:
            if self.first is None:
                self.first, self.first_why = data, self._check(data)
            why = self.first_why if data == self.first else "output bytes differ from the first op"
        self.attempted += 1
        if why is not None:
            self.failed += 1
            print(f"op {self.attempted} failed: {why}", file=sys.stderr)
        return elapsed, data


def run_untraced(runner: Runner, seconds: float) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start + statistics.median(times) <= seconds:
        times.append(runner.op()[0])
    return times


def run_traced(runner: Runner, tracer, seconds: float) -> tuple[list[float], list[float], list[dict]]:
    """Alternate untraced and traced ops; per-layer metrics of each traced op."""
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + statistics.median(plain)
                         + statistics.median(traced) <= seconds):
        plain.append(runner.op()[0])
        with tracer.installed(len(traced)):
            elapsed, data = runner.op()
        metrics = tracer.op_metrics(len(traced))
        metrics["linalg.report_bytes"] = len(data) if data is not None else 0
        traced.append(elapsed)
        layers.append(metrics)
    return plain, traced, layers


def pin_blas() -> None:
    """Pin the BLAS thread count; it is read when numpy and scipy load."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_cli():
    """Import ``pseudoherm.cli`` from this checkout's ``src``, or return None."""
    if not (SRC / "pseudoherm" / "cli.py").is_file():
        print(f"error: no pseudoherm sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import pseudoherm.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pseudoherm":
        print(f"error: imported pseudoherm from {cli.__file__}, not {SRC}", file=sys.stderr)
        return None
    return cli


def main(argv=None) -> int:
    pin_blas()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    cli = import_cli()
    if cli is None:
        return 2

    size = "toy" if args.toy else "full"
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        env = environment()
        print("env " + json.dumps(env))
        setup = [] if args.trace else measure_setup()

        # Warm-up op at toy size, not counted.
        (run_dir / "warm-up").mkdir(parents=True)
        warm = workloads.make(args.workload, args.seed, "toy", run_dir / "warm-up")
        Runner(cli, warm, None, run_dir / "warm-up" / "report.json").call()

        (run_dir / size).mkdir(exist_ok=True)
        workload = workloads.make(args.workload, args.seed, size, run_dir / size)
        with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
            expected = json.load(fh)[size][args.workload].get(workload.variant)
        runner = Runner(cli, workload, expected, run_dir / size / "report.json")

        print(f"workload {args.workload} seed {args.seed} variant {workload.variant} "
              f"size {size}, {env['blas_threads']} BLAS thread(s), {env['nproc']} CPUs")
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            plain, traced, layers = run_traced(runner, tracer, args.seconds)
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
            values = {name: statistics.median(op[name] for op in layers) for name in layers[0]}
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            print(f"per-layer values are medians of {len(traced)} traced ops; "
                  f"untraced op_s {statistics.median(plain):.4f} s over {len(plain)} ops")
        else:
            times = run_untraced(runner, args.seconds)
            values = {
                "op_s": statistics.median(times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"op_s is the median of {len(times)} ops "
                  f"({' '.join(f'{t:.3f}' for t in times)}), "
                  f"setup_s of {len(setup)} interpreters ({' '.join(f'{t:.3f}' for t in setup)})")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    print(f"  {'error_rate':34s} {runner.failed / runner.attempted:14.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
