#!/usr/bin/env python3
"""Record the verdict reference of every workload variant.

    python3 perfbench/record_reference.py

Runs each variant of each workload once, at both sizes, and writes the
verdict fields of its report to ``reference.json``.  Run it only on a
commit whose reports are known to be right: the benchmark counts every
op whose verdicts differ from this file as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.pin_blas()
    import workloads

    cli = run.import_cli()
    if cli is None:
        return 2

    work = run.WORK / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    reference: dict = {}
    try:
        for size in ("full", "toy"):
            for name in workloads.NAMES:
                for variant in range(workloads.variant_count(name)):
                    w = workloads.make(name, 0, size, work, variant)
                    _, data, why = run.Runner(cli, w, None, work / "report.json").call()
                    doc = json.loads(data) if why is None else None
                    why = why or w.oracle(doc)
                    if why is not None:
                        print(f"{size} {name} {w.variant}: {why}", file=sys.stderr)
                        return 1
                    reference.setdefault(size, {}).setdefault(name, {})[w.variant] = (
                        workloads.verdicts(doc))
                    print(f"{size} {name} {w.variant}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.ROOT / "perfbench" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
