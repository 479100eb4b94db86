"""Print the peak memory Python allocates while one pseudoherm command runs.

Runs the command in process through ``pseudoherm.cli.main`` under
``tracemalloc``, writes its report into a temporary directory, and prints
the peak in MiB and, when the command has ``--n N``, in n x n complex
arrays (16 N^2 bytes each)::

    python3 tools/trace_peak.py discretize --family harmonic --alpha 1 --xmax 10 --n 512

With ``--max-arrays X`` before the command it exits 1 when the peak is
above X n x n complex arrays (the command needs ``--n``), else with the
command's exit code::

    python3 tools/trace_peak.py --max-arrays 6.2 discretize --family harmonic \
        --alpha 1 --xmax 10 --n 512

``tracemalloc`` counts the arrays numpy allocates, every n x n array of
the pipeline among them, but not the workspace OpenBLAS allocates itself.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    max_arrays = None
    if argv[:1] == ["--max-arrays"]:
        max_arrays = float(argv[1])
        argv = argv[2:]
        if "--n" not in argv:
            print("error: --max-arrays needs a command with --n", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    from pseudoherm import cli

    with tempfile.TemporaryDirectory() as work:
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--json", str(Path(work) / "report.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    line = f"peak {peak / 2**20:.1f} MiB"
    if "--n" in argv:
        n = int(argv[argv.index("--n") + 1])
        arrays = peak / (16 * n * n)
        line += f" = {arrays:.2f} n x n complex arrays (n = {n})"
        if max_arrays is not None and arrays > max_arrays:
            print(f"{line}, above the bound of {max_arrays} arrays: {' '.join(argv)}")
            return 1
    print(f"{line}, exit {code}: {' '.join(argv)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
