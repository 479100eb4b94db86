"""Byte-identity corpus of pseudoherm reports.

Runs a fixed list of ``builtin``, ``analyze``, ``discretize`` and
``sweep`` invocations in process through ``pseudoherm.cli.main`` and
prints one line per report::

    index exit sha256 argv

The sha256 is that of the report bytes (``-`` when no report was
written).  Two checkouts that print the same lines write the same
reports, so running this on a change and on its parent shows which
reports a change alters.  Input matrices are written into a temporary
directory, which is also the working directory, and passed by relative
name, so ``input.source`` is the same on every tree.

BLAS is pinned to one thread, because a threaded BLAS may sum in a
different order from run to run.

    python3 tools/report_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DISCRETIZE = [
    ["--family", "harmonic", "--alpha", "1.0", "--xmax", "10.0", "--n", "512"],
    ["--family", "harmonic", "--alpha", "0.96", "--xmax", "10.0", "--n", "512"],
    ["--family", "morse", "--C", "3.5", "--D", "4.0", "--shift", "0.5", "--xmin", "-4.0",
     "--xmax", "14.0", "--mass", "0.5", "--n", "768"],
    ["--family", "harmonic", "--alpha", "1", "--xmax", "10", "--n", "256"],
    ["--family", "gauged-oscillator", "--alpha", "1", "--beta", "0.25", "--xmax", "10",
     "--n", "256"],
    ["--family", "gauged-hermitian", "--alpha", "1", "--gamma", "0.5", "--xmax", "10",
     "--n", "256"],
    ["--family", "morse", "--C", "3.5", "--D", "4", "--shift", "0.5", "--xmin", "-4",
     "--xmax", "14", "--n", "256"],
    ["--family", "monomial-pt", "--g", "1", "--k", "3", "--xmax", "6", "--n", "256",
     "--states", "5"],
]

# H8 with c = 0.6, d = 0.8: the closed-form mu is singular at b = 1.
H8_SINGULAR = ["a=0", "c=0.6", "d=0.8000000000000002"]

BUILTIN = [
    ["H5", "a=0", "b=0.6", "c=1"],
    ["H5", "a=0", "b=2", "c=1"],
    ["H6", "a=1", "b=1", "c=2"],
    ["H7", "a=0", "b=1", "c=2"],
    ["H8", "a=1", "b=1", "c=2", "d=1"],
    ["H8", "a=0", "b=3", "c=1", "d=0.5"],
    ["H8", "b=1", *H8_SINGULAR],
    ["M3"],
]

SWEEP = [
    ["H8", "b", "a=0.3", "c=1", "d=0.5", "--from", "0", "--to", "2", "--step", "0.01"],
    ["H5", "b", "a=0", "c=1", "--from", "0", "--to", "2", "--step", "0.05"],
    ["H8", "b", *H8_SINGULAR, "--from", "0", "--to", "2", "--step", "0.5"],
    ["M3", "g", "--from", "0", "--to", "3", "--step", "0.1"],
]


def write_inputs() -> list[list[str]]:
    """Write the ``analyze`` inputs into the working directory; return their argv."""
    import numpy as np

    from pseudoherm import SIGMA_X, h5, h8, save_matrix

    rng = np.random.default_rng(20)
    n = 64
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = np.eye(n) + (0.3 / np.sqrt(2.0 * n)) * noise
    s_inv = np.linalg.inv(s)
    files = {
        "dense.json": s @ np.diag(np.linspace(-2.0, 2.0, n)) @ s_inv,
        "dense_rho.json": s.conj() @ s_inv,
        "dense_eta.json": np.linalg.inv(s @ s.conj().T),
        "h8.json": h8(1.0, 1.0, 2.0, 1.0),
        "h5.json": h5(0.0, 0.6, 1.0),
        "sigma_x.json": SIGMA_X,
        "singular.json": np.ones((2, 2)),
        "random5.json": rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
        "zero.json": np.zeros((2, 2)),
        "huge.json": np.diag([1e200, 2e200, -3e200]),
        "tiny.json": np.diag([1e-200, 2e-200, -3e-200]),
    }
    for name, m in files.items():
        save_matrix(name, m)
    return [
        ["--matrix", "dense.json", "--rho", "dense_rho.json", "--eta", "dense_eta.json"],
        ["--matrix", "h8.json"],
        ["--matrix", "h5.json", "--rho", "sigma_x.json", "--parity", "sigma_x.json"],
        ["--matrix", "h5.json", "--mu", "singular.json", "--parity", "singular.json"],
        ["--matrix", "random5.json"],
        ["--matrix", "zero.json"],
        ["--matrix", "huge.json"],
        ["--matrix", "tiny.json"],
    ]


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from pseudoherm.cli import main as cli_main

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            analyze = write_inputs()
            invocations = ([["discretize", *a] for a in DISCRETIZE]
                           + [["builtin", *a] for a in BUILTIN]
                           + [["analyze", *a] for a in analyze]
                           + [["sweep", *a] for a in SWEEP])
            for index, argv in enumerate(invocations):
                out = Path("report.json")
                out.unlink(missing_ok=True)
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli_main([*argv, "--json", out.name])
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
                print(index, code, digest, shlex.join(argv), flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
