"""Corpus of pseudoherm reports: byte identity, and a verdict-level diff.

Runs a fixed list of ``builtin``, ``analyze``, ``discretize`` and
``sweep`` invocations in process through ``pseudoherm.cli.main`` and
prints one line per report::

    index exit sha256 argv

The sha256 is that of the report bytes (``-`` when no report was
written).  Two checkouts that print the same lines write the same
reports, so running this on a change and on its parent shows which
reports a change alters.  Input matrices are written into a temporary
directory, which is also the working directory, and passed by relative
name, so ``input.source`` is the same on every tree.  The last report
reads its inputs in another JSON layout than the writer's, so that both
paths of the interchange reader run.

BLAS is pinned to one thread, because a threaded BLAS may sum in a
different order from run to run.

    python3 tools/report_corpus.py
    python3 tools/report_corpus.py --src ../base/src --save base
    python3 tools/report_corpus.py --save change
    python3 tools/report_corpus.py --compare base change
    python3 tools/report_corpus.py --compare base change --moves tools/corpus_moves.txt

``--src`` picks the source tree to run (default: this checkout's).
``--save DIR`` also keeps the lines in ``DIR/index.txt`` and each report
as ``DIR/<index>.json``.  ``--compare DIR_A DIR_B`` compares two saved
corpora field by field, prints every field that moved, and exits 1 when
a move breaks a rule.  A zero whose sign flipped has moved: a report
writes -0.0 as ``-0``, which is read back as -0.0, and floats are compared
by sign bit as well as by value, since ``-0.0 == 0.0``.  The rules:

* the argv, the exit code and the presence of each report, the keys and
  list lengths, and every string, boolean, integer and null must match
  exactly: ``holds``, reality tags and partners, Gram signatures, the PT
  verdict, warnings and flags;
* a fingerprint may differ only inside a metric named ``from_D_*``, the
  metrics built from the diagonalizer;
* a residual (``residual``, ``residuals``, ``colinearity_residual``,
  ``offdiag_max``) must agree within ``RESIDUAL_ABS`` absolute.  Under a
  ``from_D_*`` metric the bound is ``eps * cond(D)`` when that is larger,
  with ``cond(D)`` the report's ``diagonalizer_condition``: such a metric
  and its inverse carry the rounding error of D^-1.  A residual of a check
  that fails on both sides may move freely: its verdict is compared
  exactly, and how far a failing check misses is not a verdict;
* any other float must agree within ``FLOAT_REL`` times the largest
  magnitude of the same field (the path with list indices dropped) in
  that report.

``--moves FILE`` lists the moves a change makes by design, one per line,
``INDEX FIELD OLD NEW``: the report's index, the field's dotted path as the
comparison prints it, and the two values as JSON (``#`` starts a comment).
A declared move breaks no rule, but it must occur exactly as written: a
declared field that did not move, or moved to other values, fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RESIDUAL_FIELDS = ("residual", "residuals", "colinearity_residual", "offdiag_max")
RESIDUAL_ABS = 1e-12
FLOAT_REL = 1e-9
EPS = 2.0**-52

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
    # across |b| = |c|: sigma_z is a diagonal constant candidate that is no
    # permutation, sigma_y has purely imaginary entries
    ["H6", "b", "a=0.5", "c=1", "--from", "0", "--to", "2", "--step", "0.05"],
    ["H7", "b", "a=0", "c=1", "--from", "0", "--to", "2", "--step", "0.05"],
    # the other swept parameters: phi varies with d, the exceptional point in c,
    # a negative omega, and the diagonal shift a
    ["H8", "d", "a=0.3", "b=1", "c=0.5", "--from", "-2", "--to", "2", "--step", "0.05"],
    ["H8", "c", "a=0", "b=1", "d=0.5", "--from", "-2", "--to", "2", "--step", "0.05"],
    ["M3", "omega", "--from", "-1", "--to", "1", "--step", "0.1"],
    ["H5", "a", "b=0.5", "c=1", "--from", "-1", "--to", "1", "--step", "0.1"],
]


# Inputs written as JSON text, not by save_matrix: integer entries, an
# integer -0 (read as +0), a subnormal and exponent notation, and a file
# whose ``true`` entry the reader rejects (exit 2, no report).
LITERAL_INPUTS = {
    "literal.json": '{"n": 3, "rows": [[[2, 0], [1, -0], [0, 0]],\n'
                    '                  [[1, 0], [-1, 5e-324], [3E-1, 0]],\n'
                    '                  [[0, -0], [0.3, 0], [1.5e+2, -4]]]}\n',
    "bool_entry.json": '{"n": 3, "rows": [[[1, 0], [0, 0], [0, 0]],\n'
                       '                  [[0, 0], [true, 0], [0, 0]],\n'
                       '                  [[0, 0], [0, 0], [1, 0]]]}\n',
}


# The dense inputs of the first analyze report, each written by json.dumps
# with indent=1: a layout the reader parses whole rather than one row at a
# time.  Run last, so that every other report keeps its index.
INDENTED = ["--matrix", "dense_indented.json", "--rho", "dense_rho_indented.json",
            "--eta", "dense_eta_indented.json"]


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
    files.update(permutation_inputs(np.random.default_rng(21)))
    for name, m in files.items():
        save_matrix(name, m)
    for name, text in LITERAL_INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    for name in ("dense", "dense_rho", "dense_eta"):
        doc = json.loads(Path(f"{name}.json").read_text(encoding="utf-8"))
        Path(f"{name}_indented.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return [
        ["--matrix", "dense.json", "--rho", "dense_rho.json", "--eta", "dense_eta.json"],
        ["--matrix", "h8.json"],
        ["--matrix", "h5.json", "--rho", "sigma_x.json", "--parity", "sigma_x.json"],
        ["--matrix", "h5.json", "--mu", "singular.json", "--parity", "singular.json"],
        ["--matrix", "random5.json"],
        ["--matrix", "zero.json"],
        ["--matrix", "huge.json"],
        ["--matrix", "tiny.json"],
        ["--matrix", "perm.json", "--rho", "perm_rho.json"],
        ["--matrix", "perm.json", "--parity", "i_reversal.json"],
        ["--matrix", "literal.json"],
        ["--matrix", "literal.json", "--rho", "bool_entry.json"],
    ]


def permutation_inputs(rng) -> dict:
    """An n = 64 matrix pseudo-real under a permutation P, P, and i times the reversal.

    P has ten cycles of length 4 and eight of length 3, so it has order 12
    and is not an involution: P^-1 != P.  The matrix is the sum of a random
    A over the group of X -> P conj(X) P^T, which maps it to itself.  P is
    a permutation metric, which takes index gathers; i times the reversal
    is a scaled permutation, which is factored.
    """
    import numpy as np

    n = 64
    order = rng.permutation(n)
    p = np.arange(n)
    for cycle in np.split(order, np.cumsum([4] * 10 + [3] * 7)):
        p[cycle] = np.roll(cycle, -1)
    perm = np.eye(n)[p]
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = np.zeros((n, n), dtype=np.complex128)
    for _ in range(12):
        h += x
        x = perm @ x.conj() @ perm.T
    return {"perm.json": h, "perm_rho.json": perm,
            "i_reversal.json": 1j * np.fliplr(np.eye(n))}


def run(src: Path, save: Path | None) -> None:
    """Run the corpus on the source tree ``src``; print, and optionally save, each report."""
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import pseudoherm
    from pseudoherm.cli import main as cli_main

    if Path(pseudoherm.__file__).resolve().parents[1] != src:
        raise SystemExit(f"pseudoherm was imported from {pseudoherm.__file__}, not {src}")

    start = os.getcwd()
    if save is not None:
        save.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            analyze = write_inputs()
            invocations = ([["discretize", *a] for a in DISCRETIZE]
                           + [["builtin", *a] for a in BUILTIN]
                           + [["analyze", *a] for a in analyze]
                           + [["sweep", *a] for a in SWEEP]
                           + [["analyze", *INDENTED]])
            for index, argv in enumerate(invocations):
                out = Path("report.json")
                out.unlink(missing_ok=True)
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli_main([*argv, "--json", out.name])
                digest = "-"
                if out.exists():
                    report = out.read_bytes()
                    digest = hashlib.sha256(report).hexdigest()
                    if save is not None:
                        (save / f"{index}.json").write_bytes(report)
                lines.append(f"{index} {code} {digest} {shlex.join(argv)}")
                print(lines[-1], flush=True)
        finally:
            os.chdir(start)
    if save is not None:
        (save / "index.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _field(path: tuple) -> str:
    return ".".join("*" if isinstance(key, int) else key for key in path)


def _magnitudes(node, path: tuple, top: dict) -> None:
    """Largest magnitude of each float field of ``node``, into ``top``."""
    if isinstance(node, dict):
        for key, value in node.items():
            _magnitudes(value, (*path, key), top)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _magnitudes(value, (*path, i), top)
    elif isinstance(node, float):
        field = _field(path)
        top[field] = max(top.get(field, 0.0), abs(node))


def _parse_int(text: str):
    """``-0`` as the float -0.0 it was written from; any other integer as an int."""
    return -0.0 if text == "-0" else int(text)


def _same(x, y) -> bool:
    """Equal, and, when either is a float, with the same sign bit."""
    if isinstance(x, float) or isinstance(y, float):
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return x == y


def _exactly(x, value) -> bool:
    """``x`` is ``value``: of one type, and :func:`_same`."""
    return type(x) is type(value) and _same(x, value)


def read_moves(path: Path) -> dict[str, dict[str, tuple]]:
    """The declared moves of ``path``: report index -> field -> (old, new)."""
    moves: dict[str, dict[str, tuple]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            index, field, old, new = line.split()
            moves.setdefault(index, {})[field] = tuple(
                json.loads(value, parse_int=_parse_int) for value in (old, new))
    return moves


def compare_reports(a, b, declared: dict | None = None) -> tuple[list[str], list[str]]:
    """The fields that moved between two reports, and the rules those moves break.

    A field of ``declared`` (field -> (old, new), see ``--moves``) that moves
    from old to new breaks no rule; each one found is removed from it.
    """
    declared = {} if declared is None else declared
    top: dict[str, float] = {}
    _magnitudes(a, (), top)
    _magnitudes(b, (), top)
    conds = [(doc.get("spectrum") or {}).get("diagonalizer_condition") for doc in (a, b)]
    from_d_abs = max([RESIDUAL_ABS] + [EPS * c for c in conds if isinstance(c, (int, float))])
    moved, broken = [], []

    def walk(x, y, path: tuple, owner: str | None, failing: bool) -> None:
        where = ".".join(map(str, path))
        if type(x) is not type(y) and not {type(x), type(y)} <= {int, float}:
            broken.append(f"{where}: {x!r} -> {y!r} (type)")
        elif isinstance(x, dict):
            if list(x) != list(y):
                broken.append(f"{where}: keys {list(x)} -> {list(y)}")
                return
            # the metric a check, reality check or Gram belongs to
            name = x.get("name", x.get("metric"))
            if isinstance(name, str):
                owner = name
            # a check that fails on both sides; its verdict is compared as a field
            fails = x.get("holds") is False and y.get("holds") is False
            for key in x:
                inner_owner = key if path and path[-1] == "metrics" else owner
                walk(x[key], y[key], (*path, key), inner_owner, fails)
        elif isinstance(x, list):
            if len(x) != len(y):
                broken.append(f"{where}: length {len(x)} -> {len(y)}")
                return
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, (*path, i), owner, failing)
        elif _same(x, y):
            return
        elif where in declared:
            old, new = declared.pop(where)
            moved.append(f"{where}: {x!r} -> {y!r} (declared)")
            if not (_exactly(x, old) and _exactly(y, new)):
                broken.append(f"{where}: {x!r} -> {y!r}, declared {old!r} -> {new!r}")
        elif isinstance(x, float) or isinstance(y, float):
            moved.append(f"{where}: {x!r} -> {y!r}")
            name = next(key for key in reversed(path) if isinstance(key, str))
            if name in RESIDUAL_FIELDS:
                bound = from_d_abs if (owner or "").startswith("from_D_") else RESIDUAL_ABS
                if not (failing or abs(x - y) <= bound):
                    broken.append(f"{where}: {x!r} -> {y!r} (residual beyond {bound:g})")
            elif not abs(x - y) <= FLOAT_REL * top[_field(path)]:
                broken.append(f"{where}: {x!r} -> {y!r} (beyond {FLOAT_REL:g} of the field)")
        elif path and path[-1] == "fingerprint" and (owner or "").startswith("from_D_"):
            moved.append(f"{where}: {x} -> {y}")
        else:
            moved.append(f"{where}: {x!r} -> {y!r}")
            broken.append(f"{where}: {x!r} -> {y!r}")

    walk(a, b, (), None, False)
    return moved, broken


def compare(dir_a: Path, dir_b: Path, moves: dict | None = None) -> int:
    """Compare two saved corpora; print every moved field; 1 when a rule is broken
    or a declared move (``moves``, from :func:`read_moves`) did not occur as written."""
    moves = {index: dict(fields) for index, fields in (moves or {}).items()}
    index_a = (dir_a / "index.txt").read_text(encoding="utf-8").splitlines()
    index_b = (dir_b / "index.txt").read_text(encoding="utf-8").splitlines()
    if len(index_a) != len(index_b):
        print(f"FAIL corpus size {len(index_a)} -> {len(index_b)}")
        return 1
    failures = moved_fields = 0
    for line_a, line_b in zip(index_a, index_b):
        index, code_a, digest_a, argv_a = line_a.split(" ", 3)
        _, code_b, digest_b, argv_b = line_b.split(" ", 3)
        declared = moves.pop(index, {})
        if (code_a, argv_a, digest_a == "-") != (code_b, argv_b, digest_b == "-"):
            print(f"{index} FAIL exit {code_a} -> {code_b}: {argv_a} | {argv_b}")
            failures += 1
            continue
        moved, broken = [], []
        if digest_a != digest_b:
            moved, broken = compare_reports(
                *(json.loads((d / f"{index}.json").read_text(encoding="utf-8"),
                             parse_int=_parse_int) for d in (dir_a, dir_b)), declared)
        broken += [f"{field}: declared {old!r} -> {new!r}, did not move"
                   for field, (old, new) in declared.items()]
        if digest_a == digest_b and not broken:
            print(f"{index} identical {argv_a}")
            continue
        moved_fields += len(moved)
        failures += bool(broken)
        print(f"{index} {'FAIL' if broken else 'ok'} {len(moved)} moved {argv_a}")
        for line in moved:
            print(f"  moved {line}")
        for line in broken:
            print(f"  FAIL {line}")
    for index in moves:
        print(f"{index} FAIL moves declared for a report the corpus does not have")
        failures += 1
    print(f"{len(index_a)} reports, {moved_fields} fields moved, {failures} failing")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=SRC, help="source tree to run")
    parser.add_argument("--save", type=Path, metavar="DIR", help="also keep every report in DIR")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two saved corpora instead of running one")
    parser.add_argument("--moves", type=Path, metavar="FILE",
                        help="with --compare: the moves declared by design, INDEX FIELD OLD NEW")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, read_moves(args.moves) if args.moves else None)
    run(args.src.resolve(), args.save.resolve() if args.save else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
