"""Command line front end: analyze, builtin, discretize, sweep.

Reports are single JSON documents with the frozen top-level keys
``input``, ``spectrum``, ``classification``, ``grams``, ``warnings``
(sweeps use their own schema, see :class:`pseudoherm.sweep.SweepResult`).
All numbers are serialized with 17 significant digits, so identical
invocations produce byte-identical output and matrix files round-trip
exactly.

Exit codes: 0 analysis ran (whatever the verdicts), 2 input could not be
parsed, 3 dimensions are inconsistent, 4 numerical failure (the
eigensolver did not converge, or an eigenvalue is beyond the float range).
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path

import numpy as np

from . import families, inner, metrics, schrodinger
from .linalg import (
    ConvergenceFailure,
    DimensionMismatch,
    JSONText,
    MatrixFormatError,
    Spectrum,
    ToleranceConfig,
    array_texts,
    as_matrix,
    eigendecompose,
    load_matrix,
    require_finite,
    save_matrix,
    to_json_text,
)
from .sweep import InvalidRange, SweepResult, sweep_family, sweep_values

# What the parsers read as a negative number rather than an option; argparse's
# own pattern has no exponent.
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# Matrices and grams up to this dimension are embedded in reports;
# larger ones are summarized by a content fingerprint.
EMBED_LIMIT = 16


def fingerprint(m) -> str:
    """Short content hash of a matrix (shape header + raw complex128 bytes)."""
    return _fingerprints(as_matrix(m)[np.newaxis])[0]


def _fingerprints(stack: np.ndarray) -> list[str]:
    """:func:`fingerprint` of each matrix of a complex128 (k, n, n) stack, hashed from
    views of its bytes: a C-contiguous stack matrix by matrix, any other row by row,
    a row copied only if its own entries are not contiguous.  So a view such as
    :func:`pseudoherm.metrics.identity_view`, each of whose rows is a slice of
    one buffer, is hashed without an n x n copy."""
    k, n = stack.shape[:2]
    header = hashlib.sha256(f"{n}:".encode())
    if stack.flags.c_contiguous:
        data = memoryview(stack.reshape(-1).view(np.uint8))
        size = len(data) // k
        matrices = ([data[start:start + size]] for start in range(0, len(data), size))
    else:
        matrices = (map(np.ascontiguousarray, m) for m in stack)
    prints = []
    for parts in matrices:
        digest = header.copy()
        for part in parts:
            digest.update(part)
        prints.append(digest.hexdigest()[:16])
    return prints


def _matrix_texts(stack) -> list[JSONText]:
    """The ``{"n", "rows", "fingerprint"}`` document of each matrix of a (k, n, n)
    stack, as JSON text; ``rows`` is written up to ``EMBED_LIMIT``, as
    :func:`pseudoherm.linalg.dumps_matrix` writes it.  One finiteness check
    covers the whole stack."""
    stack = np.asarray(stack, dtype=np.complex128)
    require_finite(stack)
    n = stack.shape[1]
    prints = _fingerprints(stack)
    if n > EMBED_LIMIT:
        return [JSONText(f'{{"n": {n}, "fingerprint": "{p}"}}') for p in prints]
    return [JSONText(f'{{"n": {n}, "rows": {rows}, "fingerprint": "{p}"}}')
            for rows, p in zip(array_texts(stack), prints)]


def _matrix_doc(m) -> JSONText:
    """The ``{"n", "rows", "fingerprint"}`` document of one matrix (see :func:`_matrix_texts`)."""
    return _matrix_texts(as_matrix(m)[np.newaxis])[0]


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


def _spectrum_doc(spec: Spectrum | None) -> dict | None:
    if spec is None:
        return None
    reality = []
    for tag in spec.reality:
        entry = {"tag": tag.kind}
        if tag.partner is not None:
            entry["partner"] = int(tag.partner)
        reality.append(entry)
    return {
        "eigenvalues": spec.eigenvalues,
        "residuals": spec.residuals,
        "reality": reality,
        "diagonalizer_condition": _finite_or_none(spec.diagonalizer_condition),
        "flags": list(spec.flags),
    }


def _classification_doc(report: metrics.ClassificationReport, matrices: list[JSONText]) -> dict:
    """The classification document; ``matrices`` holds each checked metric's
    :func:`_matrix_doc`, in the order of the reports."""
    entries = {kind: [] for kind in metrics.KINDS}
    # the three reports of one metric share its matrix document
    for matrix, *reps in zip(matrices, report.pseudo_real, report.pseudo_adjoint,
                             report.pseudo_hermitian, strict=True):
        for rep in reps:
            entries[rep.kind].append({
                "name": rep.name,
                "provenance": rep.provenance,
                "residual": _finite_or_none(rep.residual),
                "holds": rep.holds,
                "metric": matrix,
            })
    doc = {
        "hermitian": {"holds": report.hermitian[0], "residual": report.hermitian[1]},
        "self_adjoint": {"holds": report.self_adjoint[0], "residual": report.self_adjoint[1]},
        **entries,
        "pt_symmetric": None,
        "reality_checks": [
            {
                "eigen_index": c.eigen_index,
                "metric": c.metric_name,
                "epsilon": complex(c.epsilon),
                "colinearity_residual": c.colinearity_residual,
                "holds": c.holds,
            }
            for c in report.reality_checks
        ],
    }
    if report.pt_symmetric is not None:
        name, residual, holds = report.pt_symmetric
        doc["pt_symmetric"] = {"parity": name, "residual": residual, "holds": holds}
    return doc


def _gram_doc(rep: inner.GramReport, metric_name: str | None) -> dict:
    doc = {
        "kind": rep.kind,
        "metric": metric_name,
        "offdiag_max": rep.offdiag_max,
        "norms": [complex(x) for x in rep.norms],
        "signature": list(rep.signature),
    }
    if rep.gram.shape[0] <= EMBED_LIMIT:
        doc["gram"] = {"n": rep.gram.shape[0], "rows": as_matrix(rep.gram)}
    return doc


def build_report(h, candidates, tol: ToleranceConfig, input_doc: dict,
                 parity=None, parity_name: str = "reversal",
                 spectrum: Spectrum | None = None,
                 gram_spectrum: Spectrum | None = None) -> dict:
    """Classify ``h`` and assemble the full report document.

    ``gram_spectrum`` selects the states the Gram reports run over
    (defaults to the classification spectrum).  Each metric's matrix
    document, and its eta Gram unless it is known not to be
    pseudo-Hermitian, are rendered when :func:`metrics.classify` hands the
    metric over (a candidate after its check, a diagonalizer metric before
    its inverse is built and its verdicts are known), so that the metric is
    released at once; the report keeps the Gram of each metric that holds.
    """
    parity = parity if parity is not None else metrics.default_parity(h.shape[0])
    matrices: list[JSONText] = []
    eta_grams: list[dict | None] = []

    def render(name, metric, reports, spectrum):
        matrices.append(_matrix_doc(metric))
        shown = gram_spectrum if gram_spectrum is not None else spectrum
        # a diagonalizer metric comes before its verdicts, which decide below
        # whether its Gram is kept
        gram = None
        holds = reports is None or reports[metrics.PSEUDO_HERMITIAN].holds
        if holds and shown is not None and len(shown) > 0:
            gram = _gram_doc(inner.eta_gram(shown.eigenvectors, metric, shown.eigenvalues, tol),
                             name)
        eta_grams.append(gram)

    report = metrics.classify(h, candidates, tol, parity=parity, parity_name=parity_name,
                              spectrum=spectrum, on_metric=render)
    warnings = list(report.warnings)
    shown = gram_spectrum if gram_spectrum is not None else report.spectrum

    grams: list[dict] = []
    if shown is not None and len(shown) > 0:
        states, eigenvalues = shown.eigenvectors, shown.eigenvalues
        grams.append(_gram_doc(inner.hermitian_gram(states, tol), None))
        grams.append(_gram_doc(inner.transpose_gram(states, eigenvalues, tol), None))
        grams.extend(gram for gram, rep in zip(eta_grams, report.pseudo_hermitian, strict=True)
                     if rep.holds)
        if report.pt_symmetric is not None:
            name = report.pt_symmetric[0]
            grams.append(_gram_doc(inner.pt_gram(states, parity, eigenvalues, tol), name))

    return {
        "input": input_doc,
        "spectrum": _spectrum_doc(shown),
        "classification": _classification_doc(report, matrices),
        "grams": grams,
        "warnings": warnings,
    }


def _sweep_doc(result: SweepResult) -> dict:
    """The sweep document, with each point as one :class:`JSONText` joined from
    the entries of the metric stacks that carry it, each stack rendered at once."""
    require_finite(result.values)
    columns = []
    for name, (idx, holds, canonical) in result.stacks.items():
        column = [None] * len(result.values)
        key = to_json_text(name)
        for i, ok, text in zip(idx.tolist(), holds.tolist(), _matrix_texts(canonical)):
            column[i] = f'{key}: {{"holds": {"true" if ok else "false"}, "canonical": {text}}}'
        columns.append(column)
    points = [
        JSONText('{"value": %.17g, "max_imag": %.17g, "spectrum_real": %s, "metrics": {%s}}' % (
            value, top, "true" if real else "false",
            ", ".join(column[i] for column in columns if column[i] is not None)))
        for i, (value, top, real) in enumerate(zip(
            result.values.tolist(), result.max_imag.tolist(), result.spectrum_real.tolist()))
    ]
    return {
        "family": result.family,
        "parameter": result.parameter,
        "fixed": result.fixed,
        "values": result.values,
        "points": points,
        "breaking_point": list(result.breaking_point) if result.breaking_point else None,
        "secular_metrics": list(result.secular_metrics),
    }


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _tol_from_args(args) -> ToleranceConfig:
    return ToleranceConfig(
        residual_tol=args.tol_residual,
        reality_tol=args.tol_reality,
        metric_tol=args.tol_metric,
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-residual", type=float, default=1e-10,
                        help="relative eigenpair residual tolerance")
    parser.add_argument("--tol-reality", type=float, default=1e-8,
                        help="relative imaginary-part tolerance for a real eigenvalue")
    parser.add_argument("--tol-metric", type=float, default=1e-8,
                        help="relative similarity residual for a holding metric")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report here instead of stdout")


def _parse_metric_specs(specs, kind: str, out: dict) -> None:
    """Load the ``[NAME=]PATH`` specs of ``--kind`` into ``out``; a taken name is rejected."""
    for spec in specs or ():
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            path = spec
            name = Path(spec).stem
        if not name:
            raise MatrixFormatError(f"empty metric name in --{kind} {spec!r}")
        if name in out or any(name == d[0] for d in metrics.DIAGONALIZER_METRICS):
            raise MatrixFormatError(f"metric name {name!r} of --{kind} {spec!r} is already taken")
        out[name] = load_matrix(path)


def _parse_assignments(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        name, eq, raw = pair.partition("=")
        if not eq or not name:
            raise MatrixFormatError(f"expected NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(raw)
        except ValueError as exc:
            raise MatrixFormatError(f"parameter {name!r} has non-numeric value {raw!r}") from exc
    return out


def _input_doc(h, candidates, tol: ToleranceConfig, **head) -> dict:
    """The ``head`` keys, then the keys every report's ``input`` ends with."""
    return {
        **head,
        "n": int(h.shape[0]),
        "matrix": _matrix_doc(h),
        "candidates": sorted(candidates),
        "tolerances": {"residual": tol.residual_tol, "reality": tol.reality_tol,
                       "metric": tol.metric_tol},
    }


def _emit(args, doc: dict) -> None:
    text = to_json_text(doc) + "\n"
    if args.json:
        Path(args.json).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    tol = _tol_from_args(args)
    h = load_matrix(args.matrix)
    candidates = {}
    for kind in ("rho", "mu", "eta"):
        _parse_metric_specs(getattr(args, kind), kind, candidates)
    parity = None
    parity_name = "reversal"
    if args.parity:
        parity = load_matrix(args.parity)
        parity_name = Path(args.parity).stem
    input_doc = _input_doc(h, candidates, tol, source=args.matrix)
    _emit(args, build_report(h, candidates, tol, input_doc,
                             parity=parity, parity_name=parity_name))
    return 0


def _cmd_builtin(args) -> int:
    tol = _tol_from_args(args)
    assignments = _parse_assignments(args.params)
    h, params, candidates, extras = families.instantiate_builtin(args.name, assignments)
    if args.matrix:
        save_matrix(args.matrix, h)
    input_doc = _input_doc(h, candidates, tol, source=f"builtin:{args.name}", parameters=params)
    input_doc.update(extras)
    _emit(args, build_report(h, candidates, tol, input_doc))
    return 0


_FAMILY_DEFAULT_MASS = {"morse": 0.5}


def _cmd_discretize(args) -> int:
    tol = _tol_from_args(args)
    family = args.family.replace("-", "_")
    params = {}
    for name in ("alpha", "beta", "gamma", "C", "D", "g"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.k is not None:
        params["k"] = args.k
    pot = schrodinger.PotentialSpec(family, params, shift=args.shift)

    x_max = args.xmax
    x_min = args.xmin if args.xmin is not None else -x_max
    mass = args.mass if args.mass is not None else _FAMILY_DEFAULT_MASS.get(family, 1.0)
    grid = schrodinger.GridSpec(x_min, x_max, args.n, mass=mass)

    h = schrodinger.build_hamiltonian(pot, grid)
    if args.matrix:
        save_matrix(args.matrix, h)

    full = eigendecompose(h, tol)
    bound = schrodinger.bound_spectrum(h, grid, args.states, tol, spectrum=full)

    candidates = {"identity": metrics.identity_view(grid.n_points)}
    parity = None
    parity_name = "reversal"
    if grid.symmetric:
        parity = metrics.default_parity(grid.n_points)
        parity_name = "grid_reversal"
        candidates["parity"] = parity
    gauge = schrodinger.gauge_metric(pot, grid)
    if gauge is not None:
        candidates[gauge[0]] = gauge[1]

    input_doc = _input_doc(
        h, candidates, tol, source=f"discretize:{family}", parameters=params, shift=args.shift,
        grid={"x_min": grid.x_min, "x_max": grid.x_max,
              "n_points": grid.n_points, "mass": grid.mass},
        states=args.states)
    _emit(args, build_report(h, candidates, tol, input_doc,
                             parity=parity, parity_name=parity_name,
                             spectrum=full, gram_spectrum=bound))
    return 0


def _cmd_sweep(args) -> int:
    tol = _tol_from_args(args)
    fixed = _parse_assignments(args.fixed)
    values = sweep_values(getattr(args, "from"), args.to, args.step)
    result = sweep_family(args.family, args.parameter, values, fixed, tol)
    _emit(args, _sweep_doc(result))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent notation
    (``-1e-3``, ``-.5E+2``) as a value, not as an option; its subparsers are too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = NEGATIVE_NUMBER


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudoherm",
        description="Symmetry analysis of finite-dimensional complex Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a matrix from an interchange file")
    p.add_argument("--matrix", required=True, help="input matrix file")
    p.add_argument("--rho", action="append", metavar="[NAME=]PATH",
                   help="candidate pseudo-reality metric (repeatable)")
    p.add_argument("--mu", action="append", metavar="[NAME=]PATH",
                   help="candidate pseudo-adjointness metric (repeatable)")
    p.add_argument("--eta", action="append", metavar="[NAME=]PATH",
                   help="candidate pseudo-Hermiticity metric (repeatable)")
    p.add_argument("--parity", metavar="PATH", default=None,
                   help="override the default reversal parity")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("builtin", help="instantiate and analyze a builtin family")
    p.add_argument("name", choices=sorted(families.BUILTINS))
    p.add_argument("params", nargs="*", metavar="NAME=VALUE")
    p.add_argument("--matrix", metavar="PATH", default=None,
                   help="also write the matrix in interchange format")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("discretize", help="discretize a 1-D potential family and analyze it")
    p.add_argument("--family", required=True,
                   choices=[f.replace("_", "-") for f in schrodinger.FAMILIES])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="odd monomial exponent")
    p.add_argument("--shift", type=float, default=0.0, help="imaginary coordinate shift")
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--xmin", type=float, default=None, help="defaults to -xmax")
    p.add_argument("--n", type=int, default=512, help="number of interior grid points")
    p.add_argument("--mass", type=float, default=None,
                   help="particle mass (default 1; morse defaults to 1/2)")
    p.add_argument("--states", type=int, default=4, help="bound states to keep")
    p.add_argument("--matrix", metavar="PATH", default=None,
                   help="also write the discretized matrix")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("sweep", help="sweep one parameter of a builtin family")
    p.add_argument("family", choices=sorted(families.BUILTINS))
    p.add_argument("parameter")
    p.add_argument("fixed", nargs="*", metavar="NAME=VALUE")
    p.add_argument("--from", type=float, required=True, dest="from")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceFailure as exc:
        print(f"error: eigendecomposition failed: {exc}", file=sys.stderr)
        return 4
    except (MatrixFormatError, families.UnknownBuiltin, families.MissingParameter,
            schrodinger.InvalidGrid, schrodinger.ParameterOutOfRange,
            InvalidRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
