"""Dense complex matrix algebra for non-Hermitian spectral analysis.

Everything in this package works on plain square ``numpy`` arrays of
``complex128``.  This module provides the shared primitives: the three
involutions (conjugate, transpose, dagger), LU-based inversion with an
explicit singularity guard, the non-Hermitian eigendecomposition with a
deterministic ordering and phase convention, and the similarity residual
that all symmetry checks are phrased in.

It also owns the matrix interchange format: a JSON document with an
integer field ``n`` and ``rows``, an ``n x n`` nesting of ``[re, im]``
pairs.  Floats are serialized with 17 significant digits so a
write/read round trip is bit exact.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg


class SingularMatrix(Exception):
    """Raised when a matrix that must be inverted is numerically singular."""


class NearDefective(Exception):
    """Raised when an eigenvector matrix is too ill-conditioned to trust."""


class ConvergenceFailure(Exception):
    """Raised when the eigensolver exhausts its iteration budget."""


class DimensionMismatch(Exception):
    """Raised when operands do not have compatible shapes."""


class ZeroVector(Exception):
    """Raised when an operation requires a nonzero vector."""


class MatrixFormatError(Exception):
    """Raised when an interchange document cannot be parsed."""


EPS = float(np.finfo(np.float64).eps)

# Below this Frobenius norm the squares of the entries underflow.
_FRO_UNDERFLOW = math.sqrt(float(np.finfo(np.float64).tiny))

# Eigenpairs per matrix product of the eigenpair residuals.
RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances shared by the whole toolkit, each relative to :func:`tolerance_scale`."""

    residual_tol: float = 1e-10
    reality_tol: float = 1e-8
    pairing_tol: float = 1e-8
    metric_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("residual_tol", "reality_tol", "pairing_tol", "metric_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


def tolerance_scale(norm: float) -> float:
    """Scale of the residuals and tolerances of H: ``||H||_F``, and 1 (not 0) for H = 0."""
    return norm or 1.0


def as_matrix(obj) -> np.ndarray:
    """Coerce ``obj`` to a square, finite complex128 array."""
    m = np.asarray(obj, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(obj) -> np.ndarray:
    """Coerce ``obj`` to a finite complex128 vector."""
    v = np.asarray(obj, dtype=np.complex128).reshape(-1)
    if v.size == 0:
        raise DimensionMismatch("expected a nonempty vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def fro(m: np.ndarray) -> float:
    """Frobenius norm, finite for finite entries below the float maximum.

    The sum of squares is the one ``np.linalg.norm`` forms, so the result
    is the same bit for bit, but taken with ``np.vdot``, which does not
    warn when it overflows.  On overflow the norm is taken of ``m`` scaled
    by its largest magnitude and scaled back.
    """
    x = np.ravel(m, order="K")
    norm = math.sqrt(np.vdot(x.real, x.real) + np.vdot(x.imag, x.imag))
    if norm == math.inf:
        top = float(np.abs(x).max())
        if top < math.inf:
            norm = top * fro(x / top)
    return norm


def _unit_scale(m: np.ndarray) -> tuple[float, float]:
    """The largest magnitude ``top`` of a real or imaginary part of ``m``, and the
    power of two that scales ``top`` into [1/2, 1) (at most 2^1023; 1 for m = 0)."""
    top = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    return top, math.ldexp(1.0, min(-math.frexp(top)[1], 1023))


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max())


class Involutions(NamedTuple):
    conjugate: np.ndarray
    transpose: np.ndarray
    dagger: np.ndarray


def involutions(m) -> Involutions:
    """Return the entrywise conjugate, the transpose, and their composition."""
    m = as_matrix(m)
    return Involutions(m.conj(), m.T.copy(), m.conj().T.copy())


def permutation_of(m: np.ndarray) -> np.ndarray | None:
    """Index array ``p`` with ``m[i, p[i]] = 1`` if ``m`` is a permutation matrix, else ``None``.

    A permutation matrix has one entry equal to 1+0j, bit for bit, in each
    row and each column, and zeros elsewhere.  Products with it add exact
    zeros to one exact product, so they equal index gathers up to the sign
    of a zero.  A scaled permutation (i P, -P, 2 P) is none: its products
    round.
    """
    n = m.shape[0]
    if np.count_nonzero(m) != n:
        return None
    rows, cols = np.nonzero(m)
    ones = m[rows, cols]
    if not (np.array_equal(rows, np.arange(n)) and (ones == 1.0).all()
            and not np.signbit(ones.imag).any()
            and np.array_equal(np.sort(cols), np.arange(n))):
        return None
    return cols


def inverse(m) -> tuple[np.ndarray, float]:
    """Invert ``m``, returning ``(inv, condition_estimate)``.

    The condition estimate is the exact one-norm condition number of the
    computed pair; it is only meant to be read to order of magnitude.
    Raises :class:`SingularMatrix` when an LU pivot falls below
    ``n * eps * ||m||_F``.
    """
    m = as_matrix(m)
    n = m.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    norm = fro(m)
    if norm < _FRO_UNDERFLOW:
        # the squares of entries this small underflow: take the norm of m
        # scaled by its largest magnitude and scale it back
        top = float(np.abs(m).max())
        if top > 0.0:
            norm = top * fro(m / top)
    threshold = n * EPS * norm
    if pivots.min() <= threshold:
        raise SingularMatrix(f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=np.complex128), check_finite=False)
    cond = max(_norm1(m) * _norm1(inv), 1.0)
    return inv, float(cond)


@dataclass(frozen=True)
class RealityTag:
    """Reality classification of one eigenvalue.

    ``kind`` is ``"real"``, ``"conjugate_pair"`` (with ``partner`` set to the
    index of the mutually paired eigenvalue) or ``"complex"``.
    """

    kind: str
    partner: int | None = None


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: eigenvalues, residuals, eigenvectors and reality tags.

    ``eigenvalues`` are sorted ascending by real part, ties broken by
    imaginary part, and ``residuals`` holds their relative residuals.
    Eigenvectors have unit norm with the largest-magnitude component
    rotated to the positive real axis; the convention is deterministic and
    makes a Hermitian input yield a unitary diagonalizer.  They are the
    columns of ``eigenvectors``, whose inverse ``diagonalizer_inverse``
    comes from the factorization that gives ``diagonalizer_condition``
    (``None`` when singular or not square).  :func:`eigendecompose` stores
    the three arrays read-only.
    """

    eigenvalues: np.ndarray = field(compare=False)
    residuals: np.ndarray = field(compare=False)
    reality: tuple[RealityTag, ...]
    diagonalizer_condition: float
    eigenvectors: np.ndarray = field(repr=False, compare=False)
    flags: tuple[str, ...] = ()
    diagonalizer_inverse: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def eigendecompose(h, tol: ToleranceConfig | None = None) -> Spectrum:
    """Eigendecompose a general complex matrix.

    Backed by LAPACK's ``zgeev`` through scipy; the external behavior is
    fixed by the contract, not the solver: deterministic ordering, the
    largest-component phase convention, per-pair relative residuals
    ``||Hv - lambda v||_F / (||H||_F ||v||)``, taken ``RESIDUAL_BLOCK``
    pairs per matrix product, and reality tags.  Pairs whose residual
    exceeds ``residual_tol`` are kept but flagged.
    """
    h = as_matrix(h)
    tol = tol or DEFAULT_TOL
    # zgeev leaves unscaled the eigenvalues of a matrix whose largest entry is
    # outside about [6.7e-139, 1.5e138]: solve it scaled by a power of two
    top, scale = _unit_scale(h)
    if top > 2.0**400 or 0.0 < top < 2.0**-400:
        h = h * scale
    else:
        scale = 1.0
    try:
        w, v = scipy.linalg.eig(h, check_finite=False)
    except Exception as exc:  # LAPACK reports non-convergence via LinAlgError
        raise ConvergenceFailure(str(exc)) from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]

    # Normalize to unit norm and rotate the phase so the first
    # largest-magnitude component lands on the positive real axis (its
    # imaginary part is then zero by construction, so stamp it).
    for k in range(v.shape[1]):
        v[:, k] = v[:, k] / np.linalg.norm(v[:, k])
        i = int(np.argmax(np.abs(v[:, k])))
        pivot = v[i, k]
        v[:, k] = v[:, k] * (pivot.conjugate() / abs(pivot))
        v[i, k] = abs(pivot)

    norm_h = fro(h)
    residuals = np.empty(len(w))
    for start in range(0, len(w), RESIDUAL_BLOCK):
        block = slice(start, start + RESIDUAL_BLOCK)
        residuals[block] = (np.linalg.norm(h @ v[:, block] - v[:, block] * w[block], axis=0)
                            / (tolerance_scale(norm_h) * np.linalg.norm(v[:, block], axis=0)))
    flags = [f"residual_above_tolerance:index={k},residual={res:.3e}"
             for k, res in enumerate(residuals) if res > tol.residual_tol]
    w = w / scale
    for a in (w, residuals, v):
        a.flags.writeable = False

    try:
        v_inv, cond = inverse(v)
    except SingularMatrix:
        v_inv, cond = None, np.inf

    return Spectrum(
        eigenvalues=w,
        residuals=residuals,
        reality=_reality_tags(w, tol, tolerance_scale(norm_h / scale)),
        diagonalizer_condition=float(cond),
        eigenvectors=v,
        flags=tuple(flags),
        diagonalizer_inverse=v_inv,
    )


def _reality_tags(w: np.ndarray, tol: ToleranceConfig, scale: float) -> tuple[RealityTag, ...]:
    """Tag each eigenvalue real, conjugate-paired or complex.

    Non-real eigenvalues are paired greedily: each unpaired ``w[i]``, in
    ascending ``i``, takes the nearest unpaired ``conj(w[j])`` (lowest ``j``
    on ties) if it lies within ``pairing_tol * scale``; one left unpaired
    stays eligible as a later partner.
    """
    real = np.abs(w.imag) <= tol.reality_tol * scale
    free = ~real
    partner = np.full(len(w), -1)
    w_conj = np.conj(w)
    for i in np.flatnonzero(free):
        if not free[i]:
            continue
        diff = w[i] - w_conj
        # np.hypot rounds exactly like the scalar abs(complex); the complex
        # np.abs loop is vectorized differently and can differ in the last bit
        d = np.hypot(diff.real, diff.imag)
        # only other unpaired values compete, and a NaN or infinite distance
        # never wins, even against an infinite tolerance
        d[~(free & (d < np.inf))] = np.inf
        d[i] = np.inf
        j = int(np.argmin(d))
        if d[j] < np.inf and d[j] <= tol.pairing_tol * scale:
            free[i] = free[j] = False
            partner[i], partner[j] = j, i
    return tuple(
        RealityTag("real") if real[k]
        else RealityTag("conjugate_pair", partner=int(partner[k])) if partner[k] >= 0
        else RealityTag("complex")
        for k in range(len(w))
    )


def build_diagonalizer(spectrum: Spectrum, tol: ToleranceConfig | None = None) -> np.ndarray:
    """The diagonalizer whose k-th column is the k-th eigenvector: ``spectrum.eigenvectors``.

    Raises :class:`NearDefective` when the eigenvector matrix condition
    exceeds ``1 / metric_tol``: metrics built from such a diagonalizer
    are unreliable.
    """
    tol = tol or DEFAULT_TOL
    if not len(spectrum):
        raise DimensionMismatch("empty spectrum")
    if spectrum.diagonalizer_condition > 1.0 / tol.metric_tol:
        raise NearDefective(
            f"diagonalizer condition {spectrum.diagonalizer_condition:.3e} exceeds "
            f"{1.0 / tol.metric_tol:.3e}"
        )
    return spectrum.eigenvectors


def _similarity(s: np.ndarray, h: np.ndarray, s_inv: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(S H S^-1, S^-1)``, with S inverted unless ``s_inv`` is given.

    A permutation S (:func:`permutation_of`) is neither inverted nor
    multiplied: ``S H S^-1`` is the gather ``H[p_i, p_j]``, and S^-1 is
    returned as the row gather ``argsort(p)``; apply it with
    :func:`_inverse_times`.  The gather differs from the products only in
    the sign of a zero, which :func:`fro` squares away.
    """
    if s_inv is None:
        p = permutation_of(s)
        if p is not None:
            return h[np.ix_(p, p)], np.argsort(p)
        s_inv, _ = inverse(s)
    return s @ h @ s_inv, s_inv


def _inverse_times(s_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S^-1 x`` for S^-1 as :func:`_similarity` returns it: a matrix, or a row gather."""
    return x[s_inv] if s_inv.ndim == 1 else s_inv @ x


def similarity_residual(s, h, target) -> float:
    """Relative residual ``||S H S^-1 - target||_F / ||H||_F`` (``/ 1`` for H = 0).

    Invariant under rescaling of ``S`` by any nonzero complex number.  A
    permutation S takes no factorization and no product, with the same
    result (see :func:`_similarity`).
    """
    s = as_matrix(s)
    h = as_matrix(h)
    target = as_matrix(target)
    if not (s.shape == h.shape == target.shape):
        raise DimensionMismatch(
            f"shape mismatch: S {s.shape}, H {h.shape}, target {target.shape}"
        )
    return fro(_similarity(s, h)[0] - target) / tolerance_scale(fro(h))


# ---------------------------------------------------------------------------
# Matrix interchange format
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def to_json_text(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict keys keep insertion order; complex numbers become ``[re, im]``.
    """
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([float(obj.real), float(obj.imag)], out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_doc(m) -> dict:
    """Interchange document ``{"n": ..., "rows": [[[re, im], ...], ...]}``."""
    m = as_matrix(m)
    n = m.shape[0]
    rows = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)] for i in range(n)]
    return {"n": n, "rows": rows}


def matrix_from_doc(doc) -> np.ndarray:
    """Parse an interchange document; rejects non-square input."""
    if not isinstance(doc, dict):
        raise MatrixFormatError("document must be a JSON object")
    try:
        n = doc["n"]
        rows = doc["rows"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError("document must carry fields 'n' and 'rows'") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise MatrixFormatError("'n' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixFormatError(f"expected {n} rows")
    m = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i} is not a list of {n} entries (non-square input?)")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise MatrixFormatError(f"entry ({i},{j}) is not a [re, im] pair")
            try:
                m[i, j] = complex(entry[0], entry[1])
            except OverflowError as exc:
                raise MatrixFormatError(f"entry ({i},{j}) is too large for a float") from exc
    if not np.isfinite(m).all():
        raise MatrixFormatError("entries must be finite")
    return m


def dumps_matrix(m) -> str:
    return to_json_text(matrix_to_doc(m)) + "\n"


def loads_matrix(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    return matrix_from_doc(doc)


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(m))


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_matrix(fh.read())
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
