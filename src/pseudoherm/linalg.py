"""Dense complex matrix algebra for non-Hermitian spectral analysis.

Everything in this package works on plain square ``numpy`` arrays of
``complex128``.  This module provides the shared primitives: the three
involutions (conjugate, transpose, dagger), LU-based inversion with an
explicit singularity guard, the non-Hermitian eigendecomposition with a
deterministic ordering and phase convention, and the similarity residual
that all symmetry checks are phrased in.  One matrix goes to LAPACK's
``zgeev``, ``zgetrf`` and ``zgetrs`` through :mod:`pseudoherm._lapack`,
which loads them without ``scipy.linalg``; an upper Hessenberg matrix,
as every grid H is, skips ``zgeev``'s Hessenberg reduction there, with
``zgeev``'s bits.  A stack goes to numpy's ``eig`` and ``inv``.

It also owns the matrix interchange format: a JSON document with an
integer field ``n`` and ``rows``, an ``n x n`` nesting of ``[re, im]``
pairs.  Floats are serialized with 17 significant digits so a
write/read round trip is bit exact, but for the sign of a zero: ``-0.0``
is written ``-0``, which reads as the integer 0.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from pseudoherm import _lapack


class SingularMatrix(Exception):
    """Raised when a matrix that must be inverted is numerically singular."""


class NearDefective(Exception):
    """Raised when an eigenvector matrix is too ill-conditioned to trust."""


class ConvergenceFailure(Exception):
    """Raised when the eigensolver does not converge or an eigenvalue exceeds the float range."""


class DimensionMismatch(Exception):
    """Raised when operands do not have compatible shapes."""


class ZeroVector(Exception):
    """Raised when an operation requires a nonzero vector."""


class MatrixFormatError(Exception):
    """Raised when an interchange document cannot be parsed."""


EPS = float(np.finfo(np.float64).eps)

# Eigenpairs per matrix product of the eigenpair residuals.
RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances shared by the whole toolkit, each relative to :func:`tolerance_scale`;
    each must be finite and above 0."""

    residual_tol: float = 1e-10
    reality_tol: float = 1e-8
    pairing_tol: float = 1e-8
    metric_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("residual_tol", "reality_tol", "pairing_tol", "metric_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite, "
                                 f"got {getattr(self, name)!r}")


DEFAULT_TOL = ToleranceConfig()


def tolerance_scale(norm):
    """Scale of the residuals and tolerances of H: ``||H||_F``, and 1 (not 0) for H = 0.

    Elementwise on an array of norms: ``norm == 0`` adds exactly 1 there and 0 elsewhere.
    """
    return norm + (norm == 0.0)


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


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of ``x``, finite below the float maximum.

    The sums of squares are those ``np.linalg.norm`` and ``np.vdot`` form:
    a (1 x k)(k x 1) ``matmul`` of the real and of the imaginary parts
    calls the same dot kernel on the same strides, bit for bit.  A row
    whose sum overflows is scaled by its largest magnitude and scaled back.
    """
    re, im = x.real, x.imag
    with np.errstate(over="ignore"):
        norm = np.sqrt((re[..., None, :] @ re[..., :, None]
                        + im[..., None, :] @ im[..., :, None])[..., 0, 0])
    over = norm == np.inf
    if over.any():
        top = np.abs(x).max(axis=-1)
        over &= top < np.inf
        rescaled = top * _norms(x / np.where(over, top, 1.0)[..., None])
        norm = np.where(over, rescaled, norm)
    return norm


def fro(m: np.ndarray) -> float:
    """Frobenius norm, finite for finite entries below the float maximum.

    The sum of squares is the one ``np.linalg.norm`` forms, in memory
    order, so the result is the same bit for bit; it does not warn when it
    overflows.  On overflow the norm is taken of ``m`` scaled by its
    largest magnitude and scaled back.
    """
    return float(_norms(np.ravel(m, order="K")))


def _fro_stack(m: np.ndarray) -> np.ndarray:
    """:func:`fro` of each matrix on the last two axes of ``m``, summed in its memory order."""
    if m.strides[-2] < m.strides[-1]:
        m = m.swapaxes(-1, -2)  # column-major matrices: their memory order is that of m^T
    return _norms(m.reshape(*m.shape[:-2], -1))


def _unit_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, top)``: the largest magnitude ``top`` of a real or imaginary part of each matrix
    on the last two axes of ``m``, from a float view (no n x n temporary), and the power of
    four f that brings it into [1/4, 1), clipped to 4^+-511 so that 1/f is finite."""
    parts = m[..., None].view(np.float64)
    top = np.maximum(parts.max(axis=(-3, -2, -1)), -parts.min(axis=(-3, -2, -1)))
    return np.ldexp(1.0, np.clip(-2 * ((np.frexp(top)[1] + 1) // 2), -1022, 1022)), top


def _intake(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m * f, f)``, the one scale rule, on which every stage of an analysis runs: f of
    :func:`_unit_factor`, or 1 (no copy) where ``top`` is 0 or in [2^-400, 2^400]."""
    f, top = _unit_factor(m)
    f = np.where((2.0**-400 <= top) & (top <= 2.0**400), 1.0, f)
    return (m * f[..., None, None] if (f != 1.0).any() else m), f


def _unscale(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The eigenvalues ``w`` of ``m * f`` (a row per f) as those of m: their parts times the
    exact power 1/f.  Raises :class:`ConvergenceFailure` beyond the float range."""
    with np.errstate(over="ignore"):
        w = (w[..., None].view(np.float64) * (1.0 / f)[..., None, None]).view(np.complex128)
    if not np.isfinite(w).all():
        raise ConvergenceFailure("an eigenvalue lies beyond the float range of +-1.8e308")
    return w[..., 0]


def _norm1(m: np.ndarray) -> np.ndarray:
    return np.abs(m).sum(axis=-2).max(axis=-1)


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
    # the first nonzero of each row; with n nonzeros, a row holding two leaves
    # another without one, whose entry found is then a zero
    cols = np.argmax(m != 0, axis=1)
    ones = m[np.arange(n), cols]
    if not ((ones == 1.0).all() and not np.signbit(ones.imag).any()
            and np.array_equal(np.sort(cols), np.arange(n))):
        return None
    return cols


class _Inverses(NamedTuple):
    inverse: np.ndarray | None
    condition: np.ndarray
    pivot: np.ndarray
    threshold: np.ndarray

    @property
    def singular(self) -> np.ndarray:
        return self.pivot <= self.threshold


# Identity columns per zgetrs call of an inverse (see _solve_identity).
SOLVE_BLOCK = 64


def _solve_identity(lu: np.ndarray, piv: np.ndarray, norm: float, limit: float
                    ) -> tuple[np.ndarray | None, float]:
    """``(inverse, norm1)``: the inverse of one n x n matrix (n >= 2) from its factors
    ``getrf(m)``, solved ``SOLVE_BLOCK`` identity columns per ``zgetrs`` call, and its
    1-norm, the largest column sum of its magnitudes.

    The inverse is kept while ``norm`` (||m||_1) times the largest column sum so far
    is at most ``limit``, and is ``None`` once it is above: the rest of its columns
    are solved into blocks of their own, for their sums alone.  The first block is
    solved into one of its own too; once it is within the limit, it is released
    and solved again in place in the inverse, allocated then, so that the inverse
    can take its memory (holding both left a hole that raised the peak resident
    memory), and each later block is solved in place in its columns,
    Fortran-ordered as a solve of the whole identity.  Each column gets the bits
    of that whole solve, and each column sum those of ``_norm1``.  A trailing
    single column joins the block before it: with more than one OpenBLAS thread,
    ``zgetrs`` solves one right-hand side with other bits than several.
    """
    n = lu.shape[0]

    def solve(start, stop, into):
        into[np.arange(start, stop), np.arange(stop - start)] = 1.0
        return _lapack.getrs(lu, piv, into)

    inv, largest = None, 0.0
    for start in range(0, n - 1, SOLVE_BLOCK):
        stop = n if start + SOLVE_BLOCK >= n - 1 else start + SOLVE_BLOCK
        block = solve(start, stop, np.zeros((n, stop - start), dtype=np.complex128, order="F")
                      if inv is None else inv[:, start:stop])
        largest = max(largest, float(np.abs(block).sum(axis=0).max()))
        if norm * largest > limit:
            inv = None
        elif start == 0:
            del block
            inv = np.zeros((n, n), dtype=np.complex128, order="F")
            solve(0, stop, inv[:, :stop])
    return inv, largest


def _inverses(m: np.ndarray, limit: float = math.inf) -> _Inverses:
    """Invert each matrix on the last two axes of ``m``.

    It inverts ``m * f`` (:func:`_intake`) and returns that inverse times f.
    A matrix is singular when its smallest LU pivot magnitude ``pivot`` is
    at most ``threshold = n * eps * ||m f||_F``; its inverse is then NaN and
    its condition infinite.  ``condition`` is the exact one-norm condition
    number of the computed pair.  Both norms of ``m f`` are taken before it
    is factored, so that their temporaries are not held beside the factors.

    Each matrix is factored once, by LAPACK's ``zgetrf`` through
    :mod:`pseudoherm._lapack`, a stack one matrix at a time in a Python
    loop.  One matrix of n >= 2 is inverted from its factors by
    :func:`_solve_identity`, a block of identity columns per ``zgetrs``
    call, in place in the inverse, so the solve holds no n x n array beside
    the factors and the result.  Where the condition is above ``limit``,
    the inverse is ``None``: it is never held whole, as its columns are
    solved for their norms alone, and ``condition`` keeps its exact bits.
    A stack's non-singular matrices are inverted by ``np.linalg.inv``, whose
    loop runs in C, which factors them again (and fails on an exactly
    singular one); ``limit`` does not apply to them.  Each matrix gets the
    same bits on either path: ``np.linalg.inv`` (LAPACK's ``zgesv``) solves
    the same LU factors against the identity.  A 1 x 1 matrix is inverted
    by ``np.linalg.inv`` on both paths: with more than one OpenBLAS thread,
    ``zgetrs`` solves a single right-hand side with other bits than ``zgesv``.
    """
    n = m.shape[-1]
    m, f = _intake(m)
    threshold = n * EPS * _fro_stack(m)
    norm = _norm1(m)
    lu, piv = _lapack.getrf(m)
    pivot = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).min(axis=-1)
    ok = ~(pivot <= threshold)
    if m.ndim == 2 and n > 1 and ok:
        inv, norm_inv = _solve_identity(lu, piv, float(norm), limit)
    else:
        del lu  # np.linalg.inv factors again
        if ok.all():
            inv = np.linalg.inv(m)
        else:
            inv = np.full(m.shape, np.nan, dtype=np.complex128)
            if ok.any():  # only a stack is partly singular
                inv[ok] = np.linalg.inv(m[ok])
        norm_inv = _norm1(inv)
    cond = np.where(ok, np.maximum(norm * norm_inv, 1.0), np.inf)
    if inv is not None and (f != 1.0).any():
        # by parts: a complex product turns NaN+0j into NaN+NaNj
        parts = inv[..., None].view(np.float64)
        with np.errstate(over="ignore"):
            parts *= f[..., None, None, None]
    return _Inverses(inv, cond, pivot, threshold)


def inverse(m) -> tuple[np.ndarray, float]:
    """Invert ``m``, returning ``(inv, condition_estimate)``.

    The condition estimate is the exact one-norm condition number of the
    computed pair; it is only meant to be read to order of magnitude.
    Raises :class:`SingularMatrix` when an LU pivot of ``m`` taken in by
    :func:`_intake` falls below ``n * eps`` times its Frobenius norm.
    """
    inverses = _inverses(as_matrix(m))
    if inverses.singular:
        raise SingularMatrix(
            f"pivot {inverses.pivot:.3e} below threshold {inverses.threshold:.3e}")
    return inverses.inverse, float(inverses.condition)


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
    comes from the factorization that gives ``diagonalizer_condition``.
    It is ``None`` when D is singular, or near-defective: a condition above
    ``1 / metric_tol`` of the tolerances the spectrum was computed with,
    where :func:`build_diagonalizer` refuses D, so no metric needs D^-1.
    A refused D is never inverted whole: its inverse is solved a block of
    columns at a time for the exact condition alone (see :func:`_inverses`).
    :func:`eigendecompose` stores the three arrays read-only.  It solves H,
    taken in by :func:`_intake`, with LAPACK's ``zgeev``, ``zgetrf`` and
    ``zgetrs`` through :mod:`pseudoherm._lapack`, which skips ``zgeev``'s
    Hessenberg reduction on a grid H with the same bits; the stacks of a sweep
    take numpy's ``eig`` and ``inv`` instead, which give each matrix the
    same bits (see :func:`_spectra` and :func:`_inverses`).
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


class _Spectra(NamedTuple):
    """The arrays of :class:`Spectrum` over the leading axes of a stack of matrices."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    eigenvectors: np.ndarray
    inverses: _Inverses
    reality_scale: np.ndarray


def _spectra(h: np.ndarray, limit: float = math.inf) -> _Spectra:
    """Eigendecompose each matrix on the last two axes of ``h`` by one ``zgeev`` call each.

    A stack goes to ``np.linalg.eig``, one matrix to ``zgeev`` through
    :mod:`pseudoherm._lapack` (or, when it is upper Hessenberg, as a grid H
    is, to ``zgeev``'s stages after the Hessenberg reduction); all give each
    matrix the same bits.  D^-1 comes from :func:`_inverses`, which splits
    the same way.  One matrix whose D has a condition above ``limit`` gets
    no D^-1 (``inverses.inverse`` is ``None``), and D^-1 is never held whole;
    a stack's D^-1 is kept whatever its condition.

    Each matrix gets what :func:`eigendecompose` documents for one: the
    order, the phase convention, the residuals, D^-1 with its condition,
    and the scale its reality tolerance is relative to, all of ``h``.
    """
    try:
        # a stack goes to numpy, whose eig loops over it in C; one matrix
        # to _lapack.eig: zgeev, or its stages after the Hessenberg reduction
        # for a grid H, either holding one n x n copy fewer than numpy's eig
        # (9 MiB at n = 768)
        w, v = np.linalg.eig(h) if h.ndim > 2 else _lapack.eig(h)
    except np.linalg.LinAlgError as exc:  # how LAPACK reports non-convergence
        raise ConvergenceFailure(str(exc)) from exc

    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    # gathered as rows of V^T: each matrix comes out column-major, as
    # zgeev writes it, whether or not eig stacked the results
    v = np.take_along_axis(v.swapaxes(-1, -2), order[..., :, None], axis=-2).swapaxes(-1, -2)

    # Normalize to unit norm and rotate the phase so the first
    # largest-magnitude component lands on the positive real axis (its
    # imaginary part is then zero by construction, so stamp it).
    v /= _norms(v.swapaxes(-1, -2))[..., None, :]
    first = np.argmax(np.abs(v), axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, first, axis=-2)
    size = np.hypot(pivot.real, pivot.imag)  # rounds as the scalar abs(complex)
    v *= pivot.conj() / size
    np.put_along_axis(v, first, size, axis=-2)

    norm_h = _fro_stack(h)
    residuals = np.empty(w.shape)
    for start in range(0, w.shape[-1], RESIDUAL_BLOCK):
        block = slice(start, start + RESIDUAL_BLOCK)
        vb = v[..., block]
        residuals[..., block] = (
            np.linalg.norm(h @ vb - vb * w[..., None, block], axis=-2)
            / (tolerance_scale(norm_h)[..., None] * np.linalg.norm(vb, axis=-2)))
    return _Spectra(w, residuals, v, _inverses(v, limit), tolerance_scale(norm_h))


def eigendecompose(h, tol: ToleranceConfig | None = None) -> Spectrum:
    """Eigendecompose a general complex matrix.

    Backed by LAPACK's ``zgeev``, called through :mod:`pseudoherm._lapack`,
    which skips its Hessenberg reduction on an upper Hessenberg H such as a
    grid's, with the same bits (a stack goes through numpy's ``eig``, see
    :func:`_spectra`); the external behavior is fixed by the contract, not
    the solver:
    deterministic ordering, the largest-component phase convention,
    per-pair relative residuals ``||Hv - lambda v||_F / (||H||_F ||v||)``,
    taken ``RESIDUAL_BLOCK`` pairs per matrix product, and reality tags.
    Pairs whose residual exceeds ``residual_tol`` are kept but flagged.
    :func:`_spectra` does the work on H taken in by :func:`_intake`, whose
    eigenvalues :func:`_unscale` scales back.  D^-1 is kept only where
    :func:`build_diagonalizer` accepts D under ``tol``: a near-defective D's
    inverse would be an n x n array that no metric reads, so it is never
    built whole, only solved a block of columns at a time for the exact
    ``diagonalizer_condition`` (``limit = 1 / metric_tol`` of :func:`_spectra`).
    """
    h, f = _intake(as_matrix(h))
    tol = tol or DEFAULT_TOL
    w, residuals, v, inverses, scale = _spectra(h, 1.0 / tol.metric_tol)
    flags = [f"residual_above_tolerance:index={k},residual={res:.3e}"
             for k, res in enumerate(residuals) if res > tol.residual_tol]
    reality, w = _reality_tags(w, tol, scale), _unscale(w, f)
    for a in (w, residuals, v):
        a.flags.writeable = False
    near_defective = inverses.condition > 1.0 / tol.metric_tol  # as build_diagonalizer judges
    return Spectrum(
        eigenvalues=w,
        residuals=residuals,
        reality=reality,
        diagonalizer_condition=float(inverses.condition),
        eigenvectors=v,
        flags=tuple(flags),
        diagonalizer_inverse=(None if inverses.singular or near_defective
                              else inverses.inverse),
    )


def _is_real(w: np.ndarray, tol: ToleranceConfig, scale) -> np.ndarray:
    """Which eigenvalues count as real: ``|Im w| <= reality_tol * scale``, one scale per row."""
    with np.errstate(over="ignore"):  # a bound above the float range is inf: every w is real
        return np.abs(w.imag) <= tol.reality_tol * np.expand_dims(scale, -1)


def _reality_tags(w: np.ndarray, tol: ToleranceConfig, scale: float) -> tuple[RealityTag, ...]:
    """Tag each eigenvalue real, conjugate-paired or complex.

    Non-real eigenvalues are paired greedily: each unpaired ``w[i]``, in
    ascending ``i``, takes the nearest unpaired ``conj(w[j])`` (lowest ``j``
    on ties) if it lies within ``pairing_tol * scale``; one left unpaired
    stays eligible as a later partner.
    """
    real = _is_real(w, tol, scale)
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


def _similarity(s: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(S H S^-1, S^-1, singular)`` for each S on the last two axes of ``s``.

    S is inverted, all of a stack by one call of :func:`_inverses`; where S
    is singular, S^-1 and S H S^-1 are NaN, and S H S^-1 is ``None`` where
    every S is singular, as no product is formed.
    A permutation S (:func:`permutation_of`), the same at every point of a
    stack, is neither inverted nor multiplied: ``S H S^-1`` is the gather
    ``H[p_i, p_j]``, and S^-1 is returned as the row gather ``argsort(p)``;
    apply it with :func:`_inverse_times`.  The gather differs from the
    products only in the sign of a zero, which :func:`fro` squares away.
    The identity's ``S H S^-1`` is ``h`` itself, read in place and not
    copied, when ``h`` is C-contiguous; otherwise it is the C-ordered gather,
    as :func:`fro` sums in memory order.  The caller must not write to it.
    """
    first = s.reshape(-1, *s.shape[-2:])[0]
    p = permutation_of(first)
    if p is not None and (s == first).all():
        singular = np.zeros(s.shape[:-2], dtype=bool)
        if h.flags.c_contiguous and (p == np.arange(len(p))).all():
            return h, p, singular
        return h[..., p[:, None], p], np.argsort(p), singular
    inverses = _inverses(s)
    singular = inverses.singular
    return None if singular.all() else s @ h @ inverses.inverse, inverses.inverse, singular


def _inverse_times(s_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S^-1 x`` for S^-1 as :func:`_similarity` returns it: a matrix, or a row gather."""
    return x[s_inv] if s_inv.ndim == 1 else s_inv @ x


def similarity_residual(s, h, target) -> float:
    """Relative residual ``||S H S^-1 - target||_F / ||H||_F`` (``/ 1`` for H = 0).

    Invariant under rescaling of ``S`` by any nonzero complex number.  A
    permutation S takes no factorization and no product, with the same
    result (see :func:`_similarity`).  Raises :class:`SingularMatrix` when
    S cannot be inverted.
    """
    s = as_matrix(s)
    h = as_matrix(h)
    target = as_matrix(target)
    if not (s.shape == h.shape == target.shape):
        raise DimensionMismatch(
            f"shape mismatch: S {s.shape}, H {h.shape}, target {target.shape}"
        )
    h, f = _intake(h)
    similar, _, singular = _similarity(s, h)
    if singular:
        raise SingularMatrix("S is singular")
    return fro(similar - target * f) / tolerance_scale(fro(h))


# ---------------------------------------------------------------------------
# Matrix interchange format
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(float(x), ".17g")


class JSONText(str):
    """JSON text rendered beforehand, which :func:`to_json_text` copies verbatim."""


def to_json_text(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Dict keys keep insertion order; complex numbers become ``[re, im]``.
    A float or complex ndarray is written as the nested lists of its
    values, the same bytes as its ``tolist()`` form, after one finiteness
    check of the whole array.  A :class:`JSONText` is written as it is.
    """
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    # the containers and scalars a report is mostly made of come first
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(_quote(str(key)))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, str):
        out.append(obj if type(obj) is JSONText else _quote(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "fc" and obj.size:
        require_finite(obj)
        out.append(array_texts(obj[np.newaxis])[0])
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if all(isinstance(val, float) for val in obj):  # a complex scalar's [re, im], sweep values
            out.append("[" + ", ".join(map(format_float, obj)) + "]")
            return
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([float(obj.real), float(obj.imag)], out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


# json.dumps of a str, without its per-call dispatch
_quote = json.encoder.encode_basestring_ascii


def require_finite(a: np.ndarray) -> None:
    """Raise the writer's ``ValueError`` unless every value of ``a`` is finite."""
    if not np.isfinite(a).all():
        raise ValueError("cannot serialize non-finite float")


def array_texts(stack: np.ndarray) -> list[str]:
    """The nested-list text of each array along the first axis of a float or
    complex ``stack`` (complex values as ``[re, im]``), from one ``tolist()``.

    The lists are built once per call as a template with a ``%.17g`` (the
    conversion of :func:`format_float`) for each value, which every array
    fills in; no template is kept between writes.  The values are not
    checked: a non-finite one is written as ``nan`` or ``inf``, so a caller
    checks them first (:func:`require_finite`).
    """
    shape = stack.shape[1:]
    if stack.dtype.kind == "c":
        shape += (2,)
        stack = np.ascontiguousarray(stack).view(stack.real.dtype)  # re, im, re, im, ...
    texts = ["%.17g"] * math.prod(shape)
    for size in reversed(shape):  # close the innermost lists first
        texts = ["[" + ", ".join(texts[i:i + size]) + "]" for i in range(0, len(texts), size)]
    return [texts[0] % tuple(values) for values in stack.reshape(len(stack), -1).tolist()]


def matrix_from_doc(doc) -> np.ndarray:
    """Parse an interchange document; rejects non-square input.

    The rows are checked by one scan of the types and lengths of their
    lists and values, and converted by one ``np.fromiter`` over all the
    values.  Input the scan or the conversion rejects is walked again entry
    by entry, in row-major order, to name its first bad row or entry;
    non-finite values are checked last.
    """
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
    if not _is_pair_grid(rows, n):
        _raise_first_bad_entry(rows, n)
    # one pass over the values, into the one array: np.array of the rows would
    # hold a conversion record for each of their n^2 lists, 2 MiB at n = 256
    values = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
    try:
        pairs = np.fromiter(values, dtype=np.float64, count=2 * n * n)
    except OverflowError:  # an integer beyond the float range
        _raise_first_bad_entry(rows, n)
        raise
    m = pairs.view(np.complex128).reshape(n, n)  # a view of the (n, n, 2) floats
    if not np.isfinite(m).all():
        raise MatrixFormatError("entries must be finite")
    return m


def _all_of(values, kinds) -> bool:
    """Whether every value is an instance of ``kinds`` and none a ``bool``, by one
    pass over ``values`` that collects their types."""
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, values)))


def _is_pair_grid(rows: list, n: int) -> bool:
    """Whether ``rows`` holds ``n`` lists of ``n`` ``[re, im]`` lists of numbers."""
    entries = itertools.chain.from_iterable
    return (_all_of(rows, list) and set(map(len, rows)) == {n}
            and _all_of(entries(rows), list) and set(map(len, entries(rows))) == {2}
            and _all_of(entries(entries(rows)), (int, float)))


def _raise_first_bad_entry(rows: list, n: int) -> None:
    """Raise the error of the first bad row or entry of ``rows``, in row-major order:
    a row that is not a list of ``n`` entries, an entry that is not a ``[re, im]``
    pair of numbers, or an integer beyond the float range.  Return if there is none."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i} is not a list of {n} entries (non-square input?)")
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2 and _all_of(entry, (int, float))):
                raise MatrixFormatError(f"entry ({i},{j}) is not a [re, im] pair")
            try:
                complex(*entry)
            except OverflowError as exc:
                raise MatrixFormatError(f"entry ({i},{j}) is too large for a float") from exc


def dumps_matrix(m) -> str:
    """Interchange text ``{"n": ..., "rows": [[[re, im], ...], ...]}`` of ``m``, with a newline."""
    m = as_matrix(m)
    return to_json_text({"n": m.shape[0], "rows": m}) + "\n"


def loads_matrix(text: str) -> np.ndarray:
    # json.loads of an n x n matrix makes n^2 + n lists, none in a reference cycle, so
    # the cyclic collector, which would scan the growing young generations again and
    # again, is paused for it and then left as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
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
