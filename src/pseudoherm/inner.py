"""Inner-product structures and norm signatures for eigenstate sets.

The Grams over states Psi_1..Psi_m, the columns of a matrix (the layout of
``Spectrum.eigenvectors``), are one form, ``G = L(Psi, M) Psi``: a left
factor L, which may conjugate the states and apply a metric M, times the
states.  The four (L, M) choices:

* eta gram:        L = Psi^dagger eta,       M = eta    (pseudo-norms)
* PT gram:         L = (P conj(Psi))^T,      M = P
* transpose gram:  L = Psi^T,                unit form  (no conjugation)
* Hermitian gram:  L = Psi^dagger,           unit form

For eigenstates of a Hamiltonian certified by a metric, off-diagonal
entries of the matching gram vanish whenever the eigenvalue pair is
non-degenerate (conj(E_m) != E_n for the conjugating products, E_m != E_n
for the transpose product), and eigenvectors of genuinely complex
eigenvalues have zero pseudo-norm.  Passing ``eigenvalues`` restricts the
reported off-diagonal maximum to those non-degenerate pairs.

States are used exactly as given; pseudo-norm magnitudes depend on the
caller's normalization and only the signs and zeros carry meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    ToleranceConfig,
    ZeroVector,
    _unit_factor,
    as_matrix,
    fro,
    permutation_of,
)

ETA_GRAM = "eta"
PT_GRAM = "pt"
TRANSPOSE_GRAM = "transpose"
HERMITIAN_GRAM = "hermitian"

# Eigenvalue pairs closer than this (relative) count as degenerate and are
# excluded from the off-diagonal maximum.
DEGENERACY_TOL = 1e-6


@dataclass(frozen=True)
class GramReport:
    """Gram matrix with its orthogonality and signature summary.

    ``offdiag_max`` is the largest off-diagonal magnitude over the pairs
    the orthogonality statement applies to; ``norms`` is the diagonal and
    ``signature`` assigns +, - or 0 to the real part of each norm, with a
    dead zone of ``metric_tol * ||metric|| * ||psi||^2`` so numerical noise
    cannot flip a sign.
    """

    kind: str
    gram: np.ndarray
    offdiag_max: float
    norms: tuple[complex, ...]
    signature: tuple[str, ...]


def _states(v) -> np.ndarray:
    """``v`` as complex128, if a finite 2-D array with a column (a list of vectors is not)."""
    if not isinstance(v, np.ndarray) or v.ndim != 2:
        raise DimensionMismatch("states must be a 2-D array whose columns are the states")
    if v.size == 0:
        raise DimensionMismatch(f"need at least one nonempty state, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("state entries must be finite")
    return np.asarray(v, dtype=np.complex128)


def _offdiag_max(gram: np.ndarray, eigenvalues, conjugate_pairing: bool) -> float:
    m = gram.shape[0]
    if m < 2:
        return 0.0
    mask = ~np.eye(m, dtype=bool)
    if eigenvalues is not None:
        ev = np.asarray(eigenvalues, dtype=np.complex128).reshape(-1)
        if ev.size != m:
            raise DimensionMismatch("one eigenvalue per state required")
        # the eigenvalues and the floor 1 times the power of four that brings the
        # largest part into [1/4, 1), so that |ev| and the gaps cannot overflow
        f = float(_unit_factor(ev[None, :])[0])
        ev = ev * f
        left = ev.conj() if conjugate_pairing else ev
        scale = max(f, float(np.abs(ev).max()))
        mask &= np.abs(left[:, None] - ev[None, :]) > DEGENERACY_TOL * scale
    if not mask.any():
        return 0.0
    return float(np.abs(gram[mask]).max())


def _gram(kind: str, states, metric, left, eigenvalues, conjugate_pairing: bool,
          tol: ToleranceConfig | None) -> GramReport:
    """The Gram ``left(Psi, M) @ Psi`` of the columns Psi of ``states``, with its summary.

    ``metric`` is M, or ``None`` for the unit form.  The dead-zone norm of
    the unit form is sqrt(n), and so is that of a strided permutation view
    such as :func:`pseudoherm.metrics.default_parity`, whose ``fro`` would
    copy it: the exact sum of n ones, the bits of ``fro``.  Only the eta
    Gram rejects a zero state.
    """
    tol = tol or DEFAULT_TOL
    v = _states(states)
    n = v.shape[0]
    if metric is None:
        metric_norm = float(np.sqrt(n))
    else:
        metric = as_matrix(metric)
        if metric.shape[0] != n:
            word = "metric" if kind == ETA_GRAM else "parity"
            raise DimensionMismatch(f"{word} is {metric.shape[0]}x{metric.shape[0]} "
                                    f"but states have dimension {n}")
        strided = not (metric.flags.c_contiguous or metric.flags.f_contiguous)
        permutation = strided and permutation_of(metric) is not None
        metric_norm = float(np.sqrt(n)) if permutation else fro(metric)
    state_norms = np.linalg.norm(v, axis=0)
    if kind == ETA_GRAM and float(state_norms.min()) == 0.0:
        raise ZeroVector("eta gram needs nonzero states")
    gram = left(v, metric) @ v
    norms = tuple(complex(z) for z in np.diagonal(gram))
    dead = (tol.metric_tol * metric_norm * float(s) ** 2 for s in state_norms)
    signature = tuple("0" if abs(z.real) <= d else "+" if z.real > 0 else "-"
                      for z, d in zip(norms, dead))
    return GramReport(kind, gram, _offdiag_max(gram, eigenvalues, conjugate_pairing),
                      norms, signature)


def eta_gram(states, eta, eigenvalues=None, tol: ToleranceConfig | None = None) -> GramReport:
    """Pseudo-norm Gram matrix ``Psi_m^dagger eta Psi_n`` of the columns of ``states`` (n x m)."""
    return _gram(ETA_GRAM, states, eta, lambda v, m: v.conj().T @ m, eigenvalues, True, tol)


def pt_gram(states, parity, eigenvalues=None, tol: ToleranceConfig | None = None) -> GramReport:
    """PT Gram matrix ``(P conj(Psi_m))^T Psi_n`` of the columns of ``states`` (n x m)."""
    return _gram(PT_GRAM, states, parity, lambda v, m: (m @ v.conj()).T, eigenvalues, True, tol)


def transpose_gram(states, eigenvalues=None, tol: ToleranceConfig | None = None) -> GramReport:
    """Bilinear Gram matrix ``Psi_m^T Psi_n`` (no conjugation) of the columns of ``states``.

    Nonzero vectors may still self-pair to zero here: the bilinear form
    has isotropic vectors such as (1, i).
    """
    return _gram(TRANSPOSE_GRAM, states, None, lambda v, _: v.T, eigenvalues, False, tol)


def hermitian_gram(states, tol: ToleranceConfig | None = None) -> GramReport:
    """Gram matrix ``Psi_m^dagger Psi_n`` of the columns of ``states``; its diagonal is > 0."""
    return _gram(HERMITIAN_GRAM, states, None, lambda v, _: v.conj().T, None, True, tol)
