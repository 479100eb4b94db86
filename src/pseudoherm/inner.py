"""Inner-product structures and norm signatures for eigenstate sets.

Four Gram matrices over states Psi_1..Psi_m, the columns of a matrix
(the layout of ``Spectrum.eigenvectors``):

* eta gram:        G[m, n] = Psi_m^dagger eta Psi_n          (pseudo-norms)
* PT gram:         G[m, n] = (P conj(Psi_m))^T Psi_n
* transpose gram:  G[m, n] = Psi_m^T Psi_n                   (no conjugation)
* Hermitian gram:  G[m, n] = Psi_m^dagger Psi_n

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
    as_matrix,
    fro,
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
        left = ev.conj() if conjugate_pairing else ev
        with np.errstate(over="ignore"):  # an infinite gap is non-degenerate
            scale = max(1.0, float(np.abs(ev).max()))
            gap = np.abs(left[:, None] - ev[None, :])
        mask &= gap > DEGENERACY_TOL * scale
    if not mask.any():
        return 0.0
    return float(np.abs(gram[mask]).max())


def _signature(gram: np.ndarray, metric_norm: float, state_norms: np.ndarray,
               tol: ToleranceConfig) -> tuple[tuple[complex, ...], tuple[str, ...]]:
    norms = tuple(complex(gram[k, k]) for k in range(gram.shape[0]))
    signs = []
    for k, value in enumerate(norms):
        dead = tol.metric_tol * metric_norm * float(state_norms[k]) ** 2
        if abs(value.real) <= dead:
            signs.append("0")
        else:
            signs.append("+" if value.real > 0 else "-")
    return norms, tuple(signs)


def _report(kind: str, gram: np.ndarray, metric_norm: float, state_norms: np.ndarray,
            eigenvalues, conjugate_pairing: bool, tol: ToleranceConfig) -> GramReport:
    norms, signs = _signature(gram, metric_norm, state_norms, tol)
    return GramReport(
        kind=kind,
        gram=gram,
        offdiag_max=_offdiag_max(gram, eigenvalues, conjugate_pairing),
        norms=norms,
        signature=signs,
    )


def eta_gram(states, eta, eigenvalues=None, tol: ToleranceConfig | None = None) -> GramReport:
    """Pseudo-norm Gram matrix ``Psi_m^dagger eta Psi_n`` of the columns of ``states`` (n x m)."""
    tol = tol or DEFAULT_TOL
    v = _states(states)
    eta = as_matrix(eta)
    if eta.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"metric is {eta.shape[0]}x{eta.shape[0]} but states have dimension {v.shape[0]}"
        )
    state_norms = np.linalg.norm(v, axis=0)
    if float(state_norms.min()) == 0.0:
        raise ZeroVector("eta gram needs nonzero states")
    gram = v.conj().T @ eta @ v
    return _report(ETA_GRAM, gram, fro(eta), state_norms, eigenvalues, True, tol)


def pt_gram(states, parity, eigenvalues=None, tol: ToleranceConfig | None = None) -> GramReport:
    """PT Gram matrix ``(P conj(Psi_m))^T Psi_n`` of the columns of ``states`` (n x m)."""
    tol = tol or DEFAULT_TOL
    v = _states(states)
    parity = as_matrix(parity)
    if parity.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"parity is {parity.shape[0]}x{parity.shape[0]} but states have dimension {v.shape[0]}"
        )
    gram = (parity @ v.conj()).T @ v
    state_norms = np.linalg.norm(v, axis=0)
    return _report(PT_GRAM, gram, fro(parity), state_norms, eigenvalues, True, tol)


def transpose_gram(states, eigenvalues=None, tol: ToleranceConfig | None = None) -> GramReport:
    """Bilinear Gram matrix ``Psi_m^T Psi_n`` (no conjugation) of the columns of ``states``.

    Nonzero vectors may still self-pair to zero here: the bilinear form
    has isotropic vectors such as (1, i).
    """
    tol = tol or DEFAULT_TOL
    v = _states(states)
    gram = v.T @ v
    state_norms = np.linalg.norm(v, axis=0)
    metric_norm = float(np.sqrt(v.shape[0]))
    return _report(TRANSPOSE_GRAM, gram, metric_norm, state_norms, eigenvalues, False, tol)


def hermitian_gram(states, tol: ToleranceConfig | None = None) -> GramReport:
    """Gram matrix ``Psi_m^dagger Psi_n`` of the columns of ``states``; its diagonal is > 0."""
    tol = tol or DEFAULT_TOL
    v = _states(states)
    gram = v.conj().T @ v
    state_norms = np.linalg.norm(v, axis=0)
    metric_norm = float(np.sqrt(v.shape[0]))
    return _report(HERMITIAN_GRAM, gram, metric_norm, state_norms, None, True, tol)
