"""Symmetry classification of complex Hamiltonians and metric construction.

A matrix H is called

* pseudo-real under an invertible rho        when  rho H rho^-1 = conj(H),
* pseudo-adjoint under an invertible mu      when  mu H mu^-1 = H^T,
* pseudo-Hermitian under an invertible eta   when  eta H eta^-1 = H^dagger.

Pseudo-reality is the necessary condition for a real spectrum; an
eigenvalue is actually real exactly when its eigenvector additionally
satisfies the colinearity condition rho^-1 conj(psi) = eps * psi (checked
by :func:`eigenstate_reality_check`).  When H is diagonalizable by D the
three metrics, and their inverses, can be constructed directly:

* rho  = conj(D) D^-1,              rho^-1  = D conj(D^-1)
  (real spectrum; satisfies rho conj(rho) = 1),
* mu   = (D D^T)^-1 = D^-T D^-1,    mu^-1   = D D^T
  (any diagonalizable H; symmetric),
* eta+ = (D D^dagger)^-1 = D^-dagger D^-1,   eta+^-1 = D D^dagger
  (real spectrum; Hermitian positive definite),

so one inverse of D gives all six matrices by products alone.  A
pseudo-real + pseudo-adjoint pair composes into a pseudo-Hermiticity
metric eta = (mu rho^-1)^T.

Metrics are meaningful only up to a nonzero complex scalar, so reports
store them canonically normalized: the first nonzero entry in row-major
order is scaled to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConvergenceFailure,
    DimensionMismatch,
    NearDefective,
    SingularMatrix,
    Spectrum,
    ToleranceConfig,
    ZeroVector,
    _inverse_times,
    _similarity,
    as_matrix,
    as_vector,
    build_diagonalizer,
    eigendecompose,
    fro,
    inverse,
    tolerance_scale,
)

PSEUDO_REAL = "pseudo_real"
PSEUDO_ADJOINT = "pseudo_adjoint"
PSEUDO_HERMITIAN = "pseudo_hermitian"
KINDS = (PSEUDO_REAL, PSEUDO_ADJOINT, PSEUDO_HERMITIAN)

# Entries at or below this fraction of the largest magnitude count as zero
# when locating the canonical normalization pivot.
CANONICAL_ZERO_REL = 1e-12


@dataclass(frozen=True)
class MetricReport:
    """Outcome of one similarity check.

    ``metric`` is stored canonically normalized; ``residual`` is the
    relative similarity residual against the kind's target and the check
    holds when it does not exceed ``metric_tol``.
    """

    kind: str
    name: str
    metric: np.ndarray
    residual: float
    holds: bool
    provenance: str


@dataclass(frozen=True)
class RealityCheck:
    """Colinearity test rho^-1 conj(psi) = eps * psi for one eigenvector."""

    eigen_index: int
    metric_name: str
    epsilon: complex
    colinearity_residual: float
    holds: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Full symmetry verdict for one Hamiltonian."""

    hermitian: tuple[bool, float]
    self_adjoint: tuple[bool, float]
    pseudo_real: tuple[MetricReport, ...]
    pseudo_adjoint: tuple[MetricReport, ...]
    pseudo_hermitian: tuple[MetricReport, ...]
    pt_symmetric: tuple[str, float, bool] | None
    spectrum: Spectrum | None
    reality_checks: tuple[RealityCheck, ...]
    warnings: tuple[str, ...] = ()


def _pivot(m: np.ndarray) -> complex:
    """First entry (row-major) above ``CANONICAL_ZERO_REL`` times the largest magnitude."""
    flat = m.reshape(-1)
    mag = np.abs(flat)
    top = float(mag.max())
    if top == 0.0:
        raise SingularMatrix("zero matrix has no canonical normalization")
    return flat[int(np.argmax(mag > CANONICAL_ZERO_REL * top))]


def canonical_normalize(m) -> np.ndarray:
    """Scale so the first nonzero entry (row-major) equals 1.

    Entries below ``CANONICAL_ZERO_REL`` times the largest magnitude are
    treated as zero, so tiny numerical residue cannot become the pivot.
    """
    m = as_matrix(m)
    return m / _pivot(m)


def _residuals(h: np.ndarray, similar: np.ndarray) -> tuple[float, float, float]:
    """Relative residuals of ``similar`` = S H S^-1 against conj(H), H^T and H^dagger."""
    scale = tolerance_scale(fro(h))
    # One buffer holds each target and difference in turn.  It is C-ordered
    # whatever the order of H, as the temporary similar - target was: fro
    # sums in memory order, so another order would change the last bits.
    diff = np.empty_like(h, order="C")
    residuals = []
    for target, conjugate in ((h, True), (h.T, False), (h.T, True)):
        if conjugate:
            target = np.conjugate(target, out=diff)
        np.subtract(similar, target, out=diff)
        residuals.append(fro(diff) / scale)
    return tuple(residuals)


def _check(h: np.ndarray, metric: np.ndarray, tol: ToleranceConfig, name: str,
           provenance: str, vectors=None, metric_inv: np.ndarray | None = None
           ) -> tuple[dict[str, MetricReport], tuple[np.ndarray, np.ndarray] | None]:
    """The reports of :func:`check_all`, and the reality checks of ``vectors``.

    The metric is inverted unless its inverse is given; a given
    ``metric_inv`` is scaled in place by the canonical pivot, unless that
    is 1.  A permutation metric without a given inverse is neither
    inverted nor multiplied: ``S H S^-1`` and the reality checks are index
    gathers (see :func:`pseudoherm.linalg._similarity`), with the same
    results.  The colinearity ``(eps, residual)`` of each vector is taken
    under the canonical metric when ``vectors`` are given and the metric
    is pseudo-real, and is ``None`` otherwise.
    """
    if metric.shape != h.shape:
        raise DimensionMismatch(f"shape mismatch: S {metric.shape}, H {h.shape}")
    similar, metric_inv = _similarity(metric, h, metric_inv)
    pivot = _pivot(metric)
    canonical = metric / pivot
    reports = {kind: MetricReport(kind, name, canonical, residual,
                                  bool(residual <= tol.metric_tol), provenance)
               for kind, residual in zip(KINDS, _residuals(h, similar))}
    if not (vectors and reports[PSEUDO_REAL].holds):
        return reports, None
    if pivot != 1:
        metric_inv *= pivot  # (metric / pivot)^-1
    return reports, _colinearity(metric_inv, vectors)


def check_all(h, metric, tol: ToleranceConfig | None = None,
              name: str = "metric", provenance: str = "user") -> dict[str, MetricReport]:
    """Test ``metric`` against all three similarity targets of H.

    Returns the pseudo-real, pseudo-adjoint and pseudo-Hermitian reports,
    keyed by kind in that order.  The metric is inverted once and
    ``S H S^-1`` formed once, or, for a permutation metric, gathered from
    H by index with neither an inverse nor a product; each residual equals
    ``similarity_residual(metric, h, target)`` for its target.  Raises
    :class:`SingularMatrix` when the metric cannot be inverted.
    """
    return _check(as_matrix(h), as_matrix(metric), tol or DEFAULT_TOL, name, provenance)[0]


def check_pseudo_real(h, rho, tol: ToleranceConfig | None = None,
                      name: str = "rho", provenance: str = "user") -> MetricReport:
    """Test rho H rho^-1 = conj(H)."""
    return check_all(h, rho, tol, name, provenance)[PSEUDO_REAL]


def check_pseudo_adjoint(h, mu, tol: ToleranceConfig | None = None,
                         name: str = "mu", provenance: str = "user") -> MetricReport:
    """Test mu H mu^-1 = H^T."""
    return check_all(h, mu, tol, name, provenance)[PSEUDO_ADJOINT]


def check_pseudo_hermitian(h, eta, tol: ToleranceConfig | None = None,
                           name: str = "eta", provenance: str = "user") -> MetricReport:
    """Test eta H eta^-1 = H^dagger."""
    return check_all(h, eta, tol, name, provenance)[PSEUDO_HERMITIAN]


def compose_eta(rho, mu) -> np.ndarray:
    """Combine a pseudo-reality and a pseudo-adjointness metric.

    Returns ``(mu rho^-1)^T``, which certifies pseudo-Hermiticity whenever
    rho and mu certify their respective relations on the same H.
    """
    rho = as_matrix(rho)
    mu = as_matrix(mu)
    rho_inv, _ = inverse(rho)
    return (mu @ rho_inv).T.copy()


def _rho_pair(d: np.ndarray, d_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return d.conj() @ d_inv, d @ d_inv.conj()


def _mu_pair(d: np.ndarray, d_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # both averaged with their transposes: a projection onto the symmetry
    # the exact expressions have
    mu = d_inv.T @ d_inv
    mu_inv = d @ d.T
    return (mu + mu.T) / 2.0, (mu_inv + mu_inv.T) / 2.0


def _eta_plus_pair(d: np.ndarray, d_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # both averaged with their daggers, so exactly Hermitian
    eta = d_inv.conj().T @ d_inv
    eta_inv = d @ d.conj().T
    return (eta + eta.conj().T) / 2.0, (eta_inv + eta_inv.conj().T) / 2.0


def rho_from_diagonalizer(d) -> np.ndarray:
    """Pseudo-reality metric ``conj(D) D^-1`` of a real-spectrum Hamiltonian.

    Satisfies ``rho conj(rho) = 1`` to machine precision.
    """
    d = as_matrix(d)
    return _rho_pair(d, inverse(d)[0])[0]


def mu_from_diagonalizer(d) -> np.ndarray:
    """Pseudo-adjointness metric ``D^-T D^-1 = (D D^T)^-1`` of a diagonalizable H.

    The result is made exactly transpose-symmetric by averaging.
    """
    d = as_matrix(d)
    return _mu_pair(d, inverse(d)[0])[0]


def eta_plus_from_diagonalizer(d) -> np.ndarray:
    """Positive-definite metric ``D^-dagger D^-1 = (D D^dagger)^-1`` of a real-spectrum H.

    Exactly Hermitian by construction (averaged with its own dagger).
    """
    d = as_matrix(d)
    return _eta_plus_pair(d, inverse(d)[0])[0]


# Metrics built from the diagonalizer D: (name, builder, relation it
# certifies).  A builder maps (D, D^-1) to (metric, metric^-1) by matrix
# products alone.
DIAGONALIZER_METRICS = (
    ("from_D_rho", _rho_pair, PSEUDO_REAL),
    ("from_D_mu", _mu_pair, PSEUDO_ADJOINT),
    ("from_D_eta_plus", _eta_plus_pair, PSEUDO_HERMITIAN),
)


def check_metrics(h, candidates, spectrum: Spectrum | None, tol: ToleranceConfig | None = None,
                  vectors=None) -> tuple[list[dict[str, MetricReport]], list[tuple], list[str]]:
    """Run :func:`check_all` on each candidate, then on the diagonalizer metrics.

    Returns ``(checked, reality, warnings)``: the reports of each metric,
    candidates first; ``(name, eps, residual)`` for each pseudo-real metric
    whose reality checks ran on ``vectors``; and the warnings.  A singular
    metric fails every relation with residual ``inf``.  The diagonalizer
    metrics need ``spectrum`` and are suppressed with a warning when its
    eigenvector matrix is near-defective or singular.  Each metric is built,
    with its inverse, in turn, so one metric inverse is alive at a time.
    The diagonalizer metrics take D^-1 from the spectrum; D is inverted
    only for a spectrum that carries no inverse.
    """
    h = as_matrix(h)
    tol = tol or DEFAULT_TOL
    todo = [(name, as_matrix(metric), "user") for name, metric in (candidates or {}).items()]
    if spectrum is not None:
        todo += [(name, build, "from_diagonalizer") for name, build, _ in DIAGONALIZER_METRICS]
    checked, reality, warn = [], [], []
    d = None
    for name, metric, provenance in todo:
        metric_inv = None
        if callable(metric):
            try:
                if d is None:
                    d = build_diagonalizer(spectrum, tol)
                    d_inv = spectrum.diagonalizer_inverse
                    if d_inv is None:
                        d_inv, _ = inverse(d)
                metric, metric_inv = metric(d, d_inv)
            except (NearDefective, SingularMatrix) as exc:
                warn.append(f"diagonalizer metrics suppressed: {exc}")
                break
        elif metric.shape != h.shape:
            raise DimensionMismatch(
                f"candidate '{name}' has shape {metric.shape}, expected {h.shape}")
        try:
            reports, colinearity = _check(h, metric, tol, name, provenance, vectors, metric_inv)
        except SingularMatrix:
            warn.extend(f"metric '{name}' is singular; {kind} check skipped" for kind in KINDS)
            metric = metric.copy()
            reports = {kind: MetricReport(kind, name, metric, math.inf, False, provenance)
                       for kind in KINDS}
            colinearity = None
        checked.append(reports)
        if colinearity is not None:
            reality.append((name, *colinearity))
    return checked, reality, warn


# Eigenvectors per matrix product of the reality check: enough columns for
# a matrix-matrix product, few enough that the n x block temporaries stay
# small next to the n x n inverse.
REALITY_BLOCK = 64


def _colinearity(rho_inv: np.ndarray, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Colinearity of ``w = rho^-1 conj(psi)`` with ``psi``, for each vector ``psi``.

    Returns ``eps = psi^H w / psi^H psi`` and ``||w - eps psi|| / ||w||``
    per vector, from one matrix product per block of ``REALITY_BLOCK``
    vectors.  The residual is the norm of the difference itself: the
    shortcut ``||w||^2 - |psi^H w|^2`` cancels to noise near colinearity.
    ``rho_inv`` is as :func:`pseudoherm.linalg._similarity` returns it; for
    a permutation rho, ``w`` is a row gather of ``conj(psi)``, which differs
    from the product only in the sign of a zero, and the sums and norms
    ``w`` enters drop that sign.
    """
    count = len(vectors)
    eps = np.empty(count, dtype=np.complex128)
    residual = np.empty(count)
    for start in range(0, count, REALITY_BLOCK):
        block = slice(start, min(start + REALITY_BLOCK, count))
        v = np.column_stack(vectors[block])
        v_conj = v.conj()
        w = _inverse_times(rho_inv, v_conj)
        e = np.einsum("ij,ij->j", v_conj, w) / np.einsum("ij,ij->j", v_conj, v)
        eps[block] = e
        residual[block] = np.linalg.norm(w - e * v, axis=0) / np.linalg.norm(w, axis=0)
    return eps, residual


def _reality_check(eigen_index: int, metric_name: str, eps, residual,
                   tol: ToleranceConfig) -> RealityCheck:
    return RealityCheck(
        eigen_index=eigen_index,
        metric_name=metric_name,
        epsilon=complex(eps),
        colinearity_residual=float(residual),
        holds=bool(residual <= tol.metric_tol),
    )


def eigenstate_reality_check(rho, psi, tol: ToleranceConfig | None = None,
                             eigen_index: int = -1,
                             metric_name: str = "rho") -> RealityCheck:
    """Check whether ``rho^-1 conj(psi)`` is colinear with ``psi``.

    For an eigenvector of a pseudo-real H, colinearity is equivalent to
    the reality of its eigenvalue.  The proportionality factor ``eps`` is
    reported but deliberately not constrained to unit modulus.
    """
    tol = tol or DEFAULT_TOL
    rho = as_matrix(rho)
    psi = as_vector(psi)
    if float(np.linalg.norm(psi)) == 0.0:
        raise ZeroVector("eigenstate reality check needs a nonzero vector")
    rho_inv, _ = inverse(rho)
    eps, residual = _colinearity(rho_inv, [psi])
    return _reality_check(eigen_index, metric_name, eps[0], residual[0], tol)


def default_parity(n: int) -> np.ndarray:
    """Anti-diagonal reversal matrix, the default parity for matrix input."""
    return np.fliplr(np.eye(n, dtype=np.complex128)).copy()


def symmetry_generator(eta_i, eta_j, h) -> tuple[np.ndarray, float]:
    """Symmetry generator built from two pseudo-Hermiticity metrics of H.

    When eta_i and eta_j both certify eta H eta^-1 = H^dagger, equating the
    two relations gives eta_j^-1 eta_i H = H eta_j^-1 eta_i, so the product
    in that order is the commuting generator; the function returns it with
    its relative commutator residual.  (Writing the product with the
    inverse on the right commutes with H^dagger instead, not H.)
    """
    eta_i = as_matrix(eta_i)
    h = as_matrix(h)
    eta_j_inv, _ = inverse(eta_j)
    gen = eta_j_inv @ eta_i
    denom = fro(h) * fro(gen)
    residual = fro(h @ gen - gen @ h) / denom if denom > 0 else 0.0
    return gen, float(residual)


def classify(h, candidates=None, tol: ToleranceConfig | None = None,
             parity=None, parity_name: str = "reversal",
             spectrum: Spectrum | None = None) -> ClassificationReport:
    """Run the full symmetry analysis of one Hamiltonian.

    ``candidates`` maps metric names to matrices; every candidate is tested
    against all three similarity targets.  When the eigenvector matrix is
    well enough conditioned, metrics constructed from the diagonalizer are
    appended with provenance ``"from_diagonalizer"``.  Every eigenvector is
    then run through the reality check against every holding pseudo-reality
    metric.  Failed checks are recorded, never raised; only input-format
    errors propagate.

    The PT verdict is pseudo-reality under a designated parity matrix
    (grid/anti-diagonal reversal by default, overridable via ``parity``).
    A precomputed ``spectrum`` may be passed to avoid a second eigensolve.
    """
    h = as_matrix(h)
    tol = tol or DEFAULT_TOL
    n = h.shape[0]

    _, sa_res, herm_res = _residuals(h, h)  # S = 1: symmetry and Hermiticity of H
    hermitian = (bool(herm_res <= tol.metric_tol), float(herm_res))
    self_adjoint = (bool(sa_res <= tol.metric_tol), float(sa_res))

    failure = None
    if spectrum is None:
        try:
            spectrum = eigendecompose(h, tol)
        except ConvergenceFailure as exc:
            failure = f"eigendecomposition failed: {exc}"

    vectors = [pair.eigenvector for pair in spectrum.pairs] if spectrum is not None else []
    checked, reality, warn = check_metrics(h, candidates, spectrum, tol, vectors)
    if failure is not None:
        warn.append(failure)
    pseudo_real, pseudo_adjoint, pseudo_hermitian = (tuple(r[k] for r in checked) for k in KINDS)

    parity = as_matrix(parity) if parity is not None else default_parity(n)
    if parity.shape != h.shape:
        raise DimensionMismatch("parity matrix dimension mismatch")
    # A candidate equal to the parity already holds this residual.  A
    # singular one (residual inf) falls through to the inversion, which
    # raises for it.
    pt_res = next((reports[PSEUDO_REAL].residual
                   for reports, metric in zip(checked, (candidates or {}).values())
                   if math.isfinite(reports[PSEUDO_REAL].residual)
                   and np.array_equal(metric, parity)), None)
    try:
        if pt_res is None:
            pt_res = _residuals(h, _similarity(parity, h)[0])[0]
        pt = (parity_name, float(pt_res), bool(pt_res <= tol.metric_tol))
    except SingularMatrix:
        warn.append("parity matrix is singular; PT check skipped")
        pt = None

    reality_checks = tuple(_reality_check(k, name, eps[k], residual[k], tol)
                           for k in range(len(vectors)) for name, eps, residual in reality)

    return ClassificationReport(
        hermitian=hermitian,
        self_adjoint=self_adjoint,
        pseudo_real=pseudo_real,
        pseudo_adjoint=pseudo_adjoint,
        pseudo_hermitian=pseudo_hermitian,
        pt_symmetric=pt,
        spectrum=spectrum,
        reality_checks=reality_checks,
        warnings=tuple(warn),
    )
