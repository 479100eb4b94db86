"""Symmetry classification of complex Hamiltonians and metric construction.

A matrix H is called

* pseudo-real under an invertible rho        when  rho H rho^-1 = conj(H),
* pseudo-adjoint under an invertible mu      when  mu H mu^-1 = H^T,
* pseudo-Hermitian under an invertible eta   when  eta H eta^-1 = H^dagger.

Pseudo-reality is the necessary condition for a real spectrum; an
eigenvalue is actually real exactly when its eigenvector additionally
satisfies the colinearity condition rho^-1 conj(psi) = eps * psi (checked
by :func:`eigenstate_reality_check`).  When H is diagonalizable by D the
three metrics can be constructed directly:

* rho  = conj(D) D^-1           (real spectrum; satisfies rho conj(rho) = 1),
* mu   = (D D^T)^-1             (any diagonalizable H; symmetric),
* eta+ = (D D^dagger)^-1        (real spectrum; Hermitian positive definite),

and a pseudo-real + pseudo-adjoint pair composes into a pseudo-Hermiticity
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
    as_matrix,
    as_vector,
    build_diagonalizer,
    eigendecompose,
    fro,
    inverse,
    similarity_residual,
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


def canonical_normalize(m) -> np.ndarray:
    """Scale so the first nonzero entry (row-major) equals 1.

    Entries below ``CANONICAL_ZERO_REL`` times the largest magnitude are
    treated as zero, so tiny numerical residue cannot become the pivot.
    """
    m = as_matrix(m)
    flat = m.reshape(-1)
    top = float(np.abs(flat).max())
    if top == 0.0:
        raise SingularMatrix("zero matrix has no canonical normalization")
    idx = int(np.argmax(np.abs(flat) > CANONICAL_ZERO_REL * top))
    return m / flat[idx]


def check_all(h, metric, tol: ToleranceConfig | None = None,
              name: str = "metric", provenance: str = "user") -> dict[str, MetricReport]:
    """Test ``metric`` against all three similarity targets of H.

    Returns the pseudo-real, pseudo-adjoint and pseudo-Hermitian reports,
    keyed by kind in that order.  The metric is inverted once and
    ``S H S^-1`` formed once; each residual equals
    ``similarity_residual(metric, h, target)`` for its target.  Raises
    :class:`SingularMatrix` when the metric cannot be inverted.
    """
    h = as_matrix(h)
    metric = as_matrix(metric)
    tol = tol or DEFAULT_TOL
    if metric.shape != h.shape:
        raise DimensionMismatch(f"shape mismatch: S {metric.shape}, H {h.shape}")
    metric_inv, _ = inverse(metric)
    similar = metric @ h @ metric_inv
    scale = max(1.0, fro(h))
    canonical = canonical_normalize(metric)
    reports = {}
    for kind, target in ((PSEUDO_REAL, h.conj()), (PSEUDO_ADJOINT, h.T),
                         (PSEUDO_HERMITIAN, h.conj().T)):
        residual = fro(similar - target) / scale
        reports[kind] = MetricReport(
            kind=kind,
            name=name,
            metric=canonical,
            residual=float(residual),
            holds=bool(residual <= tol.metric_tol),
            provenance=provenance,
        )
    return reports


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


def rho_from_diagonalizer(d) -> np.ndarray:
    """Pseudo-reality metric ``conj(D) D^-1`` of a real-spectrum Hamiltonian.

    Satisfies ``rho conj(rho) = 1`` to machine precision.
    """
    d = as_matrix(d)
    d_inv, _ = inverse(d)
    return d.conj() @ d_inv


def mu_from_diagonalizer(d) -> np.ndarray:
    """Pseudo-adjointness metric ``(D D^T)^-1`` of a diagonalizable Hamiltonian.

    The result is made exactly transpose-symmetric by averaging, which is
    a projection onto the symmetry the exact expression has.
    """
    d = as_matrix(d)
    s = d @ d.T
    s = (s + s.T) / 2.0
    mu, _ = inverse(s)
    return (mu + mu.T) / 2.0


def eta_plus_from_diagonalizer(d) -> np.ndarray:
    """Positive-definite metric ``(D D^dagger)^-1`` of a real-spectrum Hamiltonian.

    Exactly Hermitian by construction (averaged with its own dagger).
    """
    d = as_matrix(d)
    s = d @ d.conj().T
    s = (s + s.conj().T) / 2.0
    eta, _ = inverse(s)
    return (eta + eta.conj().T) / 2.0


# Metrics built from the diagonalizer: (name, constructor, relation it certifies).
DIAGONALIZER_METRICS = (
    ("from_D_rho", rho_from_diagonalizer, PSEUDO_REAL),
    ("from_D_mu", mu_from_diagonalizer, PSEUDO_ADJOINT),
    ("from_D_eta_plus", eta_plus_from_diagonalizer, PSEUDO_HERMITIAN),
)


def check_metrics(h, candidates, spectrum: Spectrum | None, tol: ToleranceConfig | None = None
                  ) -> tuple[list[dict[str, MetricReport]], list[str]]:
    """Run :func:`check_all` on each candidate, then on the diagonalizer metrics.

    Returns the reports of each metric, candidates first, and the warnings.
    A singular metric fails every relation with residual ``inf``.  The
    diagonalizer metrics need ``spectrum`` and are suppressed with a warning
    when its eigenvector matrix is near-defective or singular.
    """
    h = as_matrix(h)
    checked, warn = [], []

    def run(name: str, metric: np.ndarray, provenance: str) -> None:
        try:
            checked.append(check_all(h, metric, tol, name, provenance))
        except SingularMatrix:
            warn.extend(f"metric '{name}' is singular; {kind} check skipped" for kind in KINDS)
            metric = np.array(metric, dtype=np.complex128)
            checked.append({kind: MetricReport(kind, name, metric, math.inf, False, provenance)
                            for kind in KINDS})

    for name, metric in (candidates or {}).items():
        metric = as_matrix(metric)
        if metric.shape != h.shape:
            raise DimensionMismatch(
                f"candidate '{name}' has shape {metric.shape}, expected {h.shape}"
            )
        run(name, metric, "user")

    if spectrum is not None:
        try:
            d = build_diagonalizer(spectrum, tol)
            for name, construct, _ in DIAGONALIZER_METRICS:
                run(name, construct(d), "from_diagonalizer")
        except (NearDefective, SingularMatrix) as exc:
            warn.append(f"diagonalizer metrics suppressed: {exc}")
    return checked, warn


def _colinearity(rho_inv: np.ndarray, psi: np.ndarray, tol: ToleranceConfig,
                 eigen_index: int, metric_name: str) -> RealityCheck:
    w = rho_inv @ psi.conj()
    eps = complex((psi.conj() @ w) / (psi.conj() @ psi))
    residual = float(np.linalg.norm(w - eps * psi) / np.linalg.norm(w))
    return RealityCheck(
        eigen_index=eigen_index,
        metric_name=metric_name,
        epsilon=eps,
        colinearity_residual=residual,
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
    return _colinearity(rho_inv, psi, tol, eigen_index, metric_name)


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
    scale = max(1.0, fro(h))

    herm_res = fro(h - h.conj().T) / scale
    sa_res = fro(h - h.T) / scale
    hermitian = (bool(herm_res <= tol.metric_tol), float(herm_res))
    self_adjoint = (bool(sa_res <= tol.metric_tol), float(sa_res))

    failure = None
    if spectrum is None:
        try:
            spectrum = eigendecompose(h, tol)
        except ConvergenceFailure as exc:
            failure = f"eigendecomposition failed: {exc}"
    checked, warn = check_metrics(h, candidates, spectrum, tol)
    if failure is not None:
        warn.append(failure)
    pseudo_real, pseudo_adjoint, pseudo_hermitian = (tuple(r[k] for r in checked) for k in KINDS)

    parity = as_matrix(parity) if parity is not None else default_parity(n)
    if parity.shape != h.shape:
        raise DimensionMismatch("parity matrix dimension mismatch")
    try:
        pt_res = similarity_residual(parity, h, h.conj())
        pt = (parity_name, float(pt_res), bool(pt_res <= tol.metric_tol))
    except SingularMatrix:
        warn.append("parity matrix is singular; PT check skipped")
        pt = None

    reality_checks: list[RealityCheck] = []
    if spectrum is not None:
        # invert each holding metric once; the check itself is then a matvec
        holding_rhos = []
        for rep in pseudo_real:
            if not rep.holds:
                continue
            try:
                holding_rhos.append((rep, inverse(rep.metric)[0]))
            except SingularMatrix:
                warn.append(f"reality check with '{rep.name}' skipped (singular)")
        for k, pair in enumerate(spectrum.pairs):
            for rep, rho_inv in holding_rhos:
                reality_checks.append(_colinearity(
                    rho_inv, pair.eigenvector, tol,
                    eigen_index=k, metric_name=rep.name))

    return ClassificationReport(
        hermitian=hermitian,
        self_adjoint=self_adjoint,
        pseudo_real=pseudo_real,
        pseudo_adjoint=pseudo_adjoint,
        pseudo_hermitian=pseudo_hermitian,
        pt_symmetric=pt,
        spectrum=spectrum,
        reality_checks=tuple(reality_checks),
        warnings=tuple(warn),
    )
