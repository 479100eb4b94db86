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

One kernel, :func:`_check`, runs every similarity check, of one matrix or
a (points, n, n) stack: the candidates and the diagonalizer metrics in the
loop of :func:`check_metrics`, the parity of :func:`classify`, and each
metric stack of :func:`pseudoherm.sweep.sweep_family`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    _fro_stack,
    _intake,
    _inverse_times,
    _similarity,
    _unit_factor,
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

    ``metric`` is stored canonically normalized, or ``None`` once a
    per-metric callback has been handed it (see :func:`check_metrics`);
    ``residual`` is the relative similarity residual against the kind's
    target and the check holds when it does not exceed ``metric_tol``.
    """

    kind: str
    name: str
    metric: np.ndarray | None
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


def _pivot(m: np.ndarray) -> np.ndarray:
    """First entry (row-major) above ``CANONICAL_ZERO_REL`` times the largest
    magnitude, of each matrix on the last two axes of ``m``; 0 for a zero matrix."""
    flat = m.reshape(*m.shape[:-2], -1)
    mag = np.abs(flat)
    first = np.argmax(mag > CANONICAL_ZERO_REL * mag.max(axis=-1, keepdims=True), axis=-1)
    return np.take_along_axis(flat, first[..., None], axis=-1)[..., 0]


def canonical_normalize(m) -> np.ndarray:
    """Scale so the first nonzero entry (row-major) equals 1.

    Entries below ``CANONICAL_ZERO_REL`` times the largest magnitude are
    treated as zero, so tiny numerical residue cannot become the pivot.
    """
    m = as_matrix(m)
    pivot = _pivot(m)
    if pivot == 0:
        raise SingularMatrix("zero matrix has no canonical normalization")
    return m / pivot


# The target of each relation, as (transposed, conjugated) H.
_TARGETS = {PSEUDO_REAL: (False, True), PSEUDO_ADJOINT: (True, False),
            PSEUDO_HERMITIAN: (True, True)}


def _residuals(h: np.ndarray, similar: np.ndarray, kinds=KINDS) -> tuple:
    """Relative residuals of ``similar`` = S H S^-1 against the targets of ``kinds``.

    The targets are conj(H), H^T and H^dagger.  ``h`` and ``similar`` may
    be stacks, with one residual per matrix on their last two axes.  The
    last difference is formed in ``similar``, which is overwritten, unless
    ``similar`` is ``h`` itself (the identity's, see
    :func:`pseudoherm.linalg._similarity`): then it goes in the buffer, and
    H is read in place and never written.
    """
    scale = tolerance_scale(_fro_stack(h))
    # Every difference is C-ordered whatever the order of H, as the temporary
    # similar - target was: fro sums in memory order, so another order would
    # change the last bits.  One buffer holds each target and difference in
    # turn but the last, which similar holds unless it is H.
    similar = np.ascontiguousarray(similar)
    own = similar is not h
    buffer = np.empty_like(h, order="C") if len(kinds) > 1 or not own else None
    last = similar if own else buffer
    residuals = []
    for i, kind in enumerate(kinds):
        transposed, conjugated = _TARGETS[kind]
        target = h.swapaxes(-1, -2) if transposed else h
        if i == len(kinds) - 1:
            # conj(S H S^-1) - T is the conjugate of S H S^-1 - conj(T): the
            # same norm, bit for bit
            diff = np.conjugate(similar, out=last) if conjugated else similar
            diff = np.subtract(diff, target, out=last)
        else:
            if conjugated:
                target = np.conjugate(target, out=buffer)
            diff = np.subtract(similar, target, out=buffer)
        residuals.append(_fro_stack(diff) / scale)
    return tuple(residuals)


def _check(h: np.ndarray, metric: np.ndarray, kinds=KINDS, inverse_of=None, on_metric=None
           ) -> tuple[tuple, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """``(residuals, singular, canonical, metric_inv, pivot)`` of each metric S on the last
    two axes of ``metric`` against the H on those of ``h``: the one similarity check, of
    one matrix or a (points, n, n) stack alike.

    ``residuals`` are those of S H S^-1 against the targets of ``kinds``
    (:func:`_residuals`), ``inf`` where S is ``singular`` or zero; a candidate
    that is singular at every point forms no S H S^-1.  ``canonical``
    is S / ``pivot`` (:func:`_pivot`), but a singular S keeps its own entries.
    ``metric_inv`` is S^-1 as :func:`_similarity` returns it, so that
    ``metric_inv * pivot`` inverts the canonical S.

    Without ``inverse_of``, S is a candidate, inverted or, if one permutation,
    gathered (see :func:`_similarity`), with pivot 1 and no scan of its n^2
    entries, and never written to.  A read-only S with pivot 1, such as
    :func:`default_parity`, is its own canonical form (``metric / 1`` would equal
    it bit for bit); any other is copied, once S H S^-1 is released, so that a
    caller who changes it later does not change the result.

    With ``inverse_of``, S is one of a pair, such as a diagonalizer metric, which
    this check may write to, and ``inverse_of()`` builds S^-1.  S H is formed,
    then S is scaled in place to its canonical form and handed to
    ``on_metric(S)``, if given, which releases it (``canonical`` is then
    ``None``), and only then is S^-1 built, so that S and S^-1 are not held
    together.  (S H) S^-1 has the bits of ``S @ H @ S^-1``.
    """
    if inverse_of is None:
        similar, metric_inv, singular = _similarity(metric, h)
        # a permutation's first nonzero entry is its 1; _pivot would also copy a
        # strided view such as default_parity
        gathered = metric_inv.ndim == 1
        pivot = np.ones(metric.shape[:-2], dtype=np.complex128) if gathered else _pivot(metric)
        singular = singular | (pivot == 0)
    else:
        pivot = _pivot(metric)
        singular = pivot == 0
        similar = metric @ h
        keep = ~singular[..., None, None]
        canonical = np.divide(metric, pivot[..., None, None], out=metric, where=keep)
        if on_metric is not None:
            on_metric(canonical)
            canonical = metric = None
        metric_inv = inverse_of()
        similar = similar @ metric_inv
    residuals = (np.inf,) * len(kinds) if similar is None else _residuals(h, similar, kinds)
    residuals = tuple(np.where(singular, np.inf, r) for r in residuals)
    del similar
    if inverse_of is None:
        canonical = metric if not metric.flags.writeable and (pivot == 1).all() else np.divide(
            metric, pivot[..., None, None], out=metric.copy(), where=~singular[..., None, None])
    return residuals, singular, canonical, metric_inv, pivot


class _TakenIn(dict):
    """Candidates :func:`_taken_in` has already converted and checked."""


def _taken_in(h: np.ndarray, candidates) -> dict[str, np.ndarray]:
    """The candidates as complex matrices, each checked to have the shape of H;
    candidates it returned before are returned as they are."""
    if isinstance(candidates, _TakenIn):
        return candidates
    taken = _TakenIn()
    for name, metric in (candidates or {}).items():
        taken[name] = metric = as_matrix(metric)
        if metric.shape != h.shape:
            raise DimensionMismatch(f"metric '{name}' has shape {metric.shape}, expected {h.shape}")
    return taken


def check_all(h, metric, tol: ToleranceConfig | None = None,
              name: str = "metric", provenance: str = "user") -> dict[str, MetricReport]:
    """Test ``metric`` against all three similarity targets of H.

    Returns the pseudo-real, pseudo-adjoint and pseudo-Hermitian reports,
    keyed by kind in that order.  ``S H S^-1`` is formed once, by one
    inversion or, for a permutation metric, by an index gather; each
    residual equals ``similarity_residual(metric, h, target)`` for its
    target.  Raises :class:`SingularMatrix` when the metric cannot be inverted.
    """
    (reports,), _, singular = check_metrics(_intake(as_matrix(h))[0], {name: metric}, None, tol)
    if singular:  # its only warnings
        raise SingularMatrix(f"metric '{name}' is singular")
    return {kind: replace(rep, provenance=provenance) for kind, rep in reports.items()}


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


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix on the last two axes."""
    return m.swapaxes(-1, -2)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """``m`` averaged in place with its transpose, a projection onto the symmetry the
    exact mu and mu^-1 have: the bits of ``(m + m^T) / 2``, as numpy buffers the
    transpose that overlaps ``m``."""
    m += _t(m)
    m /= 2.0
    return m


def _hermitized(m: np.ndarray) -> np.ndarray:
    """``m`` averaged in place with its dagger, so exactly Hermitian, with the bits of
    ``(m + m^dagger) / 2``."""
    m += _t(m.conj())
    m /= 2.0
    return m


def _rho(d: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    return d.conj() @ d_inv


def _rho_inverse(d: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    return d @ d_inv.conj()


def _mu(d: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    return _symmetrized(_t(d_inv) @ d_inv)


def _mu_inverse(d: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    return _symmetrized(d @ _t(d))


def _eta_plus(d: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    return _hermitized(_t(d_inv.conj()) @ d_inv)


def _eta_plus_inverse(d: np.ndarray, d_inv: np.ndarray) -> np.ndarray:
    return _hermitized(d @ _t(d.conj()))


def rho_from_diagonalizer(d) -> np.ndarray:
    """Pseudo-reality metric ``conj(D) D^-1`` of a real-spectrum Hamiltonian.

    Satisfies ``rho conj(rho) = 1`` to machine precision.
    """
    d = as_matrix(d)
    return _rho(d, inverse(d)[0])


def mu_from_diagonalizer(d) -> np.ndarray:
    """Pseudo-adjointness metric ``D^-T D^-1 = (D D^T)^-1`` of a diagonalizable H.

    The result is made exactly transpose-symmetric by averaging.
    """
    d = as_matrix(d)
    return _mu(d, inverse(d)[0])


def eta_plus_from_diagonalizer(d) -> np.ndarray:
    """Positive-definite metric ``D^-dagger D^-1 = (D D^dagger)^-1`` of a real-spectrum H.

    Exactly Hermitian by construction (averaged with its own dagger).
    """
    d = as_matrix(d)
    return _eta_plus(d, inverse(d)[0])


# Metrics built from the diagonalizer D: (name, metric builder, inverse
# builder, relation it certifies).  Each builder maps (D, D^-1) to one matrix
# by products alone, for one D or for each of a stack, so that a check can
# release the metric before it builds the inverse.
DIAGONALIZER_METRICS = (
    ("from_D_rho", _rho, _rho_inverse, PSEUDO_REAL),
    ("from_D_mu", _mu, _mu_inverse, PSEUDO_ADJOINT),
    ("from_D_eta_plus", _eta_plus, _eta_plus_inverse, PSEUDO_HERMITIAN),
)


def check_metrics(h, candidates, spectrum: Spectrum | None, tol: ToleranceConfig | None = None,
                  vectors=None, on_metric=None
                  ) -> tuple[list[dict[str, MetricReport]], list[tuple], list[str]]:
    """Check each candidate against all three relations, then the diagonalizer metrics.

    Returns ``(checked, reality, warnings)``: the reports of each metric,
    candidates first; ``(name, eps, residual)`` for each pseudo-real metric
    whose reality checks ran on the columns of ``vectors``; and the
    warnings.  A singular metric fails every relation with residual
    ``inf``.  Every candidate's shape is checked before the first check.
    The diagonalizer metrics are products of the spectrum's D and D^-1,
    suppressed with a warning when D is near-defective or has no stored
    inverse; each is built, with its inverse, only once the one before it
    is checked.  Each metric takes the one kernel, :func:`_check`.

    ``on_metric(name, metric, reports, spectrum)``, if given, is called once
    with each canonical metric: a candidate's right after its check, with
    its three reports keyed by kind, and a diagonalizer metric's before its
    inverse is built, with ``reports=None``, as its verdicts are not known
    yet.  The reports then hold ``metric=None``, so that each diagonalizer
    metric is released before its inverse is built and every metric before
    the next is checked.
    """
    h = as_matrix(h)
    candidates = _taken_in(h, candidates)
    tol = tol or DEFAULT_TOL
    checked, reality, warn = [], [], []

    def record(name, provenance, outcome):
        # the kernel's outcome comes whole, so that S^-1 is released here,
        # before on_metric runs
        residuals, singular, canonical, metric_inv, pivot = outcome
        del outcome
        if singular:
            warn.extend(f"metric '{name}' is singular; {kind} check skipped" for kind in KINDS)
        kept = canonical if on_metric is None else None
        reports = {kind: MetricReport(kind, name, kept, float(residual),
                                      bool(residual <= tol.metric_tol), provenance)
                   for kind, residual in zip(KINDS, residuals)}
        if vectors is not None and reports[PSEUDO_REAL].holds:
            if pivot != 1:
                metric_inv *= pivot  # (metric / pivot)^-1
            reality.append((name, *_colinearity(metric_inv, vectors)))
        del metric_inv
        if on_metric is not None and canonical is not None:
            on_metric(name, canonical, reports, spectrum)
        checked.append(reports)

    for name, metric in candidates.items():
        record(name, "user", _check(h, metric))
    if spectrum is not None:
        try:
            d = build_diagonalizer(spectrum, tol)
            if spectrum.diagonalizer_inverse is None:
                raise SingularMatrix("the spectrum carries no inverse of D")
        except (NearDefective, SingularMatrix) as exc:
            warn.append(f"diagonalizer metrics suppressed: {exc}")
        else:
            d_inv = spectrum.diagonalizer_inverse
            for name, build, build_inverse, _ in DIAGONALIZER_METRICS:
                handed = None if on_metric is None else (
                    lambda metric: on_metric(name, metric, None, spectrum))
                # the metric is built in the argument list, so that only _check holds it
                record(name, "from_diagonalizer", _check(
                    h, build(d, d_inv), KINDS, functools.partial(build_inverse, d, d_inv), handed))
    return checked, reality, warn


# Eigenvectors per matrix product of the reality check: enough columns for
# a matrix-matrix product, few enough that the n x block temporaries stay
# small next to the n x n inverse.
REALITY_BLOCK = 64


def _colinearity(rho_inv: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Colinearity of ``w = rho^-1 conj(psi)`` with each column ``psi`` of ``vectors``.

    Returns ``eps = psi^H w / psi^H psi`` and ``||w - eps psi|| / ||w||``
    per column, from one matrix product per block of ``REALITY_BLOCK``
    columns.  The residual is the norm of the difference itself: the
    shortcut ``||w||^2 - |psi^H w|^2`` cancels to noise near colinearity.
    ``rho_inv`` is as :func:`pseudoherm.linalg._similarity` returns it; for
    a permutation rho, ``w`` is a row gather of ``conj(psi)``, which differs
    from the product only in the sign of a zero, and the sums and norms
    ``w`` enters drop that sign.
    """
    count = vectors.shape[1]
    eps = np.empty(count, dtype=np.complex128)
    residual = np.empty(count)
    for start in range(0, count, REALITY_BLOCK):
        block = slice(start, start + REALITY_BLOCK)
        v = vectors[:, block]
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
    eps, residual = _colinearity(rho_inv, psi[:, None])
    return _reality_check(eigen_index, metric_name, eps[0], residual[0], tol)


def _unit_band(n: int, row_step: int) -> np.ndarray:
    """A read-only n x n complex view of one buffer of 2n - 1 entries, 1 in the
    middle and 0 elsewhere: entry (i, j) is ``buffer[n - 1 + j - i]`` for
    ``row_step = -1`` (the identity) and ``buffer[i + j]`` for ``+1`` (the reversal)."""
    buffer = np.zeros(2 * n - 1, dtype=np.complex128)
    buffer[n - 1] = 1.0
    buffer.flags.writeable = False
    item = buffer.itemsize
    return np.ndarray((n, n), dtype=np.complex128, buffer=buffer,
                      offset=(n - 1) * item if row_step < 0 else 0,
                      strides=(row_step * item, item))


def default_parity(n: int) -> np.ndarray:
    """Anti-diagonal reversal matrix, the default parity for matrix input.

    A read-only view of 2n - 1 entries rather than n^2: every consumer
    reads it as an ndarray, and a permutation is checked by index gathers
    (:func:`pseudoherm.linalg.permutation_of`).  ``np.ascontiguousarray``
    gives a dense, writable copy.
    """
    return _unit_band(n, 1)


def identity_view(n: int) -> np.ndarray:
    """The n x n identity as a read-only view of 2n - 1 entries (see :func:`default_parity`)."""
    return _unit_band(n, -1)


def symmetry_generator(eta_i, eta_j, h) -> tuple[np.ndarray, float]:
    """Symmetry generator built from two pseudo-Hermiticity metrics of H.

    When eta_i and eta_j both certify eta H eta^-1 = H^dagger, equating the
    two relations gives eta_j^-1 eta_i H = H eta_j^-1 eta_i, so the product
    in that order is the commuting generator; the function returns it with
    its relative commutator residual.  (Writing the product with the
    inverse on the right commutes with H^dagger instead, not H.)  Powers of
    four scale H and the generator: the same residual, free of over/underflow.
    """
    eta_i = as_matrix(eta_i)
    h = as_matrix(h)
    eta_j_inv, _ = inverse(eta_j)
    gen = eta_j_inv @ eta_i
    h_s, gen_s = (m * _unit_factor(m)[0] for m in (h, gen))
    denom = fro(h_s) * fro(gen_s)
    residual = fro(h_s @ gen_s - gen_s @ h_s) / denom if denom > 0 else 0.0
    return gen, float(residual)


def classify(h, candidates=None, tol: ToleranceConfig | None = None,
             parity=None, parity_name: str = "reversal",
             spectrum: Spectrum | None = None, on_metric=None) -> ClassificationReport:
    """Run the full symmetry analysis of one Hamiltonian.

    ``candidates`` maps metric names to matrices; every candidate is tested
    against all three similarity targets.  When the eigenvector matrix is
    well enough conditioned, metrics constructed from the diagonalizer are
    appended with provenance ``"from_diagonalizer"``.  Every eigenvector is
    then run through the reality check against every holding pseudo-reality
    metric.  Failed checks are recorded, never raised; only input-format
    errors propagate.

    The metrics are checked by :func:`check_metrics`; then H's own
    relations and PT.  Hermiticity and self-adjointness are the
    pseudo-Hermitian and pseudo-adjoint relations under the identity, whose
    residuals :func:`_residuals` takes of H against itself, read in place.
    The PT verdict is pseudo-reality under a parity matrix (grid/anti-diagonal
    reversal by default, overridable via ``parity``), one :func:`_check`.  The
    shapes of the candidates and the parity are checked before any solve.
    A precomputed ``spectrum`` may be passed to avoid a second eigensolve.
    It must come from :func:`eigendecompose` with the same ``tol``: it keeps
    D^-1 only where its own ``metric_tol`` accepts D, so under a smaller
    ``metric_tol`` a D it judged near-defective gets no diagonalizer
    metrics ("the spectrum carries no inverse of D").  Every check runs on H
    taken in by :func:`pseudoherm.linalg._intake`, as :func:`eigendecompose` takes it.
    ``on_metric`` is as in :func:`check_metrics`: it runs with each
    diagonalizer metric before that metric's inverse is built, and the
    metric is released once it returns.  Without it the reports keep the
    canonical metrics.
    """
    given = as_matrix(h)
    candidates = _taken_in(given, candidates)
    parity = as_matrix(parity) if parity is not None else default_parity(len(given))
    if parity.shape != given.shape:
        raise DimensionMismatch("parity matrix dimension mismatch")
    h = _intake(given)[0]
    tol = tol or DEFAULT_TOL

    failure = None
    if spectrum is None:
        try:
            spectrum = eigendecompose(given, tol)
        except ConvergenceFailure as exc:
            failure = f"eigendecomposition failed: {exc}"

    vectors = spectrum.eigenvectors if spectrum is not None else None
    checked, reality, warn = check_metrics(h, candidates, spectrum, tol, vectors, on_metric)
    if failure is not None:
        warn.append(failure)
    pseudo_real, pseudo_adjoint, pseudo_hermitian = (tuple(r[k] for r in checked) for k in KINDS)
    # H's own relations are those under the identity, whose S H S^-1 is H itself
    sa_res, herm_res = (float(r) for r in _residuals(h, h, (PSEUDO_ADJOINT, PSEUDO_HERMITIAN)))
    (pt_res,), singular = _check(h, parity, (PSEUDO_REAL,))[:2]
    if singular:
        warn.append("parity matrix is singular; PT check skipped")
        pt = None
    else:
        pt = (parity_name, float(pt_res), bool(pt_res <= tol.metric_tol))

    reality_checks = tuple(_reality_check(k, name, eps[k], residual[k], tol)
                           for k in range(len(spectrum) if spectrum else 0)
                           for name, eps, residual in reality)

    return ClassificationReport(
        hermitian=(bool(herm_res <= tol.metric_tol), herm_res),
        self_adjoint=(bool(sa_res <= tol.metric_tol), sa_res),
        pseudo_real=pseudo_real,
        pseudo_adjoint=pseudo_adjoint,
        pseudo_hermitian=pseudo_hermitian,
        pt_symmetric=pt,
        spectrum=spectrum,
        reality_checks=reality_checks,
        warnings=tuple(warn),
    )
