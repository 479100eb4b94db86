"""Pseudo-reality, pseudo-adjointness and pseudo-Hermiticity toolkit.

Decides whether a finite-dimensional complex Hamiltonian is pseudo-real,
pseudo-adjoint, pseudo-Hermitian, PT-symmetric or Hermitian; constructs
the certifying metrics from its diagonalizer; and evaluates the
reality/orthogonality consequences numerically.  1-D Schroedinger
operators enter through the finite-difference builders in
:mod:`pseudoherm.schrodinger`.
"""

from .linalg import (
    ConvergenceFailure,
    DimensionMismatch,
    MatrixFormatError,
    NearDefective,
    RealityTag,
    SingularMatrix,
    Spectrum,
    ToleranceConfig,
    ZeroVector,
    build_diagonalizer,
    dumps_matrix,
    eigendecompose,
    inverse,
    involutions,
    load_matrix,
    loads_matrix,
    save_matrix,
    similarity_residual,
)
from .metrics import (
    ClassificationReport,
    MetricReport,
    RealityCheck,
    canonical_normalize,
    check_all,
    check_pseudo_adjoint,
    check_pseudo_hermitian,
    check_pseudo_real,
    classify,
    compose_eta,
    default_parity,
    eigenstate_reality_check,
    eta_plus_from_diagonalizer,
    identity_view,
    mu_from_diagonalizer,
    rho_from_diagonalizer,
    symmetry_generator,
)
from .inner import (
    GramReport,
    eta_gram,
    hermitian_gram,
    pt_gram,
    transpose_gram,
)
from .schrodinger import (
    DiscreteOperators,
    GridSpec,
    InvalidGrid,
    ParameterOutOfRange,
    PotentialSpec,
    bound_spectrum,
    build_hamiltonian,
    build_operators,
    gauge_metric,
    gauged_hermitian,
    gauged_oscillator,
    harmonic,
    monomial_pt,
    morse,
)
from .families import (
    BUILTINS,
    PARITY_3,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    h5,
    h6,
    h7,
    h8,
    h8_diagonalizer,
    h8_eigenvectors,
    h8_eta_plus,
    h8_mu,
    h8_rho,
    m3,
    two_level_eigenvalues,
)

__version__ = "0.1.0"
