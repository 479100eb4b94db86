"""Finite-difference discretization of 1-D Hamiltonians p^2/(2m) + V.

Units: hbar = 1 throughout; the mass lives on the grid spec.  The grid
holds the interior points of [x_min, x_max] with Dirichlet boundaries,
built as an affine combination of the endpoints so that a symmetric range
(x_min = -x_max) yields an exactly antisymmetric point set.  Second-order
central stencils are used on purpose: they turn the adjointness relations
into exact matrix identities rather than asymptotic statements,

    Pm^T = -Pm,   K^T = K,   X^T = X,
    Par X Par = -X,   Par Pm Par = -Pm,   Par K Par = K,   Par^2 = 1,

where Par is the grid-reversal parity (valid as a parity only on grids
symmetric about 0).

Potential families
------------------
* ``harmonic(alpha)``:             V = m alpha^2 x^2 / 2
* ``gauged_oscillator(alpha, beta)``:  kinetic gauge-conjugated by
  exp(beta x^2 / 2), the discrete form of (p + i beta x)^2/(2m), plus the
  harmonic well.  The conjugation is applied exactly, entry by entry, so
  the gauge metric diag(exp(-beta x^2)) certifies pseudo-adjointness at
  rounding level and the spectrum is exactly that of the plain oscillator.
* ``gauged_hermitian(alpha, gamma)``:  kinetic conjugated by the unitary
  gauge exp(i gamma x^3), the discrete (p - 3 gamma x^2)^2/(2m); Hermitian
  by construction.
* ``morse(C, D)``:                 V = D^2 e^{-2x} - (2C+1) D e^{-x}
  (bound levels -(C-n)^2 in the 2m = 1 convention, i.e. mass = 1/2)
* ``monomial_pt(g, k)``:           V = i g x^k with odd k

An imaginary shift ``a`` evaluates the analytic potential at the complex
abscissae x_j - i a; constructing exp(-a Pm) instead would be hopelessly
ill-conditioned on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    RealityTag,
    Spectrum,
    ToleranceConfig,
    eigendecompose,
)
from .metrics import default_parity

# Edge amplitude above this fraction of the peak disqualifies a state as a
# bound state of the open-line problem.
BOUNDARY_DECAY = 1e-4

FAMILIES = {
    "harmonic": ("alpha",),
    "gauged_oscillator": ("alpha", "beta"),
    "gauged_hermitian": ("alpha", "gamma"),
    "morse": ("C", "D"),
    "monomial_pt": ("g", "k"),
}


class InvalidGrid(Exception):
    """Raised for grids that violate the discretization contract."""


class ParameterOutOfRange(Exception):
    """Raised for potential parameters outside a family's domain."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid of [x_min, x_max] with n_points points."""

    x_min: float
    x_max: float
    n_points: int
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise InvalidGrid("x_max must exceed x_min")
        if self.n_points < 16:
            raise InvalidGrid("need at least 16 grid points")
        if not self.mass > 0:
            raise InvalidGrid("mass must be positive")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    @property
    def symmetric(self) -> bool:
        """Exactly symmetric about 0, the precondition for using Par as parity."""
        return self.x_min == -self.x_max

    def points(self) -> np.ndarray:
        # Affine combination of the endpoints keeps a symmetric grid exactly
        # antisymmetric in floating point.
        j = np.arange(1, self.n_points + 1, dtype=np.float64)
        n1 = float(self.n_points + 1)
        return (j * self.x_max + (n1 - j) * self.x_min) / n1


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family with parameters and an optional imaginary shift."""

    family: str
    params: dict = field(default_factory=dict)
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterOutOfRange(f"unknown family '{self.family}'")
        required = FAMILIES[self.family]
        missing = [p for p in required if p not in self.params]
        if missing:
            raise ParameterOutOfRange(f"{self.family} needs parameters {missing}")
        p = self.params
        if self.family == "morse" and (p["C"] <= 0 or p["D"] <= 0):
            raise ParameterOutOfRange("morse needs C > 0 and D > 0")
        if self.family == "monomial_pt":
            k = p["k"]
            if int(k) != k or k < 1 or int(k) % 2 == 0:
                raise ParameterOutOfRange(
                    "monomial_pt needs an odd positive integer exponent")


def harmonic(alpha: float = 1.0, shift: float = 0.0) -> PotentialSpec:
    return PotentialSpec("harmonic", {"alpha": float(alpha)}, shift)


def gauged_oscillator(alpha: float = 1.0, beta: float = 0.1, shift: float = 0.0) -> PotentialSpec:
    return PotentialSpec("gauged_oscillator", {"alpha": float(alpha), "beta": float(beta)}, shift)


def gauged_hermitian(alpha: float = 1.0, gamma: float = 0.1, shift: float = 0.0) -> PotentialSpec:
    return PotentialSpec("gauged_hermitian", {"alpha": float(alpha), "gamma": float(gamma)}, shift)


def morse(C: float = 3.5, D: float = 4.0, shift: float = 0.0) -> PotentialSpec:
    return PotentialSpec("morse", {"C": float(C), "D": float(D)}, shift)


def monomial_pt(g: float = 1.0, k: int = 3, shift: float = 0.0) -> PotentialSpec:
    return PotentialSpec("monomial_pt", {"g": float(g), "k": int(k)}, shift)


@dataclass(frozen=True)
class DiscreteOperators:
    """Position, momentum, kinetic energy and grid-reversal parity."""

    X: np.ndarray
    Pm: np.ndarray
    K: np.ndarray
    Par: np.ndarray


def _kinetic(grid: GridSpec) -> np.ndarray:
    """Central-stencil kinetic energy p^2/(2m) with Dirichlet boundaries."""
    n = grid.n_points
    h = grid.spacing
    m = grid.mass
    off = np.arange(n - 1)
    K = np.zeros((n, n), dtype=np.complex128)
    K[np.arange(n), np.arange(n)] = 1.0 / (m * h * h)
    K[off, off + 1] = -1.0 / (2.0 * m * h * h)
    K[off + 1, off] = -1.0 / (2.0 * m * h * h)
    return K


def build_operators(grid: GridSpec) -> DiscreteOperators:
    """Central-stencil operators satisfying the adjointness identities exactly."""
    n = grid.n_points
    h = grid.spacing

    X = np.zeros((n, n), dtype=np.complex128)
    X[np.arange(n), np.arange(n)] = grid.points()

    Pm = np.zeros((n, n), dtype=np.complex128)
    off = np.arange(n - 1)
    Pm[off, off + 1] = -1j / (2.0 * h)
    Pm[off + 1, off] = 1j / (2.0 * h)

    # dense and writable like X, Pm and K, not the read-only view
    Par = np.ascontiguousarray(default_parity(n))
    return DiscreteOperators(X=X, Pm=Pm, K=_kinetic(grid), Par=Par)


def _sequential_power(z: np.ndarray, k: int) -> np.ndarray:
    # One multiplication per step keeps odd powers of an exactly mirrored
    # grid exactly antisymmetric (numpy's pow kernel does not).
    out = z.copy()
    for _ in range(k - 1):
        out = out * z
    return out


def _diagonal_potential(pot: PotentialSpec, x: np.ndarray) -> np.ndarray:
    z = x - 1j * pot.shift if pot.shift != 0.0 else x.astype(np.complex128)
    p = pot.params
    # overflow surfaces as non-finite entries, rejected by the builder, or,
    # in the Python float power of a parameter, as OverflowError
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if pot.family in ("harmonic", "gauged_oscillator", "gauged_hermitian"):
                return 0.5 * p["alpha"] ** 2 * z * z  # multiplied by mass in the builder
            if pot.family == "morse":
                return (p["D"] ** 2 * np.exp(-2.0 * z)
                        - (2.0 * p["C"] + 1.0) * p["D"] * np.exp(-z))
    except OverflowError as exc:
        raise ParameterOutOfRange("potential overflows on this grid") from exc
    if pot.family == "monomial_pt":
        return 1j * p["g"] * _sequential_power(z, int(p["k"]))
    raise ParameterOutOfRange(f"unknown family '{pot.family}'")


def build_hamiltonian(pot: PotentialSpec, grid: GridSpec) -> np.ndarray:
    """Discretize a potential family into a dense complex matrix.

    Gauged families conjugate the kinetic stencil by the exact diagonal
    gauge factor instead of multiplying (Pm, X) polynomials; that keeps
    the certifying similarity an identity at rounding level instead of an
    O(h) matrix discrepancy, and leaves the spectrum exactly gauge
    independent.
    """
    x = grid.points()
    n = grid.n_points
    m = grid.mass

    h_mat = _kinetic(grid)
    if pot.family == "gauged_oscillator":
        beta = pot.params["beta"]
        expo = 0.5 * beta * (x[:, None] ** 2 - x[None, :] ** 2)
        h_mat = h_mat * np.exp(expo)
    elif pot.family == "gauged_hermitian":
        gamma = pot.params["gamma"]
        x3 = _sequential_power(x, 3)
        phase = gamma * (x3[:, None] - x3[None, :])
        h_mat = h_mat * np.exp(1j * phase)

    v = _diagonal_potential(pot, x)
    with np.errstate(over="ignore", invalid="ignore"):
        if pot.family in ("harmonic", "gauged_oscillator", "gauged_hermitian"):
            v = m * v
        h_mat[np.arange(n), np.arange(n)] += v
    if not np.isfinite(h_mat).all():
        raise ParameterOutOfRange("potential overflows on this grid")
    return h_mat


def gauge_metric(pot: PotentialSpec, grid: GridSpec) -> tuple[str, np.ndarray] | None:
    """The designated certifying metric of a gauged family, if any.

    gauged_oscillator: mu = diag(exp(-beta x^2)) certifies pseudo-adjointness.
    gauged_hermitian:  eta = Par diag(exp(-2 i gamma x^3)) certifies
    pseudo-Hermiticity with alternating-sign pseudo-norms (requires a
    symmetric grid).
    """
    x = grid.points()
    if pot.family == "gauged_oscillator":
        return "gauge_mu", np.diag(np.exp(-pot.params["beta"] * x * x)).astype(np.complex128)
    if pot.family == "gauged_hermitian" and grid.symmetric:
        x3 = _sequential_power(x, 3)
        # a dense operand keeps the product on numpy's BLAS path, whose bits,
        # zero signs included, the report's fingerprint of the metric holds
        par = np.ascontiguousarray(default_parity(grid.n_points))
        return "gauge_eta", par @ np.diag(np.exp(-2j * pot.params["gamma"] * x3))
    return None


def bound_spectrum(h, grid: GridSpec, k: int, tol: ToleranceConfig | None = None,
                   spectrum: Spectrum | None = None) -> Spectrum:
    """The k lowest (by real part) eigenpairs that decay at the boundary.

    States whose edge amplitude exceeds ``BOUNDARY_DECAY`` times their peak
    are artifacts of the Dirichlet box; they are skipped but recorded in
    the returned spectrum's flags rather than silently dropped; its three
    arrays are those of the full spectrum at the kept indices.  The full
    ``spectrum`` of ``h``, when already computed, may be passed to avoid a
    second eigensolve.
    """
    tol = tol or DEFAULT_TOL
    if k < 1:
        raise ValueError("k must be positive")
    if k > grid.n_points / 4:
        raise ValueError(f"k={k} exceeds n_points/4={grid.n_points / 4:.0f}")

    full = spectrum if spectrum is not None else eigendecompose(h, tol)
    selected: list[int] = []
    flags: list[str] = list(full.flags)
    for i, value in enumerate(full.eigenvalues):
        vec = full.eigenvectors[:, i]
        edge = max(abs(vec[0]), abs(vec[-1]))
        if edge <= BOUNDARY_DECAY * float(np.abs(vec).max()):
            selected.append(i)
        else:
            flags.append(
                f"boundary_filter_rejected:index={i},"
                f"eigenvalue={value.real:.6g}{value.imag:+.6g}j"
            )
        if len(selected) == k:
            break

    index_map = {old: new for new, old in enumerate(selected)}
    reality = []
    for old in selected:
        tag = full.reality[old]
        if tag.kind == "conjugate_pair":
            if tag.partner in index_map:
                reality.append(RealityTag("conjugate_pair", partner=index_map[tag.partner]))
            else:
                reality.append(RealityTag("complex"))
        else:
            reality.append(tag)

    return Spectrum(
        eigenvalues=full.eigenvalues[selected],
        residuals=full.residuals[selected],
        reality=tuple(reality),
        diagonalizer_condition=full.diagonalizer_condition,
        eigenvectors=full.eigenvectors[:, selected],
        flags=tuple(flags),
    )
