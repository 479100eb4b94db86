"""Built-in two- and three-level Hamiltonian families with known metrics.

Five parametric families, each shipped with the candidate metrics that
certify its symmetries:

* H5(a, b, c) = [[a+ib, c], [c, a-ib]]            pseudo-real under sigma_x,
  symmetric (mu = 1), pseudo-Hermitian under sigma_x.
* H6(a, b, c) = [[a+c, ib], [ib, a-c]]            pseudo-real under sigma_z,
  symmetric, pseudo-Hermitian under sigma_z.
* H7(a, b, c) = [[a, i(b-c)], [i(b+c), a]]        pseudo-adjoint under
  sigma_x, pseudo-real under sigma_z, pseudo-Hermitian under sigma_y.
* H8(a, b, c, d) = [[a+ib, c+id], [c-id, a-ib]]   pseudo-real under sigma_x;
  for c^2 + d^2 > b^2 it has real eigenvalues a -+ e, e = sqrt(c^2+d^2-b^2),
  and closed-form metrics built from the angles theta = arctan(b/e),
  phi = arctan(d/c).
* M3(g, omega): three-level truncation of omega(n + 1/2) + i g x^3 in the
  oscillator basis, pseudo-real under the basis parity diag(1, -1, 1).

H5/H6/H7 share the eigenvalues a +- sqrt(c^2 - b^2), real exactly when
c^2 > b^2; crossing |b| = |c| is the symmetry-breaking (exceptional) point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PARITY_3 = np.diag([1.0, -1.0, 1.0]).astype(np.complex128)


class UnknownBuiltin(Exception):
    """Raised for a builtin family name that does not exist."""


class MissingParameter(Exception):
    """Raised when a builtin family is instantiated without a required parameter."""


def h5(a: float, b: float, c: float) -> np.ndarray:
    return np.array([[a + 1j * b, c], [c, a - 1j * b]], dtype=np.complex128)


def h6(a: float, b: float, c: float) -> np.ndarray:
    return np.array([[a + c, 1j * b], [1j * b, a - c]], dtype=np.complex128)


def h7(a: float, b: float, c: float) -> np.ndarray:
    return np.array([[a, 1j * (b - c)], [1j * (b + c), a]], dtype=np.complex128)


def h8(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array([[a + 1j * b, c + 1j * d], [c - 1j * d, a - 1j * b]], dtype=np.complex128)


def two_level_eigenvalues(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Eigenvalues a +- sqrt(c^2 - b^2) of H5/H6/H7, complex when c^2 < b^2."""
    root = np.sqrt(np.complex128(c * c - b * b))
    lo, hi = a - root, a + root
    if (lo.real, lo.imag) > (hi.real, hi.imag):
        lo, hi = hi, lo
    return complex(lo), complex(hi)


def m3(g: float = 1.0, omega: float = 1.0) -> np.ndarray:
    """Three-level oscillator truncation of omega (n + 1/2) + i g x^3.

    The truncated position matrix couples only neighbors, so x^3 connects
    states of opposite basis parity and the result is exactly pseudo-real
    under diag(1, -1, 1).
    """
    x = np.array([
        [0.0, np.sqrt(0.5), 0.0],
        [np.sqrt(0.5), 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    x3 = x @ x @ x
    levels = omega * (np.arange(3) + 0.5)
    return np.diag(levels).astype(np.complex128) + 1j * g * x3


# ---------------------------------------------------------------------------
# H8 closed forms
# ---------------------------------------------------------------------------


def h8_angles(a: float, b: float, c: float, d: float) -> tuple[float, float, float]:
    """(e, theta, phi) with e = sqrt(c^2 + d^2 - b^2); real phase only."""
    e2 = c * c + d * d - b * b
    if e2 <= 0:
        raise ValueError("real-spectrum closed forms need c^2 + d^2 > b^2")
    e = float(np.sqrt(e2))
    return e, float(np.arctan2(b, e)), float(np.arctan2(d, c))


def h8_eigenvectors(a: float, b: float, c: float, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized eigenvectors for the eigenvalues a - e and a + e."""
    _, th, ph = h8_angles(a, b, c, d)
    psi1 = np.array([-np.exp(-1j * th), np.exp(-1j * ph)], dtype=np.complex128)
    psi2 = np.array([np.exp(1j * th), np.exp(-1j * ph)], dtype=np.complex128)
    return psi1, psi2


def h8_diagonalizer(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Diagonalizer with the closed-form eigenvectors as columns."""
    psi1, psi2 = h8_eigenvectors(a, b, c, d)
    return np.stack([psi1, psi2], axis=1)


def h8_rho(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Closed-form pseudo-reality metric of the H8 diagonalizer."""
    _, th, ph = h8_angles(a, b, c, d)
    return np.array([
        [1.0, -2j * np.exp(1j * ph) * np.sin(th)],
        [0.0, np.exp(2j * ph)],
    ], dtype=np.complex128)


def h8_mu(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Closed-form pseudo-adjointness metric of the H8 diagonalizer."""
    _, th, ph = h8_angles(a, b, c, d)
    s = np.sin(th)
    pref = 0.5 / np.cos(th) ** 2
    return pref * np.array([
        [1.0, -1j * np.exp(1j * ph) * s],
        [-1j * s * np.exp(1j * ph), np.cos(2 * th) * np.exp(2j * ph)],
    ], dtype=np.complex128)


def h8_eta_plus(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Closed-form positive-definite metric of the H8 diagonalizer."""
    _, th, ph = h8_angles(a, b, c, d)
    s = np.sin(th)
    pref = 0.5 / np.cos(th) ** 2
    return pref * np.array([
        [1.0, -1j * s * np.exp(1j * ph)],
        [1j * s * np.exp(-1j * ph), 1.0],
    ], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Builtin registry (used by the command line front end)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinFamily:
    name: str
    required: tuple[str, ...]
    defaults: dict
    builder: Callable[..., np.ndarray]
    candidates: Callable[[dict], dict]
    extras: Callable[[dict], dict]


def _pauli_plus_identity(*names: str) -> Callable[[dict], dict]:
    table = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z,
             "identity": np.eye(2, dtype=np.complex128)}
    return lambda params: {name: table[name] for name in names}


def _h8_candidates(params: dict) -> dict:
    cand = {"sigma_x": SIGMA_X}
    try:
        cand["closed_form_rho"] = h8_rho(**params)
        cand["closed_form_mu"] = h8_mu(**params)
        cand["closed_form_eta_plus"] = h8_eta_plus(**params)
    except ValueError:
        pass  # broken phase: only the parameter-free candidate applies
    return cand


def _h8_extras(params: dict) -> dict:
    try:
        e, th, ph = h8_angles(**params)
    except ValueError:
        return {"phase": "broken"}
    return {"phase": "real", "e": e, "theta": th, "phi": ph}


def _two_level_extras(params: dict) -> dict:
    lo, hi = two_level_eigenvalues(**params)
    return {"eigenvalue_formula": "a -+ sqrt(c^2 - b^2)", "eigenvalues": [lo, hi]}


BUILTINS: dict[str, BuiltinFamily] = {
    "H5": BuiltinFamily(
        "H5", ("a", "b", "c"), {}, h5,
        _pauli_plus_identity("sigma_x", "identity"), _two_level_extras,
    ),
    "H6": BuiltinFamily(
        "H6", ("a", "b", "c"), {}, h6,
        _pauli_plus_identity("sigma_z", "identity"), _two_level_extras,
    ),
    "H7": BuiltinFamily(
        "H7", ("a", "b", "c"), {}, h7,
        _pauli_plus_identity("sigma_x", "sigma_y", "sigma_z"), _two_level_extras,
    ),
    "H8": BuiltinFamily(
        "H8", ("a", "b", "c", "d"), {}, h8, _h8_candidates, _h8_extras,
    ),
    "M3": BuiltinFamily(
        "M3", (), {"g": 1.0, "omega": 1.0}, m3,
        lambda params: {"parity_osc": PARITY_3,
                        "identity": np.eye(3, dtype=np.complex128)},
        lambda params: {},
    ),
}


def instantiate_builtin(name: str, assignments: dict) -> tuple[np.ndarray, dict, dict, dict]:
    """Build a registered family; returns (H, params, candidates, extras)."""
    if name not in BUILTINS:
        raise UnknownBuiltin(f"unknown builtin '{name}' (have {sorted(BUILTINS)})")
    fam = BUILTINS[name]
    params = dict(fam.defaults)
    unknown = set(assignments) - set(fam.required) - set(fam.defaults)
    if unknown:
        raise MissingParameter(f"{name} does not take parameters {sorted(unknown)}")
    params.update(assignments)
    missing = [p for p in fam.required if p not in params]
    if missing:
        raise MissingParameter(f"{name} requires parameters {missing}")
    h = fam.builder(**params)
    return h, params, fam.candidates(params), fam.extras(params)
