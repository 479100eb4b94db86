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

import itertools
import math
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


def _matrix(rows) -> np.ndarray:
    """The complex matrix of ``rows``, whose entries are numbers or arrays of one
    shape ``s``: an (n, n) matrix, or with arrays the (``s``, n, n) stack of them."""
    entries = np.broadcast_arrays(*(np.asarray(x, dtype=np.complex128) for row in rows for x in row))
    n = len(rows)
    return np.stack(entries, axis=-1).reshape(*entries[0].shape, n, n)


def h5(a, b, c) -> np.ndarray:
    return _matrix([[a + 1j * b, c], [c, a - 1j * b]])


def h6(a, b, c) -> np.ndarray:
    return _matrix([[a + c, 1j * b], [1j * b, a - c]])


def h7(a, b, c) -> np.ndarray:
    return _matrix([[a, 1j * (b - c)], [1j * (b + c), a]])


def h8(a, b, c, d) -> np.ndarray:
    return _matrix([[a + 1j * b, c + 1j * d], [c - 1j * d, a - 1j * b]])


def two_level_eigenvalues(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Eigenvalues a +- sqrt(c^2 - b^2) of H5/H6/H7, complex when c^2 < b^2."""
    root = np.sqrt(np.complex128(c * c - b * b))
    lo, hi = a - root, a + root
    if (lo.real, lo.imag) > (hi.real, hi.imag):
        lo, hi = hi, lo
    return complex(lo), complex(hi)


def m3(g=1.0, omega=1.0) -> np.ndarray:
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
    g, omega = np.broadcast_arrays(g, omega)
    levels = omega[..., None] * (np.arange(3) + 0.5)
    diagonal = np.zeros((*levels.shape, 3))
    diagonal[..., range(3), range(3)] = levels  # by index: off the diagonal +0.0 at any sign
    return diagonal.astype(np.complex128) + (1j * g)[..., None, None] * x3


# ---------------------------------------------------------------------------
# H8 closed forms
# ---------------------------------------------------------------------------


def h8_angles(a, b, c, d) -> tuple:
    """(e, theta, phi) with e = sqrt(c^2 + d^2 - b^2); real phase only.

    Elementwise over array parameters; raises if any point is in the broken phase.
    """
    e2 = c * c + d * d - b * b
    if np.any(e2 <= 0):
        raise ValueError("real-spectrum closed forms need c^2 + d^2 > b^2")
    e = np.sqrt(e2)
    return e, np.arctan2(b, e), np.arctan2(d, c)


def _squared(x) -> np.ndarray:
    """``x ** 2`` by C ``pow``, value by value, as ``** 2`` squares a numpy
    scalar; on an array ``** 2`` multiplies, which can differ in the last bit."""
    x = np.asarray(x)
    return np.array(list(map(math.pow, x.ravel().tolist(), itertools.repeat(2.0))),
                    dtype=float).reshape(x.shape)


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


def _times(x, y) -> np.ndarray:
    """``x * y`` of complex values with each real product rounded on its own, as
    Python and numpy scalars multiply.  numpy's array loops may fuse a product
    into its sum, which keeps the sign of a product that underflows to zero.
    (A product with a factor of 1j, -1j or 2j has exact real products either way.)"""
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def h8_rho(a, b, c, d) -> np.ndarray:
    """Closed-form pseudo-reality metric of the H8 diagonalizer."""
    _, th, ph = h8_angles(a, b, c, d)
    return _matrix([
        [1.0, _times(-2j * np.exp(1j * ph), np.sin(th))],
        [0.0, np.exp(2j * ph)],
    ])


def h8_mu(a, b, c, d) -> np.ndarray:
    """Closed-form pseudo-adjointness metric of the H8 diagonalizer."""
    _, th, ph = h8_angles(a, b, c, d)
    s = np.sin(th)
    pref = 0.5 / _squared(np.cos(th))
    return pref[..., None, None] * _matrix([
        [1.0, _times(-1j * np.exp(1j * ph), s)],
        [_times(-1j * s, np.exp(1j * ph)), _times(np.cos(2 * th), np.exp(2j * ph))],
    ])


def h8_eta_plus(a, b, c, d) -> np.ndarray:
    """Closed-form positive-definite metric of the H8 diagonalizer."""
    _, th, ph = h8_angles(a, b, c, d)
    s = np.sin(th)
    pref = 0.5 / _squared(np.cos(th))
    return pref[..., None, None] * _matrix([
        [1.0, _times(-1j * s, np.exp(1j * ph))],
        [_times(1j * s, np.exp(-1j * ph)), 1.0],
    ])


# ---------------------------------------------------------------------------
# Builtin registry (used by the command line front end)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinFamily:
    """A family whose ``builder`` and ``candidates`` take each parameter as an
    array of the k points of a sweep.  ``candidates(params, k)`` maps each
    name to the indices of the points it applies at and its stack there."""

    name: str
    required: tuple[str, ...]
    defaults: dict
    builder: Callable[..., np.ndarray]
    candidates: Callable[[dict, int], dict]
    extras: Callable[[dict], dict]


def _constant(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A candidate that is ``m`` at each of k points."""
    return np.arange(k), np.repeat(m[np.newaxis], k, axis=0)


def _pauli_plus_identity(*names: str) -> Callable[[dict, int], dict]:
    table = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z,
             "identity": np.eye(2, dtype=np.complex128)}
    return lambda params, k: {name: _constant(table[name], k) for name in names}


def _h8_candidates(params: dict, k: int) -> dict:
    cand = {"sigma_x": _constant(SIGMA_X, k)}
    b, c, d = params["b"], params["c"], params["d"]
    # the closed forms apply in the real phase only (and at a NaN c^2 + d^2 - b^2)
    (real,) = np.nonzero(~(c * c + d * d - b * b <= 0))
    if real.size:
        at = {name: value[real] for name, value in params.items()}
        cand["closed_form_rho"] = real, h8_rho(**at)
        cand["closed_form_mu"] = real, h8_mu(**at)
        cand["closed_form_eta_plus"] = real, h8_eta_plus(**at)
    return cand


def _h8_extras(params: dict) -> dict:
    try:
        e, th, ph = h8_angles(**params)
    except ValueError:
        return {"phase": "broken"}
    return {"phase": "real", "e": float(e), "theta": float(th), "phi": float(ph)}


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
        lambda params, k: {"parity_osc": _constant(PARITY_3, k),
                           "identity": _constant(np.eye(3, dtype=np.complex128), k)},
        lambda params: {},
    ),
}


def _family(name: str, assignments: dict) -> tuple[BuiltinFamily, dict]:
    """The registered family ``name`` and its parameters: defaults, then ``assignments``."""
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
    return fam, params


def builtin_stack(name: str, assignments: dict) -> tuple[np.ndarray, dict]:
    """Build a registered family at k points at once.

    Each assignment is a number or a 1-D array; the arrays have one length
    k.  Returns ``(H, candidates)``: the (k, n, n) stack of H, and for each
    candidate name, in the order a point lists them, the indices of the
    points it applies at and the stack of it there.
    """
    return _build(*_family(name, assignments))


def _build(fam: BuiltinFamily, params: dict) -> tuple[np.ndarray, dict]:
    arrays = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                   for v in params.values()))
    params = dict(zip(params, arrays))
    return fam.builder(**params), fam.candidates(params, len(arrays[0]))


def instantiate_builtin(name: str, assignments: dict) -> tuple[np.ndarray, dict, dict, dict]:
    """Build a registered family; returns (H, params, candidates, extras).

    The one-point case of :func:`builtin_stack`.
    """
    fam, params = _family(name, assignments)
    h, candidates = _build(fam, params)
    return (h[0], params, {key: stack[0] for key, (_, stack) in candidates.items()},
            fam.extras(params))
