#!/usr/bin/env python3
"""Tour of the built-in two-level families and their certifying metrics.

Each family is checked against the three similarity relations
(pseudo-real / pseudo-adjoint / pseudo-Hermitian) with Pauli-matrix
candidates, then the eigenstate reality condition and the pseudo-norms
are evaluated on both sides of the symmetry-breaking point.
"""

import numpy as np

from pseudoherm import (
    SIGMA_X, SIGMA_Y, SIGMA_Z,
    check_pseudo_adjoint, check_pseudo_hermitian, check_pseudo_real,
    eigendecompose, eigenstate_reality_check, eta_gram,
    eta_plus_from_diagonalizer, h5, h6, h7,
    build_diagonalizer, symmetry_generator,
)

CANDIDATES = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z,
              "1": np.eye(2, dtype=complex)}


def survey(name, h):
    print(f"\n--- {name} ---")
    print(np.array_str(h, precision=3))
    ev = eigendecompose(h).eigenvalues
    print(f"eigenvalues: {np.round(ev, 6)}")
    for kind, check in (("rho", check_pseudo_real),
                        ("mu ", check_pseudo_adjoint),
                        ("eta", check_pseudo_hermitian)):
        holding = [n for n, m in CANDIDATES.items() if check(h, m).holds]
        print(f"  {kind} candidates that certify: {holding or 'none'}")


def main():
    a, b, c = 0.0, 0.6, 1.0
    print(f"parameters a={a}, b={b}, c={c}  (c^2 > b^2: real phase)")
    survey("H5 = [[a+ib, c], [c, a-ib]]", h5(a, b, c))
    survey("H6 = [[a+c, ib], [ib, a-c]]", h6(a, b, c))
    survey("H7 = [[a, i(b-c)], [i(b+c), a]]", h7(a, b, c))

    print("\n--- reality condition on H5 across the breaking point ---")
    print("pseudo-reality of H5 under sigma_x holds for every b; the")
    print("eigenvalues are real exactly when each eigenstate satisfies")
    print("sigma_x conj(psi) = eps psi:")
    for b_val in (0.5, 0.9, 1.1, 1.5):
        h = h5(0.0, b_val, 1.0)
        spec = eigendecompose(h)
        rows = []
        for k, value in enumerate(spec.eigenvalues):
            chk = eigenstate_reality_check(SIGMA_X, spec.eigenvectors[:, k])
            rows.append(f"lambda={value:+.3f} colinear={chk.holds}")
        print(f"  b={b_val:4.1f}: " + "   ".join(rows))

    print("\n--- pseudo-norms of H5 under eta = sigma_x ---")
    for b_val in (0.6, 1.25):
        spec = eigendecompose(h5(0.0, b_val, 1.0))
        rep = eta_gram(spec.eigenvectors, SIGMA_X, eigenvalues=spec.eigenvalues)
        phase = "real" if b_val < 1 else "broken"
        print(f"  b={b_val} ({phase} phase): norms {np.round(rep.norms, 6)}"
              f"  signature {rep.signature}")
    print("complex-eigenvalue states have exactly zero pseudo-norm.")

    print("\n--- a symmetry generator from two metrics of H5 ---")
    h = h5(0.0, 0.6, 1.0)
    eta_plus = eta_plus_from_diagonalizer(build_diagonalizer(eigendecompose(h)))
    gen, res = symmetry_generator(SIGMA_X, eta_plus, h)
    print(f"eta_plus^-1 sigma_x commutes with H5: residual {res:.2e}")
    print("generator (proportional to H5 itself):")
    print(np.array_str(gen, precision=3))


if __name__ == "__main__":
    main()
