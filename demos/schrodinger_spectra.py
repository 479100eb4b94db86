#!/usr/bin/env python3
"""Discretized 1-D Hamiltonians: spectra, gauge metrics and norm signatures.

Four stories on a finite-difference grid:

1. the gauged oscillator (p + i beta x)^2/2 + x^2/2 shares the oscillator
   spectrum exactly and diag(exp(-beta x^2)) certifies pseudo-adjointness;
2. the Hermitian gauged well (p - 3 gamma x^2)^2/2 + x^2/2, seen as
   pseudo-Hermitian under Par exp(-2 i gamma x^3), has pseudo-norms (-1)^n;
3. the complex Morse well V(x - i a) keeps the real-Morse bound levels
   -(C-n)^2 for any shift a;
4. i g x^3 is exactly pseudo-real under grid reversal and its filtered
   bound states are real, each passing the eigenstate condition.
"""

import numpy as np

from pseudoherm import (
    GridSpec, bound_spectrum, build_hamiltonian, build_operators,
    check_pseudo_adjoint, check_pseudo_hermitian, eigendecompose,
    eigenstate_reality_check, eta_gram, gauge_metric, gauged_hermitian,
    gauged_oscillator, harmonic, monomial_pt, morse, similarity_residual,
)


def main():
    grid = GridSpec(-10.0, 10.0, 384)
    print(f"grid: [{grid.x_min}, {grid.x_max}] with {grid.n_points} interior points")

    print("\n--- 1. gauged oscillator: spectrum is gauge independent ---")
    h0 = build_hamiltonian(harmonic(1.0), grid)
    w0 = bound_spectrum(h0, grid, 5).eigenvalues.real
    pot = gauged_oscillator(1.0, 0.2)
    h3 = build_hamiltonian(pot, grid)
    w3 = bound_spectrum(h3, grid, 5).eigenvalues.real
    print(f"  oscillator levels:   {np.round(w0, 5)}")
    print(f"  gauged (beta=0.2):   {np.round(w3, 5)}")
    name, mu = gauge_metric(pot, grid)
    print(f"  {name} certifies pseudo-adjointness: residual "
          f"{check_pseudo_adjoint(h3, mu).residual:.2e}")

    print("\n--- 2. Hermitian gauged well has indefinite pseudo-norms ---")
    pot4 = gauged_hermitian(1.0, 0.1)
    h4 = build_hamiltonian(pot4, grid)
    print(f"  exactly Hermitian: {np.array_equal(h4, h4.conj().T)}")
    name, eta = gauge_metric(pot4, grid)
    print(f"  {name} pseudo-Hermiticity residual: "
          f"{check_pseudo_hermitian(h4, eta).residual:.2e}")
    bound4 = bound_spectrum(h4, grid, 6)
    rep = eta_gram(bound4.eigenvectors, eta, eigenvalues=bound4.eigenvalues)
    print(f"  pseudo-norm signature of the lowest six states: {rep.signature}")
    print(f"  norms: {np.round([x.real for x in rep.norms], 4)}")

    print("\n--- 3. complex Morse well: shifted and unshifted spectra agree ---")
    grid_m = GridSpec(-4.0, 14.0, 768, mass=0.5)
    exact = -(3.5 - np.arange(3)) ** 2
    print(f"  analytic levels -(C-n)^2:  {exact}")
    for shift in (0.0, 0.5):
        h_m = build_hamiltonian(morse(3.5, 4.0, shift=shift), grid_m)
        w = bound_spectrum(h_m, grid_m, 3).eigenvalues
        print(f"  shift a={shift}: {np.round(w.real, 4)}  max|Im| "
              f"{np.abs(w.imag).max():.1e}")

    print("\n--- 4. i g x^3: exact parity pseudo-reality, real levels ---")
    grid_c = GridSpec(-6.0, 6.0, 384)
    h_c = build_hamiltonian(monomial_pt(1.0, 3), grid_c)
    par = build_operators(grid_c).Par
    print(f"  parity pseudo-reality residual: "
          f"{similarity_residual(par, h_c, h_c.conj()):.1e} (exact)")
    bound_c = bound_spectrum(h_c, grid_c, 5)
    for k, value in enumerate(bound_c.eigenvalues):
        chk = eigenstate_reality_check(par, bound_c.eigenvectors[:, k])
        print(f"  E = {value.real:9.5f}  |Im| {abs(value.imag):.1e}"
              f"  eigenstate condition holds: {chk.holds}")


if __name__ == "__main__":
    main()
