"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  The closed-form oracles are computed independently inside each
test (eigenvalue formulas, analytic bound-state energies, hand-built
eigenvectors); nothing is asserted against the code path it certifies.
"""

import numpy as np
import pytest

from pseudoherm import (
    PARITY_3,
    SIGMA_X,
    SIGMA_Z,
    GridSpec,
    bound_spectrum,
    build_diagonalizer,
    build_hamiltonian,
    build_operators,
    canonical_normalize,
    check_pseudo_hermitian,
    check_pseudo_real,
    compose_eta,
    eigendecompose,
    eigenstate_reality_check,
    eta_gram,
    eta_plus_from_diagonalizer,
    gauged_oscillator,
    h5,
    h6,
    h7,
    h8,
    h8_diagonalizer,
    h8_eta_plus,
    h8_mu,
    h8_rho,
    harmonic,
    m3,
    monomial_pt,
    morse,
    mu_from_diagonalizer,
    rho_from_diagonalizer,
    similarity_residual,
)
from pseudoherm.cli import sweep_family, sweep_values
from pseudoherm.linalg import fro, inverse


@pytest.fixture()
def verdict(capsys):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""
    def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
        line = f"[ACCEPTANCE {num}] {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _verdict


def random_real_spectrum(rng, n, cond_limit=100.0):
    while True:
        s = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if np.linalg.cond(s) <= cond_limit:
            break
    lam = np.linspace(-2.0, 2.0, n) + rng.uniform(-0.02, 0.02, size=n)
    return s @ np.diag(lam) @ np.linalg.inv(s)


def test_criterion_1_two_level_eigenvalue_formula(verdict):
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-2.0, 2.0)
        c = rng.uniform(0.3, 2.0)
        b = c * rng.uniform(-0.95, 0.95)
        root = np.sqrt(c * c - b * b)
        exact = np.array([a - root, a + root])
        scale = max(1.0, np.abs(exact).max())
        for build in (h5, h6, h7):
            ev = eigendecompose(build(a, b, c)).eigenvalues
            worst = max(worst, float(np.abs(ev - exact).max()) / scale)
    verdict(1, "two-level eigenvalues match a -+ sqrt(c^2-b^2)",
            worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_criterion_2_closed_form_metrics_from_diagonalizer(verdict):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0)
        c = rng.uniform(0.3, 2.0)
        d = rng.uniform(-2.0, 2.0)
        s2 = c * c + d * d
        b = np.sign(rng.normal()) * np.sqrt(rng.uniform(0.0, s2 - 0.05))
        dg = h8_diagonalizer(a, b, c, d)
        for construct, closed in (
            (rho_from_diagonalizer, h8_rho),
            (mu_from_diagonalizer, h8_mu),
            (eta_plus_from_diagonalizer, h8_eta_plus),
        ):
            diff = np.abs(construct(dg) - closed(a, b, c, d)).max()
            worst = max(worst, float(diff))
    verdict(2, "diagonalizer metrics match the closed forms",
            worst <= 1e-8, f"worst entrywise deviation {worst:.2e}")


def test_criterion_3_reality_dichotomy_on_h5_sweep(verdict):
    values = sweep_values(0.0, 2.0, 0.01)
    values = values[(values < 0.99 - 1e-9) | (values > 1.01 + 1e-9)]
    failures = 0
    checked = 0
    for b in values:
        h = h5(0.0, float(b), 1.0)
        spec = eigendecompose(h)
        scale = max(1.0, fro(h))
        for k, value in enumerate(spec.eigenvalues):
            is_real = abs(value.imag) <= 1e-8 * scale
            holds = eigenstate_reality_check(SIGMA_X, spec.eigenvectors[:, k]).holds
            failures += int(holds != is_real)
            checked += 1
    verdict(3, "eigenstate condition holds iff the eigenvalue is real",
            failures == 0, f"{failures} failures over {checked} eigenpairs")


def test_criterion_4_composed_and_positive_metrics_agree(verdict):
    rng = np.random.default_rng(4)
    worst_res = 0.0
    worst_diff = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        h = random_real_spectrum(rng, n)
        d = build_diagonalizer(eigendecompose(h))
        composed = compose_eta(rho_from_diagonalizer(d), mu_from_diagonalizer(d))
        eta_plus = eta_plus_from_diagonalizer(d)
        worst_res = max(worst_res,
                        check_pseudo_hermitian(h, composed).residual,
                        check_pseudo_hermitian(h, eta_plus).residual)
        diff = np.abs(canonical_normalize(composed) - canonical_normalize(eta_plus)).max()
        worst_diff = max(worst_diff, float(diff))
    verdict(4, "composed metric certifies and equals eta+ up to scalar",
            worst_res <= 1e-6 and worst_diff <= 1e-8,
            f"worst residual {worst_res:.2e}, worst scalar-gauged deviation {worst_diff:.2e}")


def test_criterion_5_structural_identities(verdict):
    rng = np.random.default_rng(5)
    ok = True
    notes = []

    # constructed metrics: mu and eta+ are exactly symmetric/Hermitian;
    # rho rho* = 1 cannot be float-exact (it involves an inverse), so it is
    # held to machine precision as the construction contract states
    worst_rho = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = rho_from_diagonalizer(d)
        mu = mu_from_diagonalizer(d)
        eta = eta_plus_from_diagonalizer(d)
        ok &= np.array_equal(mu, mu.T)
        ok &= np.array_equal(eta, eta.conj().T)
        _, cond = inverse(d)
        worst_rho = max(worst_rho, fro(rho @ rho.conj() - np.eye(n)) / cond)
    ok &= worst_rho <= 1e-13
    notes.append(f"rho rho*-1 at {worst_rho:.2e} of cond(D)")

    # operator identities, exactly
    for x_min, x_max, n in ((-12.0, 12.0, 64), (-6.0, 6.0, 33), (-1.0, 1.0, 16)):
        ops = build_operators(GridSpec(x_min, x_max, n))
        eye = np.eye(n, dtype=complex)
        ok &= np.array_equal(ops.Pm.T, -ops.Pm)
        ok &= np.array_equal(ops.Pm.conj().T, ops.Pm)
        ok &= np.array_equal(ops.K.T, ops.K)
        ok &= np.array_equal(ops.X.T, ops.X)
        ok &= np.array_equal(ops.Par @ ops.Par, eye)
        ok &= np.array_equal(ops.Par @ ops.K @ ops.Par, ops.K)
        ok &= np.array_equal(ops.Par @ ops.X @ ops.Par, -ops.X)
        ok &= np.array_equal(ops.Par @ ops.Pm @ ops.Par, -ops.Pm)
    ops = build_operators(GridSpec(-4.0, 14.0, 32))  # asymmetric: no parity claims
    ok &= np.array_equal(ops.Pm.T, -ops.Pm)
    ok &= np.array_equal(ops.K.T, ops.K)

    verdict(5, "structural identities of metrics and stencils", bool(ok), "; ".join(notes))


def test_criterion_6_orthogonality_and_norm_laws(verdict):
    rng = np.random.default_rng(6)
    ok = True
    notes = []

    # eta-orthogonality for distinct real eigenvalues
    worst_off = 0.0
    cases = [(h5(0.2, 0.6, 1.0), SIGMA_X), (h6(0.0, 1.0, 2.0), SIGMA_Z)]
    for _ in range(5):
        n = 8
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        eta = a @ a.conj().T + n * np.eye(n)
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        cases.append((np.linalg.inv(eta) @ (b + b.conj().T), eta))
    for h, eta in cases:
        assert check_pseudo_hermitian(h, eta).residual <= 1e-12
        spec = eigendecompose(h)
        rep = eta_gram(spec.eigenvectors, eta, eigenvalues=spec.eigenvalues)
        worst_off = max(worst_off, rep.offdiag_max / fro(eta))  # unit states
    ok &= worst_off <= 1e-8
    notes.append(f"worst off-diagonal {worst_off:.2e}")

    # zero pseudo-norm for complex eigenvalues (broken phase)
    worst_norm = 0.0
    for b in (1.25, 2.0):
        h = h5(0.0, b, 1.0)
        spec = eigendecompose(h)
        rep = eta_gram(spec.eigenvectors, SIGMA_X, eigenvalues=spec.eigenvalues)
        worst_norm = max(worst_norm, max(abs(n_) for n_ in rep.norms) / fro(SIGMA_X))
    for b in (2.5, 3.0):  # H8 with c=2, d=1 breaks at sqrt(5)
        h = h8(0.0, b, 2.0, 1.0)
        spec = eigendecompose(h)
        d = build_diagonalizer(spec)
        eta = compose_eta(SIGMA_X, mu_from_diagonalizer(d))
        assert check_pseudo_hermitian(h, eta).residual <= 1e-10
        rep = eta_gram(spec.eigenvectors, eta, eigenvalues=spec.eigenvalues)
        worst_norm = max(worst_norm, max(abs(n_) for n_ in rep.norms) / fro(eta))
    ok &= worst_norm <= 1e-8
    notes.append(f"worst broken-phase pseudo-norm {worst_norm:.2e}")

    # eta+ signature all-positive on real-phase H8
    for _ in range(10):
        a = rng.uniform(-1, 1)
        c = rng.uniform(0.5, 2.0)
        d = rng.uniform(-1.5, 1.5)
        b = np.sqrt(rng.uniform(0.0, c * c + d * d - 0.1))
        spec = eigendecompose(h8(a, b, c, d))
        eta_plus = eta_plus_from_diagonalizer(build_diagonalizer(spec))
        rep = eta_gram(spec.eigenvectors, eta_plus, eigenvalues=spec.eigenvalues)
        ok &= rep.signature == ("+", "+")
    verdict(6, "orthogonality, zero-norm and definiteness laws", bool(ok), "; ".join(notes))


@pytest.mark.slow
def test_criterion_7_discretizer_oracles(verdict):
    grid = GridSpec(-12.0, 12.0, 1024)
    exact_osc = np.arange(5) + 0.5

    h_osc = build_hamiltonian(harmonic(1.0), grid)
    w_osc = bound_spectrum(h_osc, grid, 5).eigenvalues
    err_osc = float(np.abs(w_osc.real - exact_osc).max())

    h_gauge = build_hamiltonian(gauged_oscillator(1.0, 0.25), grid)
    w_gauge = bound_spectrum(h_gauge, grid, 5).eigenvalues
    err_gauge = float(np.abs(w_gauge.real - w_osc.real).max())

    grid_m = GridSpec(-4.0, 14.0, 2048, mass=0.5)
    exact_morse = -(3.5 - np.arange(3)) ** 2
    w_m = {}
    for shift in (0.0, 0.5):
        h_m = build_hamiltonian(morse(3.5, 4.0, shift=shift), grid_m)
        w_m[shift] = bound_spectrum(h_m, grid_m, 3).eigenvalues
    err_morse = float(np.abs(w_m[0.0].real - exact_morse).max())
    err_shift = float(np.abs(w_m[0.0] - w_m[0.5]).max())

    ok = (err_osc <= 5e-3 and err_gauge <= 5e-3
          and err_morse <= 1e-2 and err_shift <= 1e-3)
    verdict(7, "discretizer bound states match the analytic levels", ok,
            f"oscillator {err_osc:.1e}, gauge independence {err_gauge:.1e}, "
            f"morse {err_morse:.1e}, shift equivalence {err_shift:.1e}")


@pytest.mark.slow
def test_criterion_8_monomial_reality_and_3x3_parity(verdict):
    grid = GridSpec(-6.0, 6.0, 1024)
    h = build_hamiltonian(monomial_pt(1.0, 3), grid)
    par = build_operators(grid).Par
    residual = similarity_residual(par, h, h.conj())
    bound = bound_spectrum(h, grid, 5)
    ev = bound.eigenvalues
    worst_imag = float(np.max(np.abs(ev.imag) / np.abs(ev.real)))
    checks = all(eigenstate_reality_check(par, bound.eigenvectors[:, k]).holds
                 for k in range(len(bound)))
    m3_holds = check_pseudo_real(m3(), PARITY_3).holds
    ok = worst_imag <= 1e-6 and residual == 0.0 and checks and m3_holds
    verdict(8, "i g x^3 reality and the 3x3 parity candidate", ok,
            f"max |Im/Re| {worst_imag:.1e}, parity residual {residual:.1e}")


def test_criterion_9_sweep_thresholds(verdict):
    res5 = sweep_family("H5", "b", sweep_values(0.0, 2.0, 0.01), {"a": 0.0, "c": 1.0})
    lo5, hi5 = res5.breaking_point
    ok5 = 0.99 - 1e-9 <= lo5 and hi5 <= 1.01 + 1e-9

    res8 = sweep_family("H8", "b", sweep_values(0.0, 3.0, 0.01),
                        {"a": 0.0, "c": 2.0, "d": 1.0})
    lo8, hi8 = res8.breaking_point
    target = np.sqrt(5.0)
    ok8 = abs(lo8 - target) <= 0.02 and abs(hi8 - target) <= 0.02

    res_sec = sweep_family("H5", "b", sweep_values(0.0, 0.5, 0.01), {"a": 0.0, "c": 1.0})
    ok_sec = "sigma_x" in res_sec.secular_metrics and res_sec.breaking_point is None

    verdict(9, "breaking brackets and secular metric detection",
            ok5 and ok8 and ok_sec,
            f"H5 bracket [{lo5:.2f}, {hi5:.2f}], H8 bracket [{lo8:.2f}, {hi8:.2f}], "
            f"secular {sorted(res_sec.secular_metrics)}")
