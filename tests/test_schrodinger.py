"""Discrete operators, potential families and bound-state extraction."""

import numpy as np
import pytest

from pseudoherm import (
    GridSpec,
    InvalidGrid,
    ParameterOutOfRange,
    bound_spectrum,
    build_hamiltonian,
    build_operators,
    check_pseudo_adjoint,
    check_pseudo_hermitian,
    check_pseudo_real,
    compose_eta,
    eigendecompose,
    eigenstate_reality_check,
    eta_gram,
    gauge_metric,
    gauged_hermitian,
    gauged_oscillator,
    harmonic,
    monomial_pt,
    morse,
)
from pseudoherm.linalg import fro
from pseudoherm.schrodinger import (
    DiscreteOperators,
    PotentialSpec,
    _diagonal_potential,
    _sequential_power,
)


@pytest.fixture(scope="module")
def sym_grid():
    return GridSpec(-12.0, 12.0, 64)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(InvalidGrid):
            GridSpec(1.0, -1.0, 64)
        with pytest.raises(InvalidGrid):
            GridSpec(-1.0, 1.0, 8)
        with pytest.raises(InvalidGrid):
            GridSpec(-1.0, 1.0, 64, mass=0.0)

    def test_symmetric_grid_exactly_antisymmetric(self):
        for n in (16, 33, 256):
            x = GridSpec(-7.5, 7.5, n).points()
            np.testing.assert_array_equal(x, -x[::-1])

    def test_asymmetric_grid(self):
        g = GridSpec(-4.0, 14.0, 32)
        x = g.points()
        assert not g.symmetric
        assert x[0] > -4.0 and x[-1] < 14.0
        np.testing.assert_allclose(np.diff(x), g.spacing, rtol=1e-12)


class TestStructuralIdentities:
    """The adjointness relations hold with zero tolerance."""

    def test_momentum_antisymmetric(self, sym_grid):
        ops = build_operators(sym_grid)
        assert np.array_equal(ops.Pm.T, -ops.Pm)

    def test_momentum_hermitian(self, sym_grid):
        ops = build_operators(sym_grid)
        assert np.array_equal(ops.Pm.conj().T, ops.Pm)

    def test_kinetic_and_position_symmetric(self, sym_grid):
        ops = build_operators(sym_grid)
        assert np.array_equal(ops.K.T, ops.K)
        assert np.array_equal(ops.X.T, ops.X)

    def test_parity_relations(self, sym_grid):
        ops = build_operators(sym_grid)
        assert np.array_equal(ops.Par @ ops.Par, np.eye(sym_grid.n_points, dtype=complex))
        assert np.array_equal(ops.Par @ ops.K @ ops.Par, ops.K)
        assert np.array_equal(ops.Par @ ops.X @ ops.Par, -ops.X)
        assert np.array_equal(ops.Par @ ops.Pm @ ops.Par, -ops.Pm)

    def test_parity_relations_odd_point_count(self):
        ops = build_operators(GridSpec(-3.0, 3.0, 17))
        assert np.array_equal(ops.Par @ ops.X @ ops.Par, -ops.X)

    def test_tridiagonal_structure(self):
        ops = build_operators(GridSpec(-1.0, 1.0, 16))
        pm = ops.Pm
        assert np.count_nonzero(pm) == 2 * 15
        h = (2.0) / 17
        assert pm[0, 1] == -1j / (2 * h)


def reference_operators(grid):
    """``build_operators`` as it was when every builder made all four (reference)."""
    n = grid.n_points
    x = grid.points()
    h = grid.spacing
    m = grid.mass

    X = np.zeros((n, n), dtype=np.complex128)
    X[np.arange(n), np.arange(n)] = x

    Pm = np.zeros((n, n), dtype=np.complex128)
    off = np.arange(n - 1)
    Pm[off, off + 1] = -1j / (2.0 * h)
    Pm[off + 1, off] = 1j / (2.0 * h)

    K = np.zeros((n, n), dtype=np.complex128)
    K[np.arange(n), np.arange(n)] = 1.0 / (m * h * h)
    K[off, off + 1] = -1.0 / (2.0 * m * h * h)
    K[off + 1, off] = -1.0 / (2.0 * m * h * h)

    Par = np.zeros((n, n), dtype=np.complex128)
    Par[np.arange(n), np.arange(n)[::-1]] = 1.0

    return DiscreteOperators(X=X, Pm=Pm, K=K, Par=Par)


def reference_hamiltonian(pot, grid):
    """``build_hamiltonian`` as it was, on all four operators (reference)."""
    ops = reference_operators(grid)
    x = grid.points()
    n = grid.n_points
    m = grid.mass

    kinetic = ops.K.copy()
    if pot.family == "gauged_oscillator":
        beta = pot.params["beta"]
        expo = 0.5 * beta * (x[:, None] ** 2 - x[None, :] ** 2)
        kinetic = kinetic * np.exp(expo)
    elif pot.family == "gauged_hermitian":
        gamma = pot.params["gamma"]
        x3 = _sequential_power(x, 3)
        phase = gamma * (x3[:, None] - x3[None, :])
        kinetic = kinetic * np.exp(1j * phase)

    v = _diagonal_potential(pot, x)
    if pot.family in ("harmonic", "gauged_oscillator", "gauged_hermitian"):
        v = m * v
    h_mat = kinetic
    h_mat[np.arange(n), np.arange(n)] += v
    return h_mat


def reference_gauge_metric(pot, grid):
    """``gauge_metric`` as it was, on all four operators (reference)."""
    x = grid.points()
    if pot.family == "gauged_oscillator":
        return "gauge_mu", np.diag(np.exp(-pot.params["beta"] * x * x)).astype(np.complex128)
    if pot.family == "gauged_hermitian" and grid.symmetric:
        x3 = _sequential_power(x, 3)
        par = reference_operators(grid).Par
        return "gauge_eta", par @ np.diag(np.exp(-2j * pot.params["gamma"] * x3))
    return None


BUILDER_GRIDS = (GridSpec(-6.0, 6.0, 16), GridSpec(-8.0, 8.0, 255),
                 GridSpec(-4.0, 14.0, 64, mass=0.5))


class TestBuildersEqualReference:
    """Each builder makes only the operators it uses, with the same bytes."""

    @pytest.mark.parametrize("grid", BUILDER_GRIDS)
    def test_operators(self, grid):
        got, want = build_operators(grid), reference_operators(grid)
        for name in ("X", "Pm", "K", "Par"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    @pytest.mark.parametrize("family", [harmonic(1.3), gauged_oscillator(1.0, 0.2),
                                        gauged_hermitian(1.0, 0.1), morse(3.5, 2.0),
                                        monomial_pt(1.0, 3)])
    def test_hamiltonian_and_gauge_metric(self, family, shift):
        pot = PotentialSpec(family.family, family.params, shift)
        for grid in BUILDER_GRIDS:
            assert build_hamiltonian(pot, grid).tobytes() == reference_hamiltonian(pot, grid).tobytes()
            got, want = gauge_metric(pot, grid), reference_gauge_metric(pot, grid)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


class TestPotentialValidation:
    def test_unknown_family(self):
        with pytest.raises(ParameterOutOfRange):
            PotentialSpec("square_well", {})

    def test_missing_parameter(self):
        with pytest.raises(ParameterOutOfRange):
            PotentialSpec("morse", {"C": 3.5})

    def test_morse_domain(self):
        with pytest.raises(ParameterOutOfRange):
            morse(C=-1.0, D=4.0)
        with pytest.raises(ParameterOutOfRange):
            morse(C=3.5, D=0.0)

    def test_monomial_exponent_must_be_odd(self):
        with pytest.raises(ParameterOutOfRange):
            monomial_pt(1.0, 2)
        with pytest.raises(ParameterOutOfRange):
            monomial_pt(1.0, -3)


class TestBuildHamiltonian:
    def test_harmonic_real_symmetric(self, sym_grid):
        h = build_hamiltonian(harmonic(1.0), sym_grid)
        assert np.array_equal(h, h.T)
        assert np.abs(h.imag).max() == 0.0

    def test_morse_shift_changes_matrix_not_grid(self):
        grid = GridSpec(-4.0, 14.0, 64, mass=0.5)
        h0 = build_hamiltonian(morse(3.5, 4.0), grid)
        h1 = build_hamiltonian(morse(3.5, 4.0, shift=0.5), grid)
        assert h0.shape == h1.shape
        assert np.abs(h0 - h1).max() > 1.0
        assert np.abs(h1.imag).max() > 0.0

    def test_monomial_exactly_parity_pseudo_real(self):
        for k in (3, 5):
            grid = GridSpec(-6.0, 6.0, 64)
            h = build_hamiltonian(monomial_pt(1.0, k), grid)
            par = build_operators(grid).Par
            assert np.array_equal(par @ h.conj() @ par, h)

    def test_gauged_hermitian_exactly_hermitian(self):
        grid = GridSpec(-8.0, 8.0, 80)
        h = build_hamiltonian(gauged_hermitian(1.0, 0.15), grid)
        assert np.array_equal(h, h.conj().T)

    def test_overflowing_potential_rejected(self):
        # the exponential wall blows past float range at very negative x
        grid = GridSpec(-800.0, 14.0, 64, mass=0.5)
        with pytest.raises(ParameterOutOfRange):
            build_hamiltonian(morse(3.5, 4.0), grid)


class TestGaugedOscillator:
    def test_pseudo_adjoint_under_gauge_metric(self):
        # the conjugated build keeps G H G^-1 = H^T at rounding level even
        # for the widest spec range; evaluated by exact diagonal scaling
        # because G itself is numerically singular at beta x^2 ~ 36
        grid = GridSpec(-12.0, 12.0, 256)
        x = grid.points()
        h = build_hamiltonian(gauged_oscillator(1.0, 0.25), grid)
        scaled = h * np.exp(-0.25 * (x[:, None] ** 2 - x[None, :] ** 2))
        assert fro(scaled - h.T) / fro(h) <= 1e-8

    def test_gauge_metric_check_moderate_range(self):
        grid = GridSpec(-6.0, 6.0, 64)
        pot = gauged_oscillator(1.0, 0.1)
        h = build_hamiltonian(pot, grid)
        name, g = gauge_metric(pot, grid)
        assert name == "gauge_mu"
        assert check_pseudo_adjoint(h, g).holds

    def test_spectrum_is_gauge_independent(self):
        grid = GridSpec(-12.0, 12.0, 256)
        h0 = build_hamiltonian(harmonic(1.0), grid)
        h3 = build_hamiltonian(gauged_oscillator(1.0, 0.25), grid)
        w0 = np.sort(eigendecompose(h0).eigenvalues.real)
        w3 = np.sort(eigendecompose(h3).eigenvalues.real)
        assert np.abs(w0 - w3).max() <= 1e-8 * max(1.0, np.abs(w0).max())

    def test_alternative_parity_route(self):
        # the build is real and parity even, so rho = Par also certifies
        # pseudo-reality and composes with the gauge mu to eta = Par G
        grid = GridSpec(-6.0, 6.0, 64)
        pot = gauged_oscillator(1.0, 0.1)
        h = build_hamiltonian(pot, grid)
        par = build_operators(grid).Par
        assert check_pseudo_real(h, par).holds
        _, g = gauge_metric(pot, grid)
        eta = compose_eta(par, g)
        np.testing.assert_allclose(eta, par @ g, atol=1e-12)
        assert check_pseudo_hermitian(h, eta).holds


class TestGaugedHermitian:
    def test_parity_is_rho_and_mu(self):
        grid = GridSpec(-8.0, 8.0, 80)
        h = build_hamiltonian(gauged_hermitian(1.0, 0.15), grid)
        par = build_operators(grid).Par
        assert check_pseudo_real(h, par).residual == 0.0
        assert check_pseudo_adjoint(h, par).residual == 0.0

    def test_gauge_eta_alternating_norms(self):
        # seen as pseudo-Hermitian, the Hermitian build has indefinite
        # pseudo-norms (-1)^n under eta = Par exp(-2 i gamma x^3)
        grid = GridSpec(-10.0, 10.0, 200)
        pot = gauged_hermitian(1.0, 0.1)
        h = build_hamiltonian(pot, grid)
        name, eta = gauge_metric(pot, grid)
        assert name == "gauge_eta"
        assert check_pseudo_hermitian(h, eta).holds
        bound = bound_spectrum(h, grid, 6)
        rep = eta_gram(bound.eigenvectors, eta, eigenvalues=bound.eigenvalues)
        assert rep.signature == ("+", "-", "+", "-", "+", "-")
        assert rep.offdiag_max <= 1e-8


class TestBoundSpectrum:
    def test_harmonic_levels(self):
        grid = GridSpec(-12.0, 12.0, 256)
        h = build_hamiltonian(harmonic(1.0), grid)
        bound = bound_spectrum(h, grid, 5)
        exact = np.arange(5) + 0.5
        np.testing.assert_allclose(bound.eigenvalues.real, exact, atol=2e-2)
        assert np.abs(bound.eigenvalues.imag).max() <= 1e-12
        assert all(t.kind == "real" for t in bound.reality)

    def test_morse_levels_and_shift_equivalence(self):
        grid = GridSpec(-4.0, 14.0, 512, mass=0.5)
        exact = -(3.5 - np.arange(3)) ** 2
        w = {}
        for shift in (0.0, 0.5):
            h = build_hamiltonian(morse(3.5, 4.0, shift=shift), grid)
            bound = bound_spectrum(h, grid, 3)
            w[shift] = bound.eigenvalues
            np.testing.assert_allclose(bound.eigenvalues.real, exact, atol=1e-2)
        assert np.abs(w[0.0] - w[0.5]).max() <= 1e-3

    def test_monomial_reality_and_parity_condition(self):
        grid = GridSpec(-6.0, 6.0, 512)
        h = build_hamiltonian(monomial_pt(1.0, 3), grid)
        bound = bound_spectrum(h, grid, 5)
        ev = bound.eigenvalues
        assert np.max(np.abs(ev.imag) / np.abs(ev.real)) <= 1e-6
        par = build_operators(grid).Par
        for k in range(len(bound)):
            assert eigenstate_reality_check(par, bound.eigenvectors[:, k]).holds

    def test_tight_box_flags_non_decaying_states(self):
        # in a [-6, 6] box only the lowest oscillator levels decay at the
        # walls; asking for more returns the decaying ones and flags the
        # rest instead of silently dropping them
        grid = GridSpec(-6.0, 6.0, 64)
        h = build_hamiltonian(harmonic(1.0), grid)
        bound = bound_spectrum(h, grid, 12)
        assert 0 < len(bound) < 12
        exact = np.arange(len(bound)) + 0.5
        np.testing.assert_allclose(bound.eigenvalues.real, exact, atol=5e-2)
        rejected = [f for f in bound.flags if f.startswith("boundary_filter_rejected")]
        assert rejected and "index=" in rejected[0]

    @pytest.mark.parametrize("pot,grid", [
        (harmonic(1.0), GridSpec(-8.0, 8.0, 256)),
        (gauged_oscillator(1.0, 0.1), GridSpec(-8.0, 8.0, 256)),
        (gauged_hermitian(1.0, 0.05), GridSpec(-8.0, 8.0, 256)),
        (morse(3.5, 4.0, shift=0.3), GridSpec(-4.0, 14.0, 256, mass=0.5)),
        (monomial_pt(1.0, 3), GridSpec(-6.0, 6.0, 256)),
    ])
    def test_precomputed_spectrum_selects_the_same_states(self, pot, grid):
        h = build_hamiltonian(pot, grid)
        full = eigendecompose(h)
        own = bound_spectrum(h, grid, 6)
        given = bound_spectrum(h, grid, 6, spectrum=full)
        assert len(given) == len(own)
        # the kept states are the lowest ones the boundary filter did not reject
        rejected = {int(f.split("index=")[1].split(",")[0]) for f in given.flags
                    if f.startswith("boundary_filter_rejected")}
        selected = [i for i in range(len(full)) if i not in rejected][:len(given)]
        assert given.reality == own.reality
        np.testing.assert_array_equal(given.eigenvalues, own.eigenvalues)
        np.testing.assert_array_equal(given.residuals, own.residuals)
        np.testing.assert_array_equal(given.eigenvectors, own.eigenvectors)
        np.testing.assert_array_equal(given.eigenvalues, full.eigenvalues[selected])
        np.testing.assert_array_equal(given.residuals, full.residuals[selected])
        np.testing.assert_array_equal(given.eigenvectors, full.eigenvectors[:, selected])
        assert given.diagonalizer_condition == own.diagonalizer_condition
        assert given.flags == own.flags

    def test_k_limit(self):
        grid = GridSpec(-6.0, 6.0, 64)
        h = build_hamiltonian(harmonic(1.0), grid)
        with pytest.raises(ValueError):
            bound_spectrum(h, grid, 17)


class TestGaugeMetricHelper:
    def test_no_metric_for_plain_families(self):
        grid = GridSpec(-6.0, 6.0, 64)
        assert gauge_metric(harmonic(1.0), grid) is None
        assert gauge_metric(monomial_pt(1.0, 3), grid) is None

    def test_gauged_hermitian_requires_symmetric_grid(self):
        grid = GridSpec(-4.0, 6.0, 64)
        assert gauge_metric(gauged_hermitian(1.0, 0.1), grid) is None
