"""Gram matrices, orthogonality residuals and norm signatures."""

import numpy as np
import pytest

from pseudoherm import (
    SIGMA_X,
    eigendecompose,
    eta_gram,
    eta_plus_from_diagonalizer,
    h5,
    h8,
    h8_diagonalizer,
    h8_eigenvectors,
    hermitian_gram,
    mu_from_diagonalizer,
    pt_gram,
    transpose_gram,
)
from pseudoherm.inner import DimensionMismatch
from pseudoherm.linalg import ZeroVector, build_diagonalizer, fro
from pseudoherm.metrics import compose_eta, default_parity

# analytic eigenvectors of H5(a=0, b=0.6, c=1) for the eigenvalues +-0.8,
# kept unnormalized on purpose: the norms below are convention dependent
PSI_PLUS = np.array([1.0, 0.8 - 0.6j])
PSI_MINUS = np.array([1.0, -0.8 - 0.6j])

# each Gram as a function of the states alone, with 2 x 2 metrics
GRAMS = (lambda v: eta_gram(v, SIGMA_X), lambda v: pt_gram(v, SIGMA_X),
         transpose_gram, hermitian_gram)


class TestEtaGram:
    def test_h5_real_phase_norms(self):
        rep = eta_gram(np.column_stack([PSI_PLUS, PSI_MINUS]), SIGMA_X, eigenvalues=[0.8, -0.8])
        assert rep.offdiag_max <= 1e-15
        np.testing.assert_allclose(rep.norms, [1.6, -1.6], atol=1e-15)
        assert rep.signature == ("+", "-")

    def test_h5_broken_phase_zero_pseudo_norm(self):
        spec = eigendecompose(h5(0.0, 1.25, 1.0))
        rep = eta_gram(spec.eigenvectors, SIGMA_X, eigenvalues=spec.eigenvalues)
        assert max(abs(n) for n in rep.norms) <= 1e-14
        assert rep.signature == ("0", "0")

    def test_identity_metric_reduces_to_hermitian(self):
        rng = np.random.default_rng(0)
        states = np.column_stack([rng.normal(size=4) + 1j * rng.normal(size=4)
                                  for _ in range(3)])
        a = eta_gram(states, np.eye(4))
        b = hermitian_gram(states)
        np.testing.assert_array_equal(a.gram, b.gram)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroVector):
            eta_gram(np.zeros((2, 1)), SIGMA_X)
        # a non-finite entry is rejected by every Gram
        bad = np.column_stack([PSI_PLUS, [1.0, np.nan]])
        for gram in GRAMS:
            with pytest.raises(ValueError):
                gram(bad)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eta_gram(np.ones((3, 1)), SIGMA_X)
        # only a 2-D array with a column is a set of states: a list of
        # vectors would be read as rows
        for states in ([PSI_PLUS, PSI_MINUS], PSI_PLUS, np.ones((2, 0))):
            for gram in GRAMS:
                with pytest.raises(DimensionMismatch):
                    gram(states)

    def test_scalar_covariance(self):
        states = np.column_stack([PSI_PLUS, PSI_MINUS])
        base = eta_gram(states, SIGMA_X)
        scaled = eta_gram(states, (2.0 - 1.0j) * SIGMA_X)
        # linear in the metric, up to reassociation rounding
        np.testing.assert_allclose(scaled.gram, (2.0 - 1.0j) * base.gram,
                                   rtol=1e-14, atol=1e-14)

    def test_eta_orthogonality_invariant(self):
        """Holding metric + distinct real eigenvalues -> eta-orthogonal states."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 6
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            eta = a @ a.conj().T + n * np.eye(n)  # Hermitian positive definite
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            herm = b + b.conj().T
            h = np.linalg.inv(eta) @ herm  # eta H = herm = eta-pseudo-Hermitian
            spec = eigendecompose(h)
            rep = eta_gram(spec.eigenvectors, eta, eigenvalues=spec.eigenvalues)
            bound = 1e-8 * fro(eta)  # states are unit vectors
            assert rep.offdiag_max <= bound


class TestPtGram:
    def test_real_states_identity_parity_equals_transpose(self):
        rng = np.random.default_rng(1)
        states = np.column_stack([rng.normal(size=5) for _ in range(3)])
        a = pt_gram(states, np.eye(5))
        b = transpose_gram(states)
        np.testing.assert_array_equal(a.gram, b.gram)

    def test_h5_parity_sigma_x_matches_eta_gram(self):
        # (sigma_x conj(psi))^T phi = psi^dagger sigma_x^T phi = psi^dagger sigma_x phi
        states = np.column_stack([PSI_PLUS, PSI_MINUS])
        a = pt_gram(states, SIGMA_X)
        b = eta_gram(states, SIGMA_X)
        np.testing.assert_allclose(a.gram, b.gram, atol=1e-15)

    def test_parity_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pt_gram(np.ones((2, 1)), np.eye(3))


class TestTransposeGram:
    def test_orthonormal_real_basis(self):
        rep = transpose_gram(np.column_stack([np.eye(4)[:, k] for k in range(4)]))
        np.testing.assert_array_equal(rep.gram, np.eye(4))
        assert rep.signature == ("+",) * 4

    def test_h5_symmetric_orthogonality(self):
        # H5 is symmetric (mu = 1), so distinct eigenvalues give
        # transpose-orthogonal eigenvectors
        spec = eigendecompose(h5(0.3, 0.6, 1.0))
        rep = transpose_gram(spec.eigenvectors, eigenvalues=spec.eigenvalues)
        assert rep.offdiag_max <= 1e-12

    def test_isotropic_vector_has_zero_self_pairing(self):
        rep = transpose_gram(np.array([[1.0], [1.0j]]))
        assert rep.norms[0] == 0.0
        assert rep.signature == ("0",)


class TestHermitianGram:
    def test_positive_norms(self):
        rng = np.random.default_rng(2)
        states = np.column_stack([rng.normal(size=6) + 1j * rng.normal(size=6)
                                  for _ in range(4)])
        rep = hermitian_gram(states)
        assert all(n.real > 0 and abs(n.imag) <= 1e-15 for n in rep.norms)
        assert rep.signature == ("+",) * 4

    def test_hermitian_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        spec = eigendecompose(a + a.conj().T)
        rep = hermitian_gram(spec.eigenvectors)
        np.testing.assert_allclose(rep.gram, np.eye(5), atol=1e-12)


class TestH8Norms:
    def test_eta_plus_signature_all_positive(self):
        a, b, c, d = 0.5, 1.0, 2.0, 1.0
        psi1, psi2 = h8_eigenvectors(a, b, c, d)
        eta_plus = eta_plus_from_diagonalizer(h8_diagonalizer(a, b, c, d))
        ev = [a - 2.0, a + 2.0]
        rep = eta_gram(np.column_stack([psi1, psi2]), eta_plus, eigenvalues=ev)
        herm = hermitian_gram(np.column_stack([psi1, psi2]))
        assert rep.signature == ("+", "+")
        assert herm.signature == ("+", "+")
        assert all(abs(n.imag) <= 1e-14 for n in rep.norms)

    def test_composed_eta_norms_recorded_complex(self):
        # the composed sigma_x * mu metric certifies orthogonality but its
        # pseudo-norms need not be real; they are recorded as is
        a, b, c, d = 0.5, 1.0, 2.0, 1.0
        dg = h8_diagonalizer(a, b, c, d)
        eta = compose_eta(SIGMA_X, mu_from_diagonalizer(dg))
        psi1, psi2 = h8_eigenvectors(a, b, c, d)
        rep = eta_gram(np.column_stack([psi1, psi2]), eta, eigenvalues=[a - 2.0, a + 2.0])
        assert rep.offdiag_max <= 1e-12

    def test_broken_h8_zero_pseudo_norm(self):
        h = h8(0.0, 3.0, 2.0, 1.0)  # b^2 > c^2 + d^2: conjugate pair
        spec = eigendecompose(h)
        assert {t.kind for t in spec.reality} == {"conjugate_pair"}
        dg = build_diagonalizer(spec)
        eta = compose_eta(SIGMA_X, mu_from_diagonalizer(dg))
        rep = eta_gram(spec.eigenvectors, eta, eigenvalues=spec.eigenvalues)
        assert max(abs(n) for n in rep.norms) <= 1e-10 * fro(eta)


class TestSignatureDeadZone:
    def test_tiny_real_part_reports_zero(self):
        # norm 1e-12 on a unit state with a unit-norm metric sits inside
        # the dead zone metric_tol * ||eta|| * ||psi||^2
        eta = np.diag([1e-12, -1.0]).astype(complex)
        rep = eta_gram(np.array([[1.0], [0.0]]), eta)
        assert rep.signature == ("0",)


class TestSpectrumColumns:
    @pytest.mark.parametrize("n", [2, 5, 17, 40, 70])
    def test_matrix_path_keeps_the_bits(self, n):
        """The Grams of the spectrum's own F-ordered matrix, and of a column
        subset of it as ``bound_spectrum`` takes, carry the bits of the Grams
        of the same columns stacked one by one, down to the sign of a zero."""
        rng = np.random.default_rng(n)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        spec = eigendecompose(h)
        assert spec.eigenvectors.flags.f_contiguous
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        eta = a @ a.conj().T
        parity = default_parity(n)
        subset = sorted(int(k) for k in rng.choice(n, size=max(1, n // 3), replace=False))
        for cols, v in ((list(range(n)), spec.eigenvectors),
                        (subset, spec.eigenvectors[:, subset])):
            stacked = np.column_stack([spec.eigenvectors[:, k] for k in cols])
            w = spec.eigenvalues[cols]
            for got, want in ((eta_gram(v, eta, w), eta_gram(stacked, eta, w)),
                              (pt_gram(v, parity, w), pt_gram(stacked, parity, w)),
                              (transpose_gram(v, w), transpose_gram(stacked, w)),
                              (hermitian_gram(v), hermitian_gram(stacked))):
                assert got.gram.tobytes() == want.gram.tobytes()
                assert np.array(got.norms).tobytes() == np.array(want.norms).tobytes()
                assert (got.offdiag_max, got.signature) == (want.offdiag_max, want.signature)
