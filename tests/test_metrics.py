"""Symmetry checks, metric construction and the reality dichotomy."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import (
    GridSpec,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SingularMatrix,
    ToleranceConfig,
    ZeroVector,
    build_hamiltonian,
    canonical_normalize,
    check_all,
    check_pseudo_adjoint,
    check_pseudo_hermitian,
    check_pseudo_real,
    classify,
    compose_eta,
    default_parity,
    eigendecompose,
    eigenstate_reality_check,
    eta_gram,
    eta_plus_from_diagonalizer,
    gauge_metric,
    gauged_hermitian,
    h5,
    h6,
    h7,
    h8,
    h8_diagonalizer,
    harmonic,
    hermitian_gram,
    identity_view,
    m3,
    monomial_pt,
    mu_from_diagonalizer,
    pt_gram,
    rho_from_diagonalizer,
    similarity_residual,
    symmetry_generator,
    transpose_gram,
)
from pseudoherm import _lapack, inner, linalg, metrics
from pseudoherm.linalg import (DEFAULT_TOL, build_diagonalizer, fro, inverse, permutation_of,
                               tolerance_scale)
from pseudoherm.metrics import PSEUDO_ADJOINT, PSEUDO_HERMITIAN, PSEUDO_REAL, RealityCheck

ID2 = np.eye(2, dtype=complex)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_real_spectrum(rng, n, spread=2.0):
    """H = S diag(real) S^-1 with a moderately conditioned S."""
    while True:
        s = np.eye(n) + 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if np.linalg.cond(s) <= 100:
            break
    lam = np.sort(rng.uniform(-spread, spread, size=n))
    s_inv = np.linalg.inv(s)
    return s @ np.diag(lam) @ s_inv


class TestChecks:
    @pytest.mark.parametrize("a,b,c", [(0.0, 0.6, 1.0), (1.0, 2.0, 0.5), (-0.3, 1.0, 1.0)])
    def test_h5_pseudo_real_under_sigma_x(self, a, b, c):
        rep = check_pseudo_real(h5(a, b, c), SIGMA_X)
        assert rep.holds and rep.residual <= 1e-14

    @pytest.mark.parametrize("a,b,c", [(1.0, 1.0, 2.0), (0.0, 2.0, 0.3)])
    def test_h6_pseudo_real_under_sigma_z(self, a, b, c):
        assert check_pseudo_real(h6(a, b, c), SIGMA_Z).holds

    def test_real_matrix_rho_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        assert check_pseudo_real(m, np.eye(4)).residual == 0.0

    @pytest.mark.parametrize("a,b,c", [(0.0, 1.0, 2.0), (0.5, 2.0, 1.0)])
    def test_h7_pseudo_adjoint_under_sigma_x(self, a, b, c):
        assert check_pseudo_adjoint(h7(a, b, c), SIGMA_X).holds

    def test_h5_symmetric_mu_identity(self):
        # both off-diagonal entries equal c, so H5 is its own transpose
        assert check_pseudo_adjoint(h5(0.3, 0.9, 1.4), ID2).residual == 0.0

    def test_h5_pseudo_hermitian_under_sigma_x(self):
        assert check_pseudo_hermitian(h5(0.0, 0.6, 1.0), SIGMA_X).holds

    def test_h7_pseudo_hermitian_under_sigma_y(self):
        assert check_pseudo_hermitian(h7(0.0, 1.0, 2.0), SIGMA_Y).holds

    def test_hermitian_eta_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        assert check_pseudo_hermitian(h, np.eye(5)).residual == 0.0

    def test_singular_metric_raises(self):
        with pytest.raises(SingularMatrix):
            check_pseudo_real(h5(0, 0.6, 1), [[1, 1], [1, 1]])

    @pytest.mark.parametrize("c", [2.0, -1.0, 0.5j, 1.3 - 0.4j])
    def test_scalar_gauge_invariance(self, c):
        h = h7(0.2, 1.0, 2.0)
        base = check_pseudo_hermitian(h, SIGMA_Y)
        scaled = check_pseudo_hermitian(h, c * SIGMA_Y)
        assert scaled.holds == base.holds
        assert abs(scaled.residual - base.residual) <= 1e-12
        np.testing.assert_allclose(scaled.metric, base.metric, atol=1e-14)


class TestCheckAll:
    @pytest.mark.parametrize("seed", range(4))
    def test_residuals_equal_per_target_similarity_residuals(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 + 5 * seed
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        targets = {PSEUDO_REAL: h.conj(), PSEUDO_ADJOINT: h.T, PSEUDO_HERMITIAN: h.conj().T}
        reports = check_all(h, s, name="s")
        assert list(reports) == list(targets)
        for kind, target in targets.items():
            assert reports[kind].kind == kind
            assert reports[kind].residual == similarity_residual(s, h, target)
            np.testing.assert_array_equal(reports[kind].metric, canonical_normalize(s))

    def test_one_factorization_per_metric(self, monkeypatch):
        calls = []
        getrf = _lapack.getrf

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return getrf(*args, **kwargs)

        monkeypatch.setattr(_lapack, "getrf", counting)
        check_all(h7(0.0, 1.0, 2.0), SIGMA_Y)
        assert calls == [(2, 2)]
        # a permutation metric takes none
        check_all(h5(0.0, 0.6, 1.0), SIGMA_X)
        assert calls == [(2, 2)]

    def test_singular_candidate_warnings_in_kind_order(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        report = classify(h, {"flat": np.ones((3, 3))})
        kinds = (PSEUDO_REAL, PSEUDO_ADJOINT, PSEUDO_HERMITIAN)
        assert report.warnings[:3] == tuple(
            f"metric 'flat' is singular; {kind} check skipped" for kind in kinds)
        for reps in (report.pseudo_real, report.pseudo_adjoint, report.pseudo_hermitian):
            assert reps[0].name == "flat" and reps[0].residual == np.inf and not reps[0].holds
            np.testing.assert_array_equal(reps[0].metric, np.ones((3, 3)))


class TestCanonicalNormalize:
    def test_sigma_y_gauge(self):
        # canonical form of sigma_y is i*sigma_y (first nonzero entry 1)
        np.testing.assert_allclose(
            canonical_normalize(SIGMA_Y), np.array([[0, 1], [-1, 0]]), atol=1e-16)

    def test_numerical_zero_skipped(self):
        m = np.array([[1e-16, 2.0], [0.0, 1.0]], dtype=complex)
        out = canonical_normalize(m)
        assert out[0, 1] == 1.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            canonical_normalize(np.zeros((2, 2)))


class TestComposeEta:
    def test_parity_with_trivial_mu(self):
        # involutory symmetric parity: (P^-1)' = P
        p = default_parity(4)
        np.testing.assert_allclose(compose_eta(p, np.eye(4)), p, atol=1e-15)

    def test_equal_metrics_give_identity(self):
        rng = np.random.default_rng(5)
        m = np.eye(3) + 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        np.testing.assert_allclose(compose_eta(m, m), np.eye(3), atol=1e-13)

    def test_sigma_z_sigma_x_compose_to_sigma_y(self):
        eta = compose_eta(SIGMA_Z, SIGMA_X)
        np.testing.assert_allclose(
            canonical_normalize(eta), canonical_normalize(SIGMA_Y), atol=1e-15)

    def test_certifies_pseudo_hermiticity(self):
        h = h7(0.0, 1.0, 2.0)
        eta = compose_eta(SIGMA_Z, SIGMA_X)  # rho and mu of H7
        assert check_pseudo_hermitian(h, eta).holds


class TestDiagonalizerMetrics:
    def test_identity_diagonalizer(self):
        np.testing.assert_allclose(rho_from_diagonalizer(np.eye(3)), np.eye(3), atol=1e-15)
        np.testing.assert_allclose(mu_from_diagonalizer(np.eye(3)), np.eye(3), atol=1e-15)
        np.testing.assert_allclose(eta_plus_from_diagonalizer(np.eye(3)), np.eye(3), atol=1e-15)

    def test_unitary_diagonalizer(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 5)
        expect = u.conj() @ u.conj().T
        np.testing.assert_allclose(rho_from_diagonalizer(u), expect, atol=1e-13)
        np.testing.assert_allclose(mu_from_diagonalizer(u), expect, atol=1e-13)
        np.testing.assert_allclose(eta_plus_from_diagonalizer(u), np.eye(5), atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_identities(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = rho_from_diagonalizer(d)
        mu = mu_from_diagonalizer(d)
        eta = eta_plus_from_diagonalizer(d)
        assert fro(rho @ rho.conj() - np.eye(6)) <= 1e-11 * np.linalg.cond(d)
        assert np.array_equal(mu, mu.T)
        assert np.array_equal(eta, eta.conj().T)
        assert np.linalg.eigvalsh(eta).min() > 0

    def test_certify_on_random_real_spectrum(self):
        rng = np.random.default_rng(7)
        h = random_real_spectrum(rng, 8)
        d = build_diagonalizer(eigendecompose(h))
        assert check_pseudo_real(h, rho_from_diagonalizer(d)).holds
        assert check_pseudo_adjoint(h, mu_from_diagonalizer(d)).holds
        assert check_pseudo_hermitian(h, eta_plus_from_diagonalizer(d)).holds

    def test_prop5_compose_matches_eta_plus(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            h = random_real_spectrum(rng, 6)
            d = build_diagonalizer(eigendecompose(h))
            composed = compose_eta(rho_from_diagonalizer(d), mu_from_diagonalizer(d))
            eta = eta_plus_from_diagonalizer(d)
            diff = canonical_normalize(composed) - canonical_normalize(eta)
            assert np.abs(diff).max() <= 1e-8

    def test_h8_closed_forms(self):
        from pseudoherm import h8_eta_plus, h8_mu, h8_rho
        a, b, c, d = 0.7, 1.0, 2.0, 1.0
        dg = h8_diagonalizer(a, b, c, d)
        np.testing.assert_allclose(rho_from_diagonalizer(dg), h8_rho(a, b, c, d), atol=1e-12)
        np.testing.assert_allclose(mu_from_diagonalizer(dg), h8_mu(a, b, c, d), atol=1e-12)
        np.testing.assert_allclose(
            eta_plus_from_diagonalizer(dg), h8_eta_plus(a, b, c, d), atol=1e-12)


def reference_residuals(h, similar):
    """``_residuals`` as it was before its buffer, with one temporary per target (reference)."""
    scale = tolerance_scale(fro(h))
    h_conj = h.conj()
    return tuple(fro(similar - target) / scale for target in (h_conj, h.T, h_conj.T))


def buffer_in_order_of_h_residuals(h, similar):
    """A mutant of ``_residuals`` whose buffer takes the memory order of H."""
    scale = tolerance_scale(fro(h))
    diff = np.empty_like(h)
    residuals = []
    for target, conjugate in ((h, True), (h.T, False), (h.T, True)):
        if conjugate:
            target = np.conjugate(target, out=diff)
        np.subtract(similar, target, out=diff)
        residuals.append(fro(diff) / scale)
    return tuple(residuals)


def residual_mismatches(residuals):
    """Memory orders of H on which ``residuals`` differs from the reference."""
    rng = np.random.default_rng(17)
    missed = []
    for n in (1, 2, 3, 8, 17, 40):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s_inv = np.linalg.inv(s)
        for order in "CF":
            h_ordered = np.asarray(h, order=order)
            similar = s @ h_ordered @ s_inv
            if residuals(h_ordered, similar.copy()) != reference_residuals(h_ordered, similar):
                missed.append(order)
    return missed


class TestResiduals:
    def test_buffer_equals_temporaries_bit_for_bit(self):
        assert residual_mismatches(metrics._residuals) == []

    def test_buffer_order_is_checked(self):
        # the comparison above sees a buffer that inherits the order of H
        assert "F" in residual_mismatches(buffer_in_order_of_h_residuals)

    def test_difference_formed_in_similar_equals_temporaries(self):
        # with one target the difference is formed in similar itself, as
        # conj(S H S^-1) - T for a conjugated target; a similar that is not
        # C-ordered is copied first, and kept
        rng = np.random.default_rng(18)
        for n in (1, 3, 17, 40):
            for order in "CF":
                h = np.asarray(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                               order=order)
                similar = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                reference = reference_residuals(h, similar)
                for kind, expected in zip(metrics.KINDS, reference):
                    assert metrics._residuals(h, similar.copy(), (kind,)) == (expected,)
                    if n > 1:  # a 1 x 1 array is C-ordered whatever its order
                        transposed = np.asfortranarray(similar)
                        assert metrics._residuals(h, transposed, (kind,)) == (expected,)
                        np.testing.assert_array_equal(transposed, similar)

    @pytest.mark.parametrize("order", "CF")
    def test_pt_residual_equals_similarity_residual(self, order):
        rng = np.random.default_rng(21)
        for n in (2, 5, 17, 40):
            h = np.asarray(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), order=order)
            parities = (default_parity(n), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            for parity in parities:
                pt = classify(h, parity=parity).pt_symmetric
                assert pt[1] == similarity_residual(parity, h, h.conj())

    @pytest.mark.parametrize("order", "CF")
    def test_hermitian_and_self_adjoint_residuals_equal_direct_formulas(self, order):
        rng = np.random.default_rng(22)
        for n in (1, 2, 5, 17, 40):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for h in (a, a + a.T, a + a.conj().T):
                h = np.asarray(h, order=order)
                report = classify(h)
                scale = tolerance_scale(fro(h))
                assert report.hermitian[1] == fro(h - h.conj().T) / scale
                assert report.self_adjoint[1] == fro(h - h.T) / scale


@st.composite
def covariance_systems(draw):
    """H = S diag(lam) S^-1 with real lam, and the T it is transformed by.

    S and T are the identity plus a random complex matrix of 2-norm at most
    1/2, so both have condition number at most 3.
    """
    n = draw(st.integers(2, 6))
    lam = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def near_identity():
        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return np.eye(n) + rng.uniform(0.0, 0.5) * e / np.linalg.norm(e, 2)

    s, t = near_identity(), near_identity()
    return s @ np.diag(lam) @ np.linalg.inv(s), s, t


class TestSimilarityCovariance:
    @settings(max_examples=100, deadline=None)
    @given(covariance_systems())
    def test_transformed_metrics_certify_transformed_h(self, system):
        h, s, t = system
        t_inv = np.linalg.inv(t)
        # each kind's metric of H, mapped to the one of T H T^-1
        transforms = {
            PSEUDO_REAL: lambda m: t.conj() @ m @ t_inv,
            PSEUDO_ADJOINT: lambda m: t_inv.T @ m @ t_inv,
            PSEUDO_HERMITIAN: lambda m: t_inv.conj().T @ m @ t_inv,
        }
        metrics_of_h = {
            PSEUDO_REAL: rho_from_diagonalizer(s),
            PSEUDO_ADJOINT: mu_from_diagonalizer(s),
            PSEUDO_HERMITIAN: eta_plus_from_diagonalizer(s),
        }
        h_t = t @ h @ t_inv
        for kind, metric in metrics_of_h.items():
            assert check_all(h, metric)[kind].holds
            assert check_all(h_t, transforms[kind](metric))[kind].holds


def reference_colinearity(rho_inv, psi, tol, eigen_index, metric_name):
    """The per-vector reality check as it was before batching (reference)."""
    w = rho_inv @ psi.conj()
    eps = complex((psi.conj() @ w) / (psi.conj() @ psi))
    residual = float(np.linalg.norm(w - eps * psi) / np.linalg.norm(w))
    return RealityCheck(
        eigen_index=eigen_index,
        metric_name=metric_name,
        epsilon=eps,
        colinearity_residual=residual,
        holds=bool(residual <= tol.metric_tol),
    )


def reference_reality_checks(report, tol):
    """The reality loop of classify as it was before batching (reference)."""
    holding_rhos = [(rep, inverse(rep.metric)[0]) for rep in report.pseudo_real if rep.holds]
    vectors = report.spectrum.eigenvectors
    return [reference_colinearity(rho_inv, vectors[:, k], tol, k, rep.name)
            for k in range(len(report.spectrum)) for rep, rho_inv in holding_rhos]


@st.composite
def pseudo_real_systems(draw):
    """H = S diag(lam) S^-1 with real and conjugate-pair lam, and a rho certifying it.

    With P the permutation swapping the members of each pair,
    rho = conj(S) P S^-1 satisfies rho H rho^-1 = conj(H); it is returned
    times a random complex factor, so its canonical pivot is not 1.
    """
    n_real = draw(st.integers(1, 5))
    n_pairs = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = n_real + 2 * n_pairs
    centers = rng.permutation(np.arange(-8, 9))[:n_real + n_pairs] * 0.5
    lam = list(centers[:n_real] + rng.uniform(-0.1, 0.1, n_real))
    swap = list(range(n_real))
    for a in centers[n_real:]:
        b = rng.uniform(0.5, 2.0)
        swap += [len(lam) + 1, len(lam)]
        lam += [a + 1j * b, a - 1j * b]
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = np.eye(n) + (0.3 / np.sqrt(2.0 * n)) * noise
    s_inv = np.linalg.inv(s)
    h = s @ np.diag(lam) @ s_inv
    rho = s.conj() @ np.eye(n)[swap] @ s_inv
    factor = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return h, factor * rho


@st.composite
def conditioned_diagonalizers(draw):
    """A random complex D = U diag(sigma) V with condition number at most 1e4."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.logspace(0.0, -draw(st.floats(0.0, 4.0)), n)
    return (random_unitary(rng, n) * sigma) @ random_unitary(rng, n)


def reference_pairs(d, d_inv):
    """``(metric, inverse)`` of each diagonalizer metric by the expressions the pair
    builders used before each split in two (reference): the sums into new arrays."""
    t = metrics._t
    rho = (d.conj() @ d_inv, d @ d_inv.conj())
    mu = tuple((m + t(m)) / 2.0 for m in (t(d_inv) @ d_inv, d @ t(d)))
    eta = tuple((m + t(m.conj())) / 2.0 for m in (t(d_inv.conj()) @ d_inv, d @ t(d.conj())))
    return rho, mu, eta


@st.composite
def diagonalizer_stacks(draw):
    """A stack of 1 to 4 random complex D, n in 1..8, with condition numbers up to 1e12,
    beyond the 1e8 at which a report suppresses the diagonalizer metrics."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([(random_unitary(rng, n) * np.logspace(0.0, -draw(st.floats(0.0, 12.0)), n))
                     @ random_unitary(rng, n) for _ in range(draw(st.integers(1, 4)))])


class TestDiagonalizerPairs:
    @settings(max_examples=200, deadline=None)
    @given(conditioned_diagonalizers())
    def test_builders_return_metric_and_inverse(self, d):
        d_inv, _ = inverse(d)
        cond = np.linalg.cond(d)
        for name, build, build_inverse, _ in metrics.DIAGONALIZER_METRICS:
            metric, metric_inv = build(d, d_inv), build_inverse(d, d_inv)
            assert fro(metric @ metric_inv - np.eye(len(d))) <= 1e-10 * cond, name

    @settings(max_examples=150, deadline=None)
    @given(diagonalizer_stacks())
    def test_split_builders_equal_the_pair_expressions_bit_for_bit(self, stack):
        # one D and the stack of a sweep: the in-place averages give the bits
        # of the sums into new arrays, matrix by matrix
        d_inv = np.linalg.inv(stack)
        for d, inv in [(stack, d_inv), *zip(stack, d_inv)]:
            for (name, build, build_inverse, _), pair in zip(metrics.DIAGONALIZER_METRICS,
                                                            reference_pairs(d, inv)):
                got = build(d, inv), build_inverse(d, inv)
                assert [m.tobytes() for m in got] == [m.tobytes() for m in pair], name

    @settings(max_examples=100, deadline=None)
    @given(pseudo_real_systems())
    def test_verdicts_equal_public_constructors(self, system):
        h, _ = system
        spectrum = eigendecompose(h)
        checked, _, warn = metrics.check_metrics(h, None, spectrum)
        assert warn == [] and len(checked) == 3
        d = build_diagonalizer(spectrum)
        public = (rho_from_diagonalizer, mu_from_diagonalizer, eta_plus_from_diagonalizer)
        for reports, construct in zip(checked, public):
            name = reports[PSEUDO_REAL].name
            want = check_all(h, construct(d), name=name, provenance="from_diagonalizer")
            for kind in metrics.KINDS:
                assert reports[kind].holds == want[kind].holds, (name, kind)
                np.testing.assert_array_equal(reports[kind].metric, want[kind].metric)

    def test_spectrum_inverse_saves_the_diagonalizer_factorization(self, monkeypatch):
        h = random_real_spectrum(np.random.default_rng(3), 6)
        spectrum = eigendecompose(h)
        calls = []
        getrf = _lapack.getrf

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return getrf(*args, **kwargs)

        monkeypatch.setattr(_lapack, "getrf", counting)
        metrics.check_metrics(h, None, spectrum)
        assert calls == []
        # a spectrum without the inverse suppresses the diagonalizer metrics
        checked, _, warn = metrics.check_metrics(
            h, None, dataclasses.replace(spectrum, diagonalizer_inverse=None))
        assert (checked, calls) == ([], [])
        assert warn == ["diagonalizer metrics suppressed: the spectrum carries no inverse of D"]

    def test_near_defective_spectrum_keeps_its_warning(self):
        # eigenvalues 1 +- 1e-9: cond(D) is about 1e9, above 1 / metric_tol, and
        # D is not singular; the spectrum keeps no D^-1, and the warning is
        # still the one build_diagonalizer raises
        h = np.array([[1.0, 1.0], [1e-18, 1.0]])
        report = classify(h)
        cond = report.spectrum.diagonalizer_condition
        assert 1e8 < cond < np.inf
        assert report.spectrum.diagonalizer_inverse is None
        assert report.warnings == ("diagonalizer metrics suppressed: "
                                   f"diagonalizer condition {cond:.3e} exceeds 1.000e+08",)


    def test_spectrum_from_a_looser_tol_carries_no_inverse(self):
        # cond(D) is about 1e9: a spectrum computed at metric_tol 1e-8 drops
        # D^-1, which a stricter 1e-10 would accept
        h = np.array([[1.0, 1.0], [1e-18, 1.0]])
        strict = ToleranceConfig(metric_tol=1e-10)
        own = classify(h, tol=strict)
        assert not own.warnings
        assert [rep.name for rep in own.pseudo_real] == ["from_D_rho", "from_D_mu",
                                                         "from_D_eta_plus"]
        reused = classify(h, tol=strict, spectrum=eigendecompose(h))
        assert reused.pseudo_real == ()
        assert reused.warnings == ("diagonalizer metrics suppressed: "
                                   "the spectrum carries no inverse of D",)


class TestRealityCheck:
    @settings(max_examples=150, deadline=None)
    @given(pseudo_real_systems(), st.sampled_from([1, 2, 3, metrics.REALITY_BLOCK]))
    def test_batched_checks_match_per_vector_loop(self, system, block):
        h, rho = system
        with mock.patch.object(metrics, "REALITY_BLOCK", block):
            report = classify(h, {"rho": rho})
        assert report.pseudo_real[0].holds
        expected = reference_reality_checks(report, DEFAULT_TOL)
        assert len(report.reality_checks) == len(expected) >= len(h)
        for got, want in zip(report.reality_checks, expected):
            assert (got.eigen_index, got.metric_name, got.holds) == (
                want.eigen_index, want.metric_name, want.holds)
            assert abs(got.colinearity_residual - want.colinearity_residual) <= 1e-12
            assert abs(got.epsilon - want.epsilon) <= 1e-12
        tags = [tag.kind for tag in report.spectrum.reality]
        assert [c.holds for c in report.reality_checks if c.metric_name == "rho"] == [
            kind == "real" for kind in tags]

    def test_h5_real_eigenvector(self):
        # hand evaluation: sigma_x conj(psi) = (0.8 + 0.6i) psi
        psi = np.array([1.0, 0.8 - 0.6j])
        check = eigenstate_reality_check(SIGMA_X, psi)
        assert check.holds
        np.testing.assert_allclose(check.epsilon, 0.8 + 0.6j, atol=1e-15)
        assert abs(abs(check.epsilon) - 1.0) <= 1e-15

    def test_real_vector_identity_metric(self):
        check = eigenstate_reality_check(np.eye(3), np.array([1.0, 2.0, -0.5]))
        assert check.holds
        np.testing.assert_allclose(check.epsilon, 1.0, atol=1e-16)

    def test_broken_phase_fails(self):
        # eigenvector of +0.75i: the conjugated partner is not colinear
        spec = eigendecompose(h5(0.0, 1.25, 1.0))
        psi = spec.eigenvectors[:, 1]
        assert abs(spec.eigenvalues[1] - 0.75j) < 1e-12
        check = eigenstate_reality_check(SIGMA_X, psi)
        assert not check.holds
        assert check.colinearity_residual > 0.01

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            eigenstate_reality_check(SIGMA_X, np.zeros(2))

    @pytest.mark.parametrize("family,rho", [
        ("h5", SIGMA_X), ("h6", SIGMA_Z), ("h7", SIGMA_Z),
    ])
    def test_dichotomy_two_level_families(self, family, rho):
        """Reality of each eigenvalue iff its eigenstate passes the check."""
        builders = {"h5": h5, "h6": h6, "h7": h7}
        build = builders[family]
        for b in (0.0, 0.4, 0.8, 1.3, 1.9):  # c = 1: breaks at b = 1
            h = build(0.1, b, 1.0)
            assert check_pseudo_real(h, rho).residual <= 1e-12
            spec = eigendecompose(h)
            scale = max(1.0, fro(h))
            for k, (value, tag) in enumerate(zip(spec.eigenvalues, spec.reality)):
                is_real = abs(value.imag) <= 1e-8 * scale
                assert (tag.kind == "real") == is_real
                check = eigenstate_reality_check(rho, spec.eigenvectors[:, k])
                assert check.holds == is_real

    def test_dichotomy_h8(self):
        for b in (0.5, 1.5, 2.5, 3.0):  # c=2, d=1: breaks at b = sqrt(5)
            h = h8(0.0, b, 2.0, 1.0)
            spec = eigendecompose(h)
            scale = max(1.0, fro(h))
            for k, value in enumerate(spec.eigenvalues):
                is_real = abs(value.imag) <= 1e-8 * scale
                assert eigenstate_reality_check(SIGMA_X, spec.eigenvectors[:, k]).holds == is_real


class TestClassify:
    def test_h6_example(self):
        h = h6(1.0, 1.0, 2.0)
        report = classify(h, {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y,
                              "sigma_z": SIGMA_Z, "identity": ID2})
        np.testing.assert_allclose(
            report.spectrum.eigenvalues, [1 - np.sqrt(3), 1 + np.sqrt(3)], atol=1e-12)
        holds_real = {r.name for r in report.pseudo_real if r.holds}
        assert "sigma_z" in holds_real
        assert report.self_adjoint[0]
        holds_eta = {r.name for r in report.pseudo_hermitian if r.holds}
        assert "sigma_z" in holds_eta

    def test_hermitian_random(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        report = classify(h)
        assert report.hermitian[0]
        eta_plus = next(r for r in report.pseudo_hermitian if r.name == "from_D_eta_plus")
        assert eta_plus.holds
        np.testing.assert_allclose(eta_plus.metric, np.eye(4), atol=1e-10)

    def test_m3_parity_candidate(self):
        report = classify(m3(), {"parity_osc": np.diag([1.0, -1.0, 1.0])})
        rep = next(r for r in report.pseudo_real if r.name == "parity_osc")
        assert rep.holds and rep.residual == 0.0

    def test_never_aborts_on_failed_checks(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        report = classify(h, {"singular": np.ones((3, 3)), "identity": np.eye(3)})
        assert any("singular" in w for w in report.warnings)
        sing = [r for r in report.pseudo_real if r.name == "singular"]
        assert sing and not sing[0].holds

    @pytest.mark.parametrize("candidates, parity, message", [
        ({"rho": np.eye(3)}, None, "metric 'rho' has shape (3, 3), expected (4, 4)"),
        ({"rho": np.ones((4, 3))}, None, "expected a nonempty square matrix, got shape (4, 3)"),
        ({"identity": np.eye(4)}, np.eye(5), "parity matrix dimension mismatch"),
    ])
    def test_shapes_are_checked_before_the_eigensolve(self, candidates, parity, message):
        h = np.random.default_rng(6).normal(size=(4, 4)).astype(np.complex128)
        with mock.patch.object(_lapack, "eig") as eig, \
                mock.patch.object(metrics, "_residuals") as residuals:
            with pytest.raises(metrics.DimensionMismatch) as raised:
                classify(h, {"first": np.eye(4), **candidates}, parity=parity)
            if parity is None:
                # check_metrics takes in every candidate before its first check
                with pytest.raises(metrics.DimensionMismatch):
                    metrics.check_metrics(h, {"first": np.eye(4), **candidates}, None)
        assert str(raised.value) == message
        eig.assert_not_called()
        residuals.assert_not_called()

    def test_defective_input_suppresses_constructions(self):
        report = classify(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert any("suppressed" in w for w in report.warnings)
        assert not any(r.provenance == "from_diagonalizer" for r in report.pseudo_real)

    def test_pt_flag_uses_reversal(self):
        # reversal parity for n=2 is sigma_x, so H5 is PT-symmetric
        report = classify(h5(0.0, 2.0, 1.0))
        name, residual, holds = report.pt_symmetric
        assert name == "reversal" and holds and residual <= 1e-14

    def test_one_check_pass(self, monkeypatch):
        # the candidates, the diagonalizer metrics and the designated metrics
        # are checked in one loop, the one check_metrics runs
        calls = []
        check_loop = metrics._check_loop

        def counting(*args, **kwargs):
            calls.append(args)
            return check_loop(*args, **kwargs)

        monkeypatch.setattr(metrics, "_check_loop", counting)
        report = classify(h5(0.0, 0.6, 1.0), {"sigma_x": SIGMA_X})
        assert len(calls) == 1
        holding = {r.name for r in report.pseudo_real if r.holds}
        assert {c.metric_name for c in report.reality_checks} == holding

    def test_reality_checks_cover_holding_rhos(self):
        report = classify(h5(0.0, 0.6, 1.0), {"sigma_x": SIGMA_X})
        names = {c.metric_name for c in report.reality_checks}
        assert "sigma_x" in names
        by_index = {(c.eigen_index, c.metric_name): c for c in report.reality_checks}
        assert all(c.holds for c in by_index.values())


def scale_candidates(n):
    cand = {"identity": np.eye(n, dtype=complex), "reversal": default_parity(n)}
    if n == 2:
        cand.update(sigma_x=SIGMA_X, sigma_y=SIGMA_Y, sigma_z=SIGMA_Z)
    return cand


# Two-level families on both sides of the exceptional point (c = 1, and for
# H8 d = 1/2, so it breaks at b = sqrt(5)/2), M3 and two grids
SCALE_INPUTS = (
    [family(0.3, b, 1.0) for family in (h5, h6, h7) for b in (0.6, 0.99, 1.01, 1.5)]
    + [h8(0.3, b, 1.0, 0.5) for b in (0.5, 1.0, 2.0)]
    + [m3()]
    + [build_hamiltonian(pot, GridSpec(-6.0, 6.0, 32)) for pot in (harmonic(), monomial_pt())]
)


def report_verdicts(report, order):
    """Every verdict of ``report``, with eigenvalue ``k`` renamed ``order[k]``."""
    metric_holds = {(r.kind, r.name): r.holds
                    for r in report.pseudo_real + report.pseudo_adjoint + report.pseudo_hermitian}
    tags = {order[k]: (tag.kind, None if tag.partner is None else order[tag.partner])
            for k, tag in enumerate(report.spectrum.reality)}
    checks = {(order[c.eigen_index], c.metric_name): c.holds for c in report.reality_checks}
    return (report.hermitian[0], report.self_adjoint[0], report.pt_symmetric[2],
            metric_holds, tags, checks)


def gram_signatures(report, order):
    """The signature of each Gram a report shows, with eigenvalue ``k`` renamed ``order[k]``.

    The PT Gram is left out where PT does not hold: its signature is then
    no verdict.
    """
    states = report.spectrum.eigenvectors
    eigenvalues = report.spectrum.eigenvalues
    grams = {"hermitian": hermitian_gram(states),
             "transpose": transpose_gram(states, eigenvalues)}
    grams.update((f"eta {rep.name}", eta_gram(states, rep.metric, eigenvalues))
                 for rep in report.pseudo_hermitian if rep.holds)
    if report.pt_symmetric[2]:
        grams["pt"] = pt_gram(states, default_parity(states.shape[0]), eigenvalues)
    return {kind: {order[k]: sign for k, sign in enumerate(gram.signature)}
            for kind, gram in grams.items()}


def report_numbers(report):
    """The bits of every residual, reality-check number and eigenvalue residual of ``report``."""
    reps = report.pseudo_real + report.pseudo_adjoint + report.pseudo_hermitian
    numbers = [report.hermitian[1], report.self_adjoint[1], report.pt_symmetric[1],
               *(rep.residual for rep in reps), *report.spectrum.residuals.tolist()]
    for check in report.reality_checks:
        numbers += [check.epsilon.real, check.epsilon.imag, check.colinearity_residual]
    return [float(x).hex() for x in numbers]


class TestScaleInvariance:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.sampled_from([(h, {}) for h in SCALE_INPUTS]),
                     pseudo_real_systems().map(lambda system: (system[0], {"rho": system[1]}))),
           st.integers(-1000, 1000), st.sampled_from([1.0, -1.0]))
    @example((h5(0.0, 1.5, 1.0), {}), -29, 1.0)
    @example((h5(0.0, 1.5, 1.0), {}), -540, 1.0)
    @example((h5(0.0, 0.6, 1.0), {}), -1000, 1.0)
    @example((h5(0.0, 0.6, 1.0), {}), 1000, 1.0)
    @example((m3(), {}), 999, -1.0)
    @example((m3(), {}), -999, 1.0)
    def test_verdicts_do_not_depend_on_scale_of_h(self, system, k, sign):
        # c H is exact for c = +-2^k, so any change of verdict is a defect
        h, candidates = system
        c = sign * 2.0**k
        candidates = {**scale_candidates(len(h)), **candidates}
        base = classify(h, candidates)
        scaled = classify(c * h, candidates)
        w = base.spectrum.eigenvalues
        # a negative c reorders the eigenvalues: match each to c times H's
        order = [int(np.argmin(np.abs(c * w - x))) for x in scaled.spectrum.eigenvalues]
        assert sorted(order) == list(range(len(w)))
        assert report_verdicts(scaled, order) == report_verdicts(base, range(len(w)))
        assert gram_signatures(scaled, order) == gram_signatures(base, range(len(w)))
        if c > 0 and k % 2 == 0 and np.array_equal(c * h / c, h):
            # H and 4^(k/2) H are taken in as one matrix, up to a power of
            # four that zgeev carries exactly: the same bits, and eigenvalues
            # scaled back exactly
            assert report_numbers(scaled) == report_numbers(base)
            np.testing.assert_array_equal(scaled.spectrum.eigenvalues, c * w)


class TestSymmetryGenerator:
    def test_equal_metrics_identity(self):
        gen, res = symmetry_generator(SIGMA_Y, SIGMA_Y, h7(0.0, 1.0, 2.0))
        np.testing.assert_allclose(gen, np.eye(2), atol=1e-15)
        assert res <= 1e-15

    def test_h5_two_metrics_commute(self):
        h = h5(0.0, 0.6, 1.0)
        d = build_diagonalizer(eigendecompose(h))
        eta_plus = eta_plus_from_diagonalizer(d)
        gen, res = symmetry_generator(SIGMA_X, eta_plus, h)
        assert res <= 1e-8

    def test_noncommuting_pair_detected(self):
        h = h5(0.0, 0.6, 1.0)
        gen, res = symmetry_generator(SIGMA_Z, ID2, h)
        assert res > 0.1

    def test_residual_is_the_same_at_every_power_of_two(self):
        # [diag(1, 2), sigma_x] is nonzero: the residual is sqrt(2) / (sqrt(5) sqrt(2))
        h = np.diag([1.0, 2.0]).astype(np.complex128)
        _, want = symmetry_generator(SIGMA_X, ID2, h)
        assert abs(want - 1.0 / math.sqrt(5.0)) <= 1e-15
        # an overflow RuntimeWarning fails the test (pyproject's filterwarnings)
        for k in range(-1000, 1001):
            for gen_scale, h_scale in ((k, k), (k, -k)):
                _, res = symmetry_generator(math.ldexp(1.0, gen_scale) * SIGMA_X, ID2,
                                            math.ldexp(1.0, h_scale) * h)
                assert res == want, (gen_scale, h_scale)


class TestPropositionBounds:
    def test_compose_eta_error_bound(self):
        """Composed metric residual is controlled by the input residuals."""
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_real_spectrum(rng, 5)
            d = build_diagonalizer(eigendecompose(h))
            rho = rho_from_diagonalizer(d)
            mu = mu_from_diagonalizer(d)
            e1 = check_pseudo_real(h, rho).residual
            e2 = check_pseudo_adjoint(h, mu).residual
            _, k_rho = inverse(rho)
            _, k_mu = inverse(mu)
            res = check_pseudo_hermitian(h, compose_eta(rho, mu)).residual
            assert res <= 100.0 * (e1 + e2 + 1e-15) * k_rho * k_mu


def reference_block_colinearity(rho_inv, vectors):
    """``_colinearity`` as it was before its permutation branch, kept verbatim (reference)."""
    count = len(vectors)
    eps = np.empty(count, dtype=np.complex128)
    residual = np.empty(count)
    for start in range(0, count, metrics.REALITY_BLOCK):
        block = slice(start, min(start + metrics.REALITY_BLOCK, count))
        v = np.column_stack(vectors[block])
        v_conj = v.conj()
        w = rho_inv @ v_conj
        e = np.einsum("ij,ij->j", v_conj, w) / np.einsum("ij,ij->j", v_conj, v)
        eps[block] = e
        residual[block] = np.linalg.norm(w - e * v, axis=0) / np.linalg.norm(w, axis=0)
    return eps, residual


def reference_check(h, metric, vectors):
    """``_check`` by LU and products, as it was before its permutation branch (reference)."""
    metric_inv, _ = inverse(metric)
    pivot = metrics._pivot(metric)
    residuals = metrics._residuals(h, metric @ h @ metric_inv)
    return metric / pivot, residuals, reference_block_colinearity(metric_inv * pivot, vectors)


def reference_pt_gram(states, parity, eigenvalues, tol):
    """``pt_gram`` with the product ``P conj(Psi)``, as it was before its gather (reference)."""
    return inner._gram(inner.PT_GRAM, np.column_stack(states), parity,
                       lambda v, p: (p @ v.conj()).T, eigenvalues, True, tol)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.complex128).tobytes()


@st.composite
def permutation_systems(draw):
    """A permutation matrix P (identity, reversal or random; n in 1..70) and an H.

    H is C- or F-ordered and dense, half zeros, or real diagonal (whose
    eigenvectors have exact zeros).  When P is an involution, H is made
    pseudo-real under it half the time, so the reality checks run at the
    default tolerance.
    """
    n = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["identity", "reversal", "random"]))
    p = {"identity": np.arange(n), "reversal": np.arange(n)[::-1].copy(),
         "random": np.array(draw(st.permutations(range(n))), dtype=np.intp)}[kind]
    m = np.zeros((n, n), dtype=np.complex128)
    m[np.arange(n), p] = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    structure = draw(st.sampled_from(["dense", "sparse", "diagonal"]))
    if structure == "diagonal":
        h = np.diag(rng.normal(size=n)).astype(np.complex128)
    else:
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if structure == "sparse":
            h[rng.random((n, n)) < 0.5] = 0.0
        if np.array_equal(p[p], np.arange(n)) and draw(st.booleans()):
            h = h + m @ h.conj() @ m.T
    return m, np.asarray(h, order=draw(st.sampled_from("CF")))


# Every metric holds under it, so the reality checks run on every H
LOOSE_TOL = ToleranceConfig(metric_tol=1e300)


class TestPermutationMetrics:
    """Permutation metrics take index gathers, with the bits of LU and products."""

    @settings(max_examples=120, deadline=None)
    @given(permutation_systems(), st.sampled_from([DEFAULT_TOL, LOOSE_TOL]))
    def test_check_equals_lu_and_products_bit_for_bit(self, system, tol):
        m, h = system
        d = eigendecompose(h).eigenvectors
        vectors = list(d.T)
        with mock.patch.object(_lapack, "getrf") as getrf:
            (reports,), reality, _ = metrics.check_metrics(h, {"P": m}, None, tol, d)
        getrf.assert_not_called()
        canonical, residuals, (eps, residual) = reference_check(h, m, vectors)
        assert [reports[kind].residual for kind in metrics.KINDS] == list(residuals)
        assert [reports[kind].holds for kind in metrics.KINDS] == [
            r <= tol.metric_tol for r in residuals]
        for kind in metrics.KINDS:
            assert reports[kind].metric.tobytes() == canonical.tobytes()
        if reports[PSEUDO_REAL].holds:
            ((name, got_eps, got_residual),) = reality
            assert name == "P"
            assert bits(got_eps) == bits(eps)
            assert got_residual.tobytes() == residual.tobytes()
        else:
            assert reality == []
        public = check_all(h, m, tol, "P")
        assert [public[kind].residual for kind in metrics.KINDS] == list(residuals)

    @settings(max_examples=80, deadline=None)
    @given(permutation_systems(), st.sampled_from([DEFAULT_TOL, LOOSE_TOL]))
    def test_classify_equals_lu_and_products_bit_for_bit(self, system, tol):
        m, h = system
        report = classify(h, {"P": m}, tol, parity=m)
        bare = classify(h, None, tol, parity=m)
        d = report.spectrum.eigenvectors
        vectors = list(d.T)
        _, residuals, (eps, residual) = reference_check(h, m, vectors)
        assert report.pt_symmetric[1] == bare.pt_symmetric[1] == residuals[0]
        checks = [c for c in report.reality_checks if c.metric_name == "P"]
        if report.pseudo_real[0].holds:
            assert [c.eigen_index for c in checks] == list(range(len(h)))
            assert bits([c.epsilon for c in checks]) == bits(eps)
            assert [c.colinearity_residual for c in checks] == list(residual)
        else:
            assert checks == []
        eigenvalues = report.spectrum.eigenvalues
        got = pt_gram(d, m, eigenvalues, tol)
        want = reference_pt_gram(vectors, m, eigenvalues, tol)
        assert got.gram.tobytes() == want.gram.tobytes()
        assert (got.offdiag_max, bits(got.norms), got.signature) == (
            want.offdiag_max, bits(want.norms), want.signature)

    @settings(max_examples=40, deadline=None)
    @given(permutation_systems())
    def test_near_permutations_keep_lu_and_products(self, system):
        perm, h = system
        n = len(h)
        near = {"i P": 1j * perm, "-P": -perm, "2 P": 2.0 * perm}
        if n > 1:
            near["off-pattern 1e-300"] = perm.copy()
            near["off-pattern 1e-300"][0, (int(np.argmax(perm[0].real)) + 1) % n] = 1e-300
        if n >= 16:  # the smallest grid
            grid = GridSpec(-5.0, 5.0, n)
            near["gauge_eta"] = gauge_metric(gauged_hermitian(1.0, 0.5), grid)[1]
        d = eigendecompose(h).eigenvectors
        vectors = list(d.T)
        getrf = _lapack.getrf
        for name, m in near.items():
            with mock.patch.object(_lapack, "getrf", side_effect=getrf) as spy:
                (reports,), ((_, got_eps, got_residual),), _ = metrics.check_metrics(
                    h, {name: m}, None, LOOSE_TOL, d)
            assert spy.call_count == 1, name
            canonical, residuals, (eps, residual) = reference_check(h, m, vectors)
            assert [reports[kind].residual for kind in metrics.KINDS] == list(residuals), name
            assert reports[PSEUDO_REAL].metric.tobytes() == canonical.tobytes(), name
            assert bits(got_eps) == bits(eps), name
            assert got_residual.tobytes() == residual.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(permutation_systems(), st.booleans())
    def test_designated_metrics_take_an_equal_candidates_residuals(self, system, views):
        # H's own relations are those under the identity and PT is pseudo-reality
        # under the parity: candidates equal to them give the verdicts of the
        # designated metrics' own checks bit for bit, and no check of their own
        p, h = system
        n = len(h)
        identity = identity_view(n) if views else np.eye(n, dtype=np.complex128)
        if views:
            p = default_parity(n)
        residuals = metrics._residuals
        with mock.patch.object(metrics, "_residuals", side_effect=residuals) as spy:
            report = classify(h, {"identity": identity, "P": p}, parity=p)
        assert spy.call_count == len(report.pseudo_real)  # one pass per metric reported

        def verdicts(r):
            pairs = (r.hermitian, r.self_adjoint, r.pt_symmetric[:0:-1])
            return [(holds, residual.hex()) for holds, residual in pairs]

        assert verdicts(report) == verdicts(classify(h, None, parity=p))

    def test_pt_gram_keeps_the_product(self):
        # conj(Psi) of H6's eigenvectors has negative zeros; the product with
        # the reversal drops them and a gather would keep them, and the Gram
        # product carries that into a norm that a report writes as 0 or -0
        h = h6(1.0, 1.0, 2.0)
        spectrum = eigendecompose(h)
        d = spectrum.eigenvectors
        vectors = list(d.T)
        got = pt_gram(d, default_parity(2), spectrum.eigenvalues)
        want = reference_pt_gram(vectors, default_parity(2), spectrum.eigenvalues, DEFAULT_TOL)
        assert got.gram.tobytes() == want.gram.tobytes()
        assert bits(got.norms) == bits(want.norms)

    @pytest.mark.parametrize("n", [1, 2, 5, 300])
    def test_views_equal_the_dense_matrices(self, n):
        dense = {default_parity: np.fliplr(np.eye(n, dtype=np.complex128)),
                 identity_view: np.eye(n, dtype=np.complex128)}
        for make, want in dense.items():
            view = make(n)
            assert (view.dtype, view.shape) == (np.complex128, (n, n))
            assert np.ascontiguousarray(view).tobytes() == np.ascontiguousarray(want).tobytes()
            assert permutation_of(view) is not None
            assert view.base.size == 2 * n - 1
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 2.0

    def test_read_only_unit_pivot_metric_is_held_without_a_copy(self):
        h = random_real_spectrum(np.random.default_rng(8), 5)
        for m in (identity_view(5), default_parity(5)):
            reports = check_all(h, m)
            assert all(rep.metric is m for rep in reports.values())
        scaled = check_all(h, 2.0 * np.eye(5))[PSEUDO_REAL].metric
        assert scaled.tobytes() == np.eye(5, dtype=np.complex128).tobytes()

    def test_writable_unit_pivot_metric_is_copied(self):
        h = random_real_spectrum(np.random.default_rng(8), 5)
        m = np.eye(5, dtype=np.complex128)
        reports = check_all(h, m)
        report = classify(h, {"identity": m}, parity=default_parity(5))
        m[0, 0] = 7.0  # the caller reuses its buffer
        eye = np.eye(5, dtype=np.complex128).tobytes()
        assert all(rep.metric.tobytes() == eye for rep in reports.values())
        held = [rep.metric for rep in (*report.pseudo_real, *report.pseudo_adjoint,
                                       *report.pseudo_hermitian) if rep.name == "identity"]
        assert len(held) == 3 and all(metric.tobytes() == eye for metric in held)

    def test_permutation_pivot_takes_no_scan(self, monkeypatch):
        def scan(m):
            raise AssertionError("a permutation's pivot is 1")

        monkeypatch.setattr(metrics, "_pivot", scan)
        h = random_real_spectrum(np.random.default_rng(9), 6)
        for m in (identity_view(6), default_parity(6)):
            residuals, singular, canonical, _, pivot = metrics._check(h, m)
            assert (pivot, singular) == (1.0, False)
            assert canonical is m

    def test_repeated_column_is_singular(self):
        h = np.random.default_rng(5).normal(size=(4, 4)).astype(np.complex128)
        flat = np.eye(4, dtype=np.complex128)[:, [0, 1, 1, 3]]
        with pytest.raises(SingularMatrix):
            check_all(h, flat)
        report = classify(h, {"flat": flat}, parity=flat)
        assert report.pseudo_real[0].residual == np.inf and report.pt_symmetric is None


def gathered_residuals(h, kinds=metrics.KINDS):
    """The identity's residuals from a C-ordered gather copy of H (reference)."""
    p = np.arange(h.shape[-1])
    return metrics._residuals(h, h[..., p[:, None], p], kinds)


class TestIdentityReadsHInPlace:
    """The identity's S H S^-1 is a C-contiguous H itself, with no gather copy:
    H is read in place, never written, and the residuals keep their bits."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from("CF"))
    def test_read_only_h_through_check_all_and_classify(self, n, seed, view, order):
        rng = np.random.default_rng(seed)
        h = np.asarray(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), order=order)
        h.flags.writeable = False
        kept = h.copy(order="K")
        identity = identity_view(n) if view else np.eye(n, dtype=np.complex128)
        # an F-ordered H keeps the C-ordered gather, as fro sums in memory order
        assert (linalg._similarity(identity, h)[0] is h) == (order == "C" or n == 1)
        want = gathered_residuals(h)
        for kinds in [metrics.KINDS, *((kind,) for kind in metrics.KINDS)]:
            similar = linalg._similarity(identity, h)[0]  # a gather is overwritten
            assert metrics._residuals(h, similar, kinds) == gathered_residuals(h, kinds)
        reports = check_all(h, identity)
        assert tuple(reports[kind].residual for kind in metrics.KINDS) == want
        report = classify(h, {"identity": identity})
        assert tuple(r.residual for r in (*report.pseudo_real, *report.pseudo_adjoint,
                                          *report.pseudo_hermitian) if r.name == "identity") == want
        assert (report.self_adjoint[1], report.hermitian[1]) == want[1:]
        assert h.tobytes(order="A") == kept.tobytes(order="A")

    def test_read_only_sweep_stack(self):
        rng = np.random.default_rng(23)
        h = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
        h[1] = h[1] + h[1].conj().T  # one point Hermitian, where the identity holds
        h.flags.writeable = False
        kept = h.copy()
        identity = np.broadcast_to(np.eye(6, dtype=np.complex128), h.shape)
        residuals, singular, canonical, _, pivot = metrics._check(h, identity)
        for got, want in zip(residuals, gathered_residuals(h)):
            assert got.tobytes() == want.tobytes()
        assert not singular.any() and (pivot == 1.0).all()
        # a sweep's candidate holds where it certifies any relation
        holds = np.logical_or.reduce([r <= DEFAULT_TOL.metric_tol for r in residuals])
        assert holds.tolist() == [False, True, False, False, False]
        assert canonical.tobytes() == np.ascontiguousarray(identity).tobytes()
        assert h.tobytes() == kept.tobytes()


@st.composite
def kernel_stacks(draw):
    """``(h, s, kinds, inverse)``: a (points, n, n) stack of H and one of metrics S for
    ``metrics._check`` (1 to 4 points, n in 1..8), the kinds to check, and for a pair
    the stack of S^-1, else ``None``.

    S is dense, with any point replaced by a zero matrix, a matrix with a repeated
    column (singular) or a permutation; or one permutation shared by every point,
    as a writable stack or as a read-only broadcast view; or a pair, dense with any
    point zero, whose inverses are built apart (zero where S is zero).
    """
    points, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def dense(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def permutation():
        m = np.zeros((n, n), dtype=np.complex128)
        m[np.arange(n), draw(st.permutations(range(n)))] = 1.0
        return m

    h = dense(points, n, n)
    kind = draw(st.sampled_from(["dense", "shared permutation", "read-only view", "pair"]))
    if kind == "shared permutation":
        s = np.repeat(permutation()[None], points, axis=0)
    elif kind == "read-only view":
        s = np.broadcast_to(permutation(), (points, n, n))
    else:
        s = dense(points, n, n)
        members = ["invertible", "zero"] + (["repeated column", "permutation"] if kind == "dense"
                                            else [])
        for i in range(points):
            member = draw(st.sampled_from(members))
            if member == "zero":
                s[i] = 0.0
            elif member == "repeated column":
                s[i, :, -1] = s[i, :, 0]
            elif member == "permutation":
                s[i] = permutation()
    inverse = None
    if kind == "pair":
        inverse = np.zeros_like(s)
        live = (s != 0).any(axis=(-2, -1))
        inverse[live] = np.linalg.inv(s[live])
    kinds = draw(st.sampled_from([metrics.KINDS, *((k,) for k in metrics.KINDS),
                                  (PSEUDO_ADJOINT, PSEUDO_HERMITIAN)]))
    return h, s, kinds, inverse


class TestCheckKernel:
    """``metrics._check`` on a stack gives each point what it gives that point alone."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_stacks(), st.booleans())
    def test_stack_equals_each_matrix_alone(self, system, hand_over):
        h, s, kinds, inverse = system
        kept = s.copy()

        def check(h, s, inverse):
            # a pair's S is written to, so it gets a copy, and so does its inverse
            if inverse is None:
                return metrics._check(h, s, kinds)
            handed = []
            outcome = metrics._check(h, s.copy(), kinds, inverse.copy,
                                     handed.append if hand_over else None)
            if hand_over:
                assert outcome[2] is None and len(handed) == 1
                return (*outcome[:2], handed[0], *outcome[3:])
            return outcome

        residuals, singular, canonical, _, pivot = check(h, s, inverse)
        assert s.tobytes() == kept.tobytes()  # a candidate is not written
        assert singular.shape == pivot.shape == (len(h),)
        assert canonical.shape == s.shape
        for i in range(len(h)):
            alone = check(h[i], s[i], None if inverse is None else inverse[i])
            assert [r[i].tobytes() for r in residuals] == [
                np.asarray(r).tobytes() for r in alone[0]], i
            assert (singular[i], pivot[i].tobytes()) == (alone[1], alone[4].tobytes()), i
            assert canonical[i].tobytes() == alone[2].tobytes(), i
            assert all(np.isinf(r[i]) == singular[i] for r in residuals), i
            if singular[i]:
                assert canonical[i].tobytes() == s[i].tobytes(), i  # its own entries
            else:
                assert canonical[i].tobytes() == (s[i] / pivot[i]).tobytes(), i
        zero = ~s.any(axis=(-2, -1))
        assert singular[zero].all()
        if not s.flags.writeable:
            assert canonical is s  # a read-only view with pivot 1 is not copied

    @pytest.mark.parametrize("points", [None, 3])
    def test_singular_candidate_forms_no_product(self, points):
        # S^-1 of a singular S is NaN, so S H S^-1 and its residuals would be
        # thrown away: every residual is inf without them
        rng = np.random.default_rng(11)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        s = np.ones((6, 6), dtype=np.complex128)
        if points is not None:
            h, s = np.stack([h] * points), np.stack([s] + [np.zeros_like(s)] * (points - 1))
        with mock.patch.object(metrics, "_residuals") as residuals:
            got, singular, canonical, _, _ = metrics._check(h, s)
        residuals.assert_not_called()
        assert np.all(singular)
        assert [np.shape(r) for r in got] == [np.shape(singular)] * 3
        assert all(np.isinf(r).all() for r in got)
        assert canonical.tobytes() == s.tobytes()

    def test_partly_singular_stack_keeps_its_products(self):
        rng = np.random.default_rng(12)
        h = np.stack([rng.normal(size=(4, 4)) + 0j] * 2)
        s = np.stack([np.ones((4, 4)), np.diag([1.0, 2.0, 3.0, 4.0])]).astype(np.complex128)
        with mock.patch.object(metrics, "_residuals", wraps=metrics._residuals) as residuals:
            got, singular, _, _, _ = metrics._check(h, s)
        residuals.assert_called_once()
        assert singular.tolist() == [True, False]
        assert all(np.isinf(r[0]) and np.isfinite(r[1]) for r in got)
