"""Core matrix algebra: involutions, inversion, eigendecomposition, residuals."""

import ctypes.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import (
    GridSpec,
    NearDefective,
    RealityTag,
    SingularMatrix,
    ToleranceConfig,
    build_diagonalizer,
    build_hamiltonian,
    eigendecompose,
    gauged_hermitian,
    gauged_oscillator,
    harmonic,
    inverse,
    involutions,
    monomial_pt,
    morse,
    similarity_residual,
)
from pseudoherm.families import SIGMA_X, SIGMA_Y, SIGMA_Z, h5, h8
from pseudoherm import _lapack, linalg
from pseudoherm.linalg import EPS, DimensionMismatch, _reality_tags, fro


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestFro:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0),
           st.sampled_from(["whole", "transpose", "column", "strided", "real"]))
    def test_equals_numpy_norm_or_rescaled_norm(self, n, seed, log_scale, view):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, n) * 10.0 ** log_scale
        m = {"whole": m, "transpose": m.T, "column": m[:, 0], "strided": m[::2, 1::3],
             "real": m.real}[view]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = float(np.linalg.norm(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fro(m)
        if plain < np.inf:
            assert got == plain
        else:
            top = float(np.abs(m).max())
            assert got == top * float(np.linalg.norm(m / top)) < np.inf


class TestInvolutions:
    def test_sigma_y(self):
        conj, trans, dag = involutions(SIGMA_Y)
        np.testing.assert_array_equal(trans, np.array([[0, 1j], [-1j, 0]]))
        np.testing.assert_array_equal(dag, SIGMA_Y)
        np.testing.assert_array_equal(conj, np.array([[0, 1j], [-1j, 0]]))

    def test_real_symmetric_fixed_point(self):
        m = np.array([[1.0, 2.0], [2.0, 5.0]])
        conj, trans, dag = involutions(m)
        for out in (conj, trans, dag):
            np.testing.assert_array_equal(out, m)

    def test_one_by_one(self):
        conj, trans, dag = involutions([[1 + 2j]])
        assert conj[0, 0] == 1 - 2j
        assert trans[0, 0] == 1 + 2j
        assert dag[0, 0] == 1 - 2j

    def test_all_are_involutions(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 5)
        conj, trans, dag = involutions(m)
        np.testing.assert_array_equal(involutions(conj).conjugate, m)
        np.testing.assert_array_equal(involutions(trans).transpose, m)
        np.testing.assert_array_equal(involutions(dag).dagger, m)


class TestInverse:
    def test_identity(self):
        inv, cond = inverse(np.eye(4))
        np.testing.assert_array_equal(inv, np.eye(4))
        assert cond == 1.0

    def test_sigma_x_self_inverse(self):
        inv, _ = inverse(SIGMA_X)
        np.testing.assert_array_equal(inv, SIGMA_X)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrix):
            inverse([[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_singular_at_any_scale(self, scale):
        # at 1e-200 the squares of the entries underflow, and so did the
        # singularity threshold n * eps * ||m||_F
        with pytest.raises(SingularMatrix):
            inverse(scale * np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_regular_at_any_scale(self, scale):
        m = np.array([[2.0, 1.0j], [1.0, 3.0]])
        inv, _ = inverse(scale * m)
        np.testing.assert_allclose(inv * scale, np.linalg.inv(m), rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_contract(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 24)
        inv, cond = inverse(m)
        assert cond >= 1.0
        assert fro(m @ inv - np.eye(24)) <= 24 * EPS * cond


def permutation_matrix(p):
    n = len(p)
    m = np.zeros((n, n), dtype=np.complex128)
    m[np.arange(n), p] = 1.0
    return m


@st.composite
def permutations(draw, max_n=70):
    """An index array p: the identity, the reversal or a random permutation."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["identity", "reversal", "random"]))
    if kind == "identity":
        return np.arange(n)
    if kind == "reversal":
        return np.arange(n)[::-1].copy()
    return np.array(draw(st.permutations(range(n))), dtype=np.intp)


def not_permutations(p):
    """Matrices near the permutation matrix of ``p`` that must keep the LU path."""
    m = permutation_matrix(p)
    n = len(p)
    off = m.copy()
    off[0, (p[0] + 1) % n] = 1e-300
    conj_one = m.copy()
    conj_one[0, p[0]] = complex(1.0, -0.0)  # LU inverts it with other zero signs
    out = {"i P": 1j * m, "-P": -m, "2 P": 2.0 * m, "conj one": conj_one}
    if n > 1:
        out["off-pattern 1e-300"] = off
    return out


@st.composite
def edited_permutations(draw):
    """A permutation matrix (n = 1-6) with up to three entries set to a zero, a
    one (either sign of its zero imaginary part) or another value."""
    m = permutation_matrix(draw(permutations(max_n=6)))
    n = len(m)
    values = st.sampled_from([0.0, complex(0.0, -0.0), 1.0, complex(1.0, -0.0), 1j, 2.0, 1e-300])
    for _ in range(draw(st.integers(0, 3))):
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(values)
    return m


class TestPermutations:
    @settings(max_examples=150, deadline=None)
    @given(permutations())
    def test_detector_returns_the_index_array(self, p):
        np.testing.assert_array_equal(linalg.permutation_of(permutation_matrix(p)), p)
        for name, m in not_permutations(p).items():
            assert linalg.permutation_of(m) is None, name

    @settings(max_examples=300, deadline=None)
    @given(edited_permutations())
    def test_detector_equals_a_scan_of_all_nonzeros(self, m):
        # the detector as it was, from the positions of all nonzeros (reference)
        n = len(m)
        want = None
        if np.count_nonzero(m) == n:
            rows, cols = np.nonzero(m)
            ones = m[rows, cols]
            if (np.array_equal(rows, np.arange(n)) and (ones == 1.0).all()
                    and not np.signbit(ones.imag).any()
                    and np.array_equal(np.sort(cols), np.arange(n))):
                want = cols
        got = linalg.permutation_of(m)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_detector_rejects_non_permutations(self):
        rejected = [np.zeros((3, 3)), np.ones((2, 2)), np.eye(3)[[0, 0, 1]],
                    np.eye(3)[:, [0, 0, 1]], np.array([[1.0, 1.0], [0.0, 0.0]])]
        for m in rejected:
            assert linalg.permutation_of(np.asarray(m, dtype=np.complex128)) is None

    @settings(max_examples=150, deadline=None)
    @given(permutations(), st.integers(0, 2**32 - 1), st.sampled_from("CF"), st.booleans())
    def test_similarity_residual_equals_lu_and_products(self, p, seed, order, sparse):
        rng = np.random.default_rng(seed)
        n = len(p)
        m = permutation_matrix(p)
        h = random_complex(rng, n)
        if sparse:  # about half the entries exactly 0
            h[rng.random((n, n)) < 0.5] = 0.0
        h = np.asarray(h, order=order)
        targets = (h.conj(), h.T, random_complex(rng, n))
        with mock.patch.object(_lapack, "getrf") as getrf:
            got = [similarity_residual(m, h, t) for t in targets]
        getrf.assert_not_called()
        m_inv = inverse(m)[0]
        scale = linalg.tolerance_scale(fro(h))
        assert got == [fro(m @ h @ m_inv - t) / scale for t in targets]

    @settings(max_examples=60, deadline=None)
    @given(permutations(max_n=20), st.integers(0, 2**32 - 1))
    def test_near_permutations_keep_the_lu_path(self, p, seed):
        rng = np.random.default_rng(seed)
        h = random_complex(rng, len(p))
        getrf = _lapack.getrf
        for name, m in not_permutations(p).items():
            with mock.patch.object(_lapack, "getrf", side_effect=getrf) as spy:
                residual = similarity_residual(m, h, h.conj())
            assert spy.call_count == 1, name
            assert residual == fro(m @ h @ inverse(m)[0] - h.conj()) / fro(h), name

    def test_repeated_column_is_singular(self):
        m = np.eye(4, dtype=np.complex128)[:, [0, 1, 1, 3]]
        with pytest.raises(SingularMatrix):
            inverse(m)
        with pytest.raises(SingularMatrix):
            similarity_residual(m, np.eye(4), np.eye(4))


class TestIntake:
    @pytest.mark.parametrize("top", [0.0, 2.0**-400, 1.5, 2.0**400])
    def test_in_range_is_taken_as_it_is(self, top):
        m = np.array([[0.5, -1.0j], [0.0, 0.25]]) * top
        taken, f = linalg._intake(m)
        assert taken is m and f == 1.0

    @pytest.mark.parametrize("top", [5e-324, 1e-300, 2.0**-401, 1.5 * 2.0**400, 1e308,
                                     np.finfo(np.float64).max])
    def test_out_of_range_is_scaled_by_a_power_of_four(self, top):
        m = np.array([[0.5, -1.0j], [0.0, 0.25]]) * top
        taken, f = linalg._intake(m)
        mantissa, exponent = np.frexp(f)
        assert mantissa == 0.5 and (exponent - 1) % 2 == 0 and 2.0**-1022 <= f <= 2.0**1022
        np.testing.assert_array_equal(taken, m * f)
        assert 0.25 <= np.abs(taken.imag).max() < 1.0 or abs(np.log2(f)) == 1022
        assert linalg._intake(taken)[1] == 1.0  # taken in once

    def test_stack_gets_one_factor_per_matrix(self):
        m = np.array([np.eye(2) * 2.0**500, np.eye(2), np.zeros((2, 2))], dtype=np.complex128)
        taken, f = linalg._intake(m)
        assert f.tolist() == [2.0**-502, 1.0, 1.0]
        assert taken[1].tobytes() == m[1].tobytes() and taken[2].tobytes() == m[2].tobytes()

    def test_scan_takes_no_n_by_n_temporary(self):
        m = np.asfortranarray(random_complex(np.random.default_rng(3), 256))
        tracemalloc.start()
        try:
            linalg._intake(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 256**2 // 4

    def test_eigenvalue_beyond_the_float_range_raises(self):
        with pytest.raises(linalg.ConvergenceFailure, match="beyond the float range"):
            eigendecompose(np.full((2, 2), 1e308))


class TestEigendecompose:
    def test_sigma_z(self):
        spec = eigendecompose(SIGMA_Z)
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        assert all(tag.kind == "real" for tag in spec.reality)

    def test_h5_real_phase(self):
        # a +- sqrt(c^2 - b^2) with a=0, b=0.6, c=1
        spec = eigendecompose(h5(0.0, 0.6, 1.0))
        np.testing.assert_allclose(spec.eigenvalues, [-0.8, 0.8], atol=1e-14)
        assert [t.kind for t in spec.reality] == ["real", "real"]

    def test_h5_broken_phase_conjugate_pair(self):
        # lambda^2 = c^2 - b^2 = -0.5625 -> +-0.75i
        spec = eigendecompose(h5(0.0, 1.25, 1.0))
        np.testing.assert_allclose(spec.eigenvalues, [-0.75j, 0.75j], atol=1e-14)
        assert spec.reality[0].kind == "conjugate_pair"
        assert spec.reality[1].kind == "conjugate_pair"
        # mutual pairing
        assert spec.reality[0].partner == 1
        assert spec.reality[1].partner == 0

    def test_ordering_and_phase_convention(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 12)
        spec = eigendecompose(m)
        ev = spec.eigenvalues
        keys = [(v.real, v.imag) for v in ev]
        assert keys == sorted(keys)
        for k in range(len(spec)):
            vec = spec.eigenvectors[:, k]
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-14
            pivot = vec[int(np.argmax(np.abs(vec)))]
            assert pivot.imag == 0.0 and pivot.real > 0.0

    @pytest.mark.parametrize("seed", [5, 6])
    def test_residuals_within_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        spec = eigendecompose(random_complex(rng, 32))
        tol = ToleranceConfig()
        assert all(res <= tol.residual_tol for res in spec.residuals)
        assert not spec.flags

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(42)
        m = random_complex(rng, 16)
        a = eigendecompose(m)
        b = eigendecompose(m)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
        assert a.reality == b.reality

    def test_eigenvectors_are_the_stored_read_only_matrix(self):
        spec = eigendecompose(random_complex(np.random.default_rng(3), 5))
        v = spec.eigenvectors
        assert v is spec.eigenvectors is build_diagonalizer(spec)
        assert len(spec) == len(spec.eigenvalues) == len(spec.residuals) == v.shape[1]
        for stored in (v, spec.eigenvalues, spec.residuals):
            assert not stored.flags.writeable
            assert not stored[..., 0].flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 0.0

    def test_zero_matrix_residuals_are_zero(self):
        spec = eigendecompose(np.zeros((2, 2)))
        assert spec.residuals.tolist() == [0.0, 0.0]
        assert not spec.flags

    @pytest.mark.parametrize("exponent", [500, -500])
    def test_eigenvalues_outside_lapack_scaling_range(self, exponent):
        # zgeev alone returns these eigenvalues scaled down, with large residuals
        m = random_complex(np.random.default_rng(8), 3)
        factor = 2.0 ** exponent
        base = eigendecompose(m)
        spec = eigendecompose(m * factor)
        np.testing.assert_allclose(spec.eigenvalues / factor, base.eigenvalues, rtol=1e-12)
        assert not spec.flags

    @pytest.mark.parametrize("metric_tol", [1e-8, 1e-10])
    def test_inverse_kept_only_for_an_accepted_diagonalizer(self, metric_tol):
        tol = ToleranceConfig(metric_tol=metric_tol)
        cases = {  # name: (H, whether D^-1 is kept)
            "random": (random_complex(np.random.default_rng(4), 6), True),
            # eigenvalues 1 +- 1e-9: cond(D) is about 1e9, not singular
            "near-defective": (np.array([[1.0, 1.0], [1e-18, 1.0]]), metric_tol < 1e-9),
            "jordan": (np.array([[0.0, 1.0], [0.0, 0.0]]), False),  # D is singular
            "zero": (np.zeros((3, 3)), True),
        }
        for name, (h, kept) in cases.items():
            spec = eigendecompose(h, tol)
            inverses = linalg._inverses(spec.eigenvectors)
            try:
                build_diagonalizer(spec, tol)
                accepted = not inverses.singular
            except NearDefective:
                accepted = False
            assert (spec.diagonalizer_inverse is not None) == accepted == kept, name
            if kept:
                assert spec.diagonalizer_inverse.tobytes() == inverses.inverse.tobytes(), name

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError, MemoryError])
    def test_only_lapack_errors_are_convergence_failures(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error("from the solver")

        monkeypatch.setattr(_lapack, "eig", failing)
        expected = linalg.ConvergenceFailure if error is np.linalg.LinAlgError else error
        with pytest.raises(expected, match="from the solver") as info:
            eigendecompose(np.eye(2))
        assert type(info.value) is expected


def reference_eigenpair_residuals(h, spectrum, tol):
    """The per-pair residual loop of eigendecompose before it was blocked (reference)."""
    norm_h = fro(h)
    residuals, flags = [], []
    for k, value in enumerate(spectrum.eigenvalues):
        vec = spectrum.eigenvectors[:, k]
        res = fro(h @ vec - value * vec) / ((norm_h or 1.0) * fro(vec))
        if res > tol.residual_tol:
            flags.append(f"residual_above_tolerance:index={k},residual={res:.3e}")
        residuals.append(res)
    return residuals, flags


class TestEigenpairResiduals:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 140), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 2, 3, linalg.RESIDUAL_BLOCK]))
    def test_blocks_match_per_pair_loop(self, n, seed, block):
        rng = np.random.default_rng(seed)
        h = random_complex(rng, n)
        # the solver's eigenvalues, some moved by 1e-6 to 1e-2 of ||H||_F, so
        # that residuals land on both sides of the tolerance, far from it
        moved = rng.random(n) < 0.3
        shift = moved * 10.0 ** rng.uniform(-6.0, -2.0, n) * np.exp(2j * np.pi * rng.random(n))
        eig = _lapack.eig

        def perturbed_eig(*args, **kwargs):
            w, v = eig(*args, **kwargs)
            return w + shift * np.linalg.norm(h), v

        tol = ToleranceConfig()
        with mock.patch.object(linalg, "RESIDUAL_BLOCK", block), \
                mock.patch.object(_lapack, "eig", perturbed_eig):
            spec = eigendecompose(h, tol)
        residuals, flags = reference_eigenpair_residuals(h, spec, tol)
        assert len(flags) == moved.sum()
        assert spec.flags == tuple(flags)
        for res, want in zip(spec.residuals, residuals):
            assert abs(res - want) <= 1e-15


def near_threshold(rng, n, factor):
    """A matrix whose last LU pivot is about ``factor`` times the singularity threshold."""
    a = random_complex(rng, n)
    p, l, u = scipy.linalg.lu(a)
    u[-1, -1] = factor * n * EPS * fro(a) * np.exp(2j * np.pi * rng.random())
    return p @ l @ u


def exact_rank1(rng, n):
    """A rank-1 matrix of powers of two times units: its LU factorization is exact."""
    u, v = 2.0 ** rng.integers(-3, 4, (2, n)) * rng.choice([1, -1, 1j, -1j], (2, n))
    return np.outer(u, v)


@st.composite
def mixed_stacks(draw):
    """A (k, n, n) stack mixing regular, exactly singular (zero, rank 1) and
    near-threshold slices, some scaled by 2^500 or 2^-500."""
    k, n = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "zero", "rank1", "near"]),
                          min_size=k, max_size=k))
    exponents = draw(st.lists(st.sampled_from([0, 0, 500, -500]), min_size=k, max_size=k))
    slices = []
    for kind, exponent in zip(kinds, exponents):
        if kind == "random":
            m = random_complex(rng, n)
        elif kind == "zero":
            m = np.zeros((n, n), dtype=np.complex128)
        elif kind == "rank1":
            m = exact_rank1(rng, n)
        else:
            m = near_threshold(rng, n, rng.choice([0.25, 1.0, 4.0]))
        slices.append(m * 2.0**exponent)
    return np.array(slices)


def assert_same_bytes(stacked, single, name):
    assert stacked.tobytes() == single.tobytes(), name


class TestStacks:
    """A stack of matrices takes numpy's eig and inv and a loop of zgetrf, one
    matrix zgeev, zgetrf and zgetrs through ``pseudoherm._lapack``; each
    matrix gets the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_stacks())
    def test_stack_path_equals_one_matrix_path(self, h):
        # each path takes the intake as an analysis does: a stack at once
        inverses = linalg._inverses(h)
        spectra = linalg._spectra(linalg._intake(h)[0])
        for i, m in enumerate(h):
            one = linalg._inverses(m)
            for name in one._fields:
                assert_same_bytes(getattr(inverses, name)[i], getattr(one, name), name)
            one = linalg._spectra(linalg._intake(m)[0])
            for name in ("eigenvalues", "residuals", "eigenvectors", "reality_scale"):
                assert_same_bytes(getattr(spectra, name)[i], getattr(one, name), name)
            for name in one.inverses._fields:
                assert_same_bytes(getattr(spectra.inverses, name)[i],
                                  getattr(one.inverses, name), f"D^-1 {name}")

    @pytest.mark.parametrize("singular", [[0, 1, 2, 3], [1, 3]])
    def test_singular_slices(self, singular):
        rng = np.random.default_rng(5)
        m = np.array([random_complex(rng, 3) for _ in range(4)])
        m[singular[0]] = 0.0
        for i in singular[1:]:
            m[i] = exact_rank1(rng, 3)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(m)
        got = linalg._inverses(m)
        regular = np.setdiff1d(np.arange(4), singular)
        np.testing.assert_array_equal(got.singular, np.isin(np.arange(4), singular))
        assert np.isnan(got.inverse[singular]).all()
        assert (got.condition[singular] == np.inf).all()
        assert np.isfinite(got.inverse[regular]).all()
        assert np.isfinite(got.condition[regular]).all()
        for i in regular:
            assert_same_bytes(got.inverse[i], inverse(m[i])[0], "inverse")


SRC = Path(linalg.__file__).resolve().parents[1]


def run_child(code: str, *argv: str, **env: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports pseudoherm from this
    checkout, with the environment variables ``env`` set; return the JSON
    object it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# The bits of single matrices and of a stack through _spectra and _inverses,
# in a fresh interpreter that may import scipy.linalg before or after
# pseudoherm, or make _lapack's load by path fail.
SPECTRA_CHILD = """
import hashlib, importlib.util, json, sys
import numpy as np
if sys.argv[1] == "fallback":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, package=None: (
        None if name == "scipy" else find_spec(name, package))
if sys.argv[1] == "before":
    import scipy.linalg
from pseudoherm import _lapack, linalg
if sys.argv[1] == "after":
    import scipy.linalg
rng = np.random.default_rng(11)
digest = hashlib.sha256()
for shape in [(1, 1), (2, 2), (7, 7), (40, 40), (5, 3, 3)]:
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (*linalg._spectra(h)[:3], *linalg._inverses(h)):
        digest.update(np.ascontiguousarray(part).tobytes())
scipy_linalg = sys.modules.get("scipy.linalg")
shared = scipy_linalg is not None and scipy_linalg._flapack.zgeev is _lapack.flapack.zgeev
print(json.dumps({"digest": digest.hexdigest(), "route": _lapack.LOADED_BY,
                  "scipy.linalg": scipy_linalg is not None, "shared": shared}))
"""

CLI_CHILD = """
import json, os, sys
import numpy as np
import pseudoherm.cli as cli
from pseudoherm import save_matrix
out = sys.argv[1]
save_matrix(os.path.join(out, "m.json"), np.random.default_rng(2).normal(size=(4, 4)) + 0j)
codes = [cli.main(["analyze", "--matrix", os.path.join(out, "m.json"),
                   "--json", os.path.join(out, "analyze.json")]),
         cli.main(["sweep", "H5", "b", "a=0", "c=1", "--from", "0", "--to", "2",
                   "--step", "0.5", "--json", os.path.join(out, "sweep.json")])]
print(json.dumps({"codes": codes, "scipy.linalg": "scipy.linalg" in sys.modules}))
"""


def tridiagonal(rng, n, dtype):
    """A symmetric tridiagonal matrix, C-ordered complex128, with a complex
    (``dtype=complex``) or real (``float``) diagonal and real off-diagonals."""
    diagonal = rng.normal(size=n) + (1j * rng.normal(size=n) if dtype is complex else 0.0)
    off = rng.normal(size=n - 1)
    return (np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)).astype(np.complex128)


def eig_with_route(a):
    """``(w, vr, routed)``: ``_lapack.eig(a)`` and whether it took the Hessenberg route."""
    routes = []
    hessenberg_eig = _lapack._hessenberg_eig

    def recording(*args):
        result = hessenberg_eig(*args)
        routes.append(result is not None)
        return result

    with mock.patch.object(_lapack, "_hessenberg_eig", recording):
        w, vr = _lapack.eig(a)
    return w, vr, routes == [True]


def takes_hessenberg_route(a):
    """The rule of ``_lapack._hessenberg_eig``, stated with dense numpy and scipy calls."""
    if not a.flags.c_contiguous:
        return False
    parts = a.view(np.float64)
    if (np.tril(a, -2) != 0).any() or (np.diagonal(a, -1).imag != 0).any():
        return False
    if np.signbit(parts[parts == 0]).any():  # a -0.0 anywhere
        return False
    top = np.abs(parts).max()
    if not (2.0**-459 <= top and 2.0 * top <= 2.0**459):
        return False
    _, lo, hi, scale, _ = scipy.linalg.lapack.zgebal(a, permute=1, scale=1)
    return lo == 0 and hi == len(a) - 1 and (scale == 1.0).all()


def assert_same_arrays(got, want, names):
    for name, x, y in zip(names, got, want):
        assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides), name
        assert x.tobytes() == y.tobytes(), name


# The five discretize families at n = 256; all but the gauged Hermitian one,
# whose subdiagonal is complex, take the Hessenberg route.
FAMILY_GRIDS = {
    "harmonic": (harmonic(), GridSpec(-10.0, 10.0, 256)),
    "gauged_oscillator": (gauged_oscillator(), GridSpec(-10.0, 10.0, 256)),
    "gauged_hermitian": (gauged_hermitian(), GridSpec(-10.0, 10.0, 256)),
    "morse": (morse(shift=0.5), GridSpec(-4.0, 14.0, 256, mass=0.5)),
    "monomial_pt": (monomial_pt(), GridSpec(-5.0, 5.0, 256)),
}


@st.composite
def hessenberg_matrices(draw):
    """Upper Hessenberg matrices with a real subdiagonal, n = 1...40: symmetric
    tridiagonal ones or ones with small entries above the band, real or complex,
    scaled by 2^k, with exact +-0.0 entries, zero subdiagonal entries and
    unbalanced magnitudes on request."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = tridiagonal(rng, n, draw(st.sampled_from([float, complex])))
    if draw(st.booleans()):
        a += np.triu(random_complex(rng, n), 2) * 2.0**-10
    if draw(st.booleans()):
        zero = rng.random((n, n)) < 0.2
        a.real[zero & np.triu(np.ones((n, n), bool), -1)] = draw(st.sampled_from([0.0, -0.0]))
        a.imag[rng.random((n, n)) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
        a[np.tril_indices(n, -2)] = 0.0
        a.imag[np.arange(1, n), np.arange(n - 1)] = 0.0
    if draw(st.booleans()):
        rows = np.flatnonzero(rng.random(n - 1) < 0.3) + 1
        a[rows, rows - 1] = 0.0
    if draw(st.booleans()):
        d = 2.0 ** rng.integers(-20, 21, size=n)
        a = a * d[:, None] / d[None, :]
    return np.ascontiguousarray(a * 2.0 ** draw(st.integers(-480, 480)))


class TestLapack:
    """``pseudoherm._lapack`` calls scipy's private ``_flapack`` with the bits of
    scipy's public functions, without loading ``scipy.linalg``."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_calls_equal_scipy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        inputs = [random_complex(rng, n), np.asfortranarray(random_complex(rng, n))]
        # Hessenberg inputs: a real-symmetric tridiagonal one takes the route
        # as it is, and refused with its zeros' signs flipped by a negation
        hessenberg = [tridiagonal(rng, n, complex), tridiagonal(rng, n, float)]
        assert all(takes_hessenberg_route(a) for a in hessenberg)
        inputs += [*hessenberg, -hessenberg[1]]
        for a in inputs:
            lu, piv = _lapack.getrf(a)
            want_lu, want_piv = scipy.linalg.lu_factor(a, check_finite=False)
            b = random_complex(rng, n)
            # getrs consumes a Fortran-contiguous b (any 1 x 1 one); lu_solve needs it after
            w, vr, routed = eig_with_route(a)
            got = (w, vr, lu, piv, _lapack.getrs(lu, piv, b.copy()))
            want = (*scipy.linalg.eig(a, check_finite=False), want_lu, want_piv,
                    scipy.linalg.lu_solve((want_lu, want_piv), b, check_finite=False))
            assert_same_arrays(got, want, ("w", "vr", "lu", "piv", "x"))
            assert routed == takes_hessenberg_route(a)

    @pytest.mark.parametrize("family", sorted(FAMILY_GRIDS))
    def test_grid_hamiltonians_equal_scipy_bit_for_bit(self, family):
        h = build_hamiltonian(*FAMILY_GRIDS[family])
        w, vr, routed = eig_with_route(h)
        assert_same_arrays((w, vr), scipy.linalg.eig(h, check_finite=False), ("w", "vr"))
        assert routed == (family != "gauged_hermitian")

    @settings(max_examples=300, deadline=None)
    @given(hessenberg_matrices())
    def test_hessenberg_route_equals_scipy_bit_for_bit(self, a):
        w, vr, routed = eig_with_route(a)
        assert_same_arrays((w, vr), scipy.linalg.eig(a, check_finite=False), ("w", "vr"))
        assert routed == takes_hessenberg_route(a)

    def test_hessenberg_route_symbols_are_bound(self):
        # scipy's OpenBLAS exports zhseqr, ztrevc3, zgebak and the BLAS of
        # zgeev's normalization; without them every matrix takes zgeev
        assert _lapack.HESSENBERG is not None
        assert _lapack.bind(ctypes.util.find_library("m")) is None  # no such symbols
        assert _lapack.bind(scipy.__file__) is None  # no library

    @pytest.mark.parametrize("n", [2, 7, 64, 300])
    def test_getrs_in_place_equals_a_fresh_identity(self, n):
        a = random_complex(np.random.default_rng(n), n)
        lu, piv = _lapack.getrf(a)
        want = _lapack.getrs(lu, piv, np.eye(n, dtype=np.complex128))  # C order: copied
        b = np.eye(n, dtype=np.complex128, order="F")
        got = _lapack.getrs(lu, piv, b)
        assert got is b
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
        # _inverses solves in place, with the same bits
        assert linalg._inverses(a).inverse.tobytes() == want.tobytes()

    def test_stack_is_factored_matrix_by_matrix(self):
        a = random_complex(np.random.default_rng(3), 4) * np.arange(1, 7)[:, None, None]
        a = a.reshape(2, 3, 4, 4)
        lu, piv = _lapack.getrf(a)
        for i in np.ndindex(a.shape[:-2]):
            one_lu, one_piv = _lapack.getrf(a[i])
            assert lu[i].tobytes() == np.ascontiguousarray(one_lu).tobytes()
            assert piv[i].tobytes() == one_piv.tobytes()

    def test_no_convergence_raises_linalg_error(self, monkeypatch):
        class NotConverging:
            zgeev_lwork = _lapack.flapack.zgeev_lwork

            @staticmethod
            def zgeev(a, **kwargs):
                return np.zeros(len(a), complex), None, np.zeros_like(a), 2

        monkeypatch.setattr(_lapack, "flapack", NotConverging)
        # zgeev's own failure: every matrix, the identity too, takes zgeev
        monkeypatch.setattr(_lapack, "HESSENBERG", None)
        with pytest.raises(np.linalg.LinAlgError, match="order >= 2"):
            _lapack.eig(np.eye(3, dtype=complex))
        with pytest.raises(linalg.ConvergenceFailure):
            eigendecompose(np.eye(3))

    def test_load_by_path_fails_without_the_extension(self, tmp_path):
        with pytest.raises(ImportError):
            _lapack.load_by_path(str(tmp_path))

    def test_cli_commands_never_load_scipy_linalg(self, tmp_path):
        assert run_child(CLI_CHILD, str(tmp_path)) == {"codes": [0, 0], "scipy.linalg": False}

    def test_same_bits_by_every_route(self):
        got = {when: run_child(SPECTRA_CHILD, when)
               for when in ("never", "before", "after", "fallback")}
        # scipy.linalg, wherever it is imported, binds the routines _lapack calls
        assert {when: (child["route"], child["scipy.linalg"], child["shared"])
                for when, child in got.items()} == {
            "never": ("path", False, False),
            "before": ("scipy.linalg", True, True),
            "after": ("path", True, True),
            "fallback": ("fallback", True, True),
        }
        assert len({child["digest"] for child in got.values()}) == 1


def whole_solve(m):
    """``(inverse, condition)`` of one matrix taken in by ``_intake``, by one ``zgetrs``
    call against the whole identity and the 1-norms of the pair (reference)."""
    m = linalg._intake(m)[0]
    lu, piv = _lapack.getrf(m)
    inv = _lapack.getrs(lu, piv, np.eye(len(m), dtype=np.complex128, order="F"))
    return inv, np.maximum(linalg._norm1(m) * linalg._norm1(inv), 1.0)


def morse_diagonalizer(n):
    """D of the shifted Morse grid of the grid-complex benchmark, near-defective."""
    h = build_hamiltonian(morse(shift=0.5), GridSpec(-4.0, 14.0, n, mass=0.5))
    return eigendecompose(h).eigenvectors


# The block solve against the whole solve, in an interpreter with the given
# number of OpenBLAS threads.
BLOCK_SOLVE_CHILD = """
import json, math, sys
import numpy as np
from unittest import mock
from pseudoherm import _lapack, linalg
same = []
for n in (2, 3, 65, 129, 130):
    a = np.random.default_rng(n).normal(size=(n, n, 2)).view(np.complex128)[..., 0]
    lu, piv = _lapack.getrf(a)
    want = _lapack.getrs(lu, piv, np.eye(n, dtype=np.complex128, order="F"))
    for width in (2, 64):
        with mock.patch.object(linalg, "SOLVE_BLOCK", width):
            got = linalg._solve_identity(lu, piv, 1.0, math.inf)[0]
        same.append(got.tobytes() == want.tobytes())
print(json.dumps({"same": all(same)}))
"""


class TestBlockSolve:
    """One matrix is inverted ``SOLVE_BLOCK`` identity columns per ``zgetrs`` call,
    with the bits of one call against the whole identity, and is not kept whole
    once its condition is known to be above the limit."""

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 300])
    @pytest.mark.parametrize("width", [2, 7, 64, 100, 256])
    def test_blocks_equal_the_whole_solve(self, n, width):
        a = random_complex(np.random.default_rng(n), n)
        want, condition = whole_solve(a)
        lu, piv = _lapack.getrf(a)
        with mock.patch.object(linalg, "SOLVE_BLOCK", width):
            inv, norm = linalg._solve_identity(lu, piv, float(linalg._norm1(a)), math.inf)
            got = linalg._inverses(a)
        assert (inv.dtype, inv.shape, inv.strides) == (want.dtype, want.shape, want.strides)
        assert inv.tobytes() == want.tobytes()
        assert norm == linalg._norm1(want)
        assert got.inverse.tobytes() == want.tobytes()
        assert got.condition.tobytes() == condition.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_trailing_column_joins_the_block_before_it(self, threads):
        # with two OpenBLAS threads, zgetrs solves a lone right-hand side with
        # other bits than several: n = 65 and 129 would leave one in a block
        assert run_child(BLOCK_SOLVE_CHILD, OPENBLAS_NUM_THREADS=threads) == {"same": True}

    @pytest.mark.parametrize("n", [2, 65, 300])
    def test_limit_drops_the_inverse_and_keeps_the_condition(self, n):
        rng = np.random.default_rng(n)
        for a in (random_complex(rng, n), near_threshold(rng, n, 1e6)):
            whole = linalg._inverses(a)
            c = float(whole.condition)
            for limit in (c / 2, np.nextafter(c, 0.0), c, np.nextafter(c, np.inf), 2 * c):
                got = linalg._inverses(a, limit)
                for name in ("condition", "pivot", "threshold"):
                    assert_same_bytes(getattr(got, name), getattr(whole, name), name)
                if c > limit:
                    assert got.inverse is None, limit
                else:
                    assert got.inverse.tobytes() == whole.inverse.tobytes(), limit

    def test_refused_morse_diagonalizer_is_not_held_whole(self):
        n = 256
        d = morse_diagonalizer(n)
        want, condition = whole_solve(d)
        assert condition > 1e8
        lu, piv = _lapack.getrf(d)
        for width in (2, 7, 64, 100, 256):
            with mock.patch.object(linalg, "SOLVE_BLOCK", width):
                inv, _ = linalg._solve_identity(lu, piv, float(linalg._norm1(d)), math.inf)
            assert inv.tobytes() == want.tobytes(), width
        peaks = {}
        for limit in (math.inf, 1e8):
            tracemalloc.start()
            try:
                got = linalg._inverses(d, limit)
                peaks[limit] = tracemalloc.get_traced_memory()[1] / (16 * n * n)
            finally:
                tracemalloc.stop()
            assert got.condition.tobytes() == condition.tobytes()
        assert got.inverse is None
        # the LU factors and the inverse, against the factors and a block of
        # SOLVE_BLOCK columns with its magnitudes (3/8 of an array at n = 256)
        assert peaks[math.inf] > 2.0 and peaks[1e8] < 1.6, peaks
        spectrum = eigendecompose(build_hamiltonian(morse(shift=0.5),
                                                    GridSpec(-4.0, 14.0, n, mass=0.5)))
        assert spectrum.diagonalizer_inverse is None
        assert spectrum.diagonalizer_condition == float(condition)

    def test_limit_leaves_singular_one_by_one_and_stack_paths(self):
        rng = np.random.default_rng(9)
        stack = np.array([random_complex(rng, 3) for _ in range(3)])
        cases = {"singular": exact_rank1(rng, 4), "1 x 1": np.array([[3.0 + 1.0j]]),
                 "stack": stack, "partly singular stack": np.array([*stack, exact_rank1(rng, 3)])}
        for name, m in cases.items():
            want = linalg._inverses(m)
            got = linalg._inverses(m, 1.0)  # below every condition
            for field in want._fields:
                assert_same_bytes(getattr(got, field), getattr(want, field), f"{name} {field}")


def reference_reality_tags(w, tol, scale):
    """The nested greedy pairing loop that ``_reality_tags`` replaces, kept verbatim."""
    tags = [None] * len(w)
    for k in range(len(w)):
        if abs(w[k].imag) <= tol.reality_tol * scale:
            tags[k] = RealityTag("real")
    # Greedy conjugate pairing among the non-real eigenvalues.
    for i in range(len(w)):
        if tags[i] is not None:
            continue
        best_j, best_d = -1, np.inf
        for j in range(len(w)):
            if j == i or tags[j] is not None:
                continue
            d = abs(w[i] - np.conj(w[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= tol.pairing_tol * scale:
            tags[i] = RealityTag("conjugate_pair", partner=best_j)
            tags[best_j] = RealityTag("conjugate_pair", partner=i)
    for k in range(len(w)):
        if tags[k] is None:
            tags[k] = RealityTag("complex")
    return tuple(tags)


# A cluster is a centre (real when its imaginary part is 0) and members at
# the centre or its conjugate, offset by integer multiples of a unit times
# the scale.  A unit of 2**-30 keeps every value and every difference exact,
# so exact pairs, duplicates, ties and leftover unpaired values occur; a
# quarter of the 1e-8 tolerances puts distances on both tolerance boundaries.
UNIT = 2.0 ** -30
_member = st.tuples(st.booleans(), st.integers(-12, 12), st.integers(-12, 12))
_cluster = st.tuples(st.integers(-4, 4), st.integers(0, 4),
                     st.lists(_member, min_size=1, max_size=4))


@st.composite
def eigenvalue_sets(draw):
    scale = draw(st.sampled_from([1.0, 2.0]))
    unit = draw(st.sampled_from([UNIT, 1e-8 / 4])) * scale
    # a pairing tolerance above twice the reality tolerance lets a non-real
    # value lie within reach of its own conjugate
    tol = ToleranceConfig(pairing_tol=draw(st.sampled_from([1e-8, 3e-8])))
    values = []
    for re, im, members in draw(st.lists(_cluster, min_size=1, max_size=6)):
        centre = complex(re, im) / 4.0
        for flip, dre, dim in members:
            offset = complex(dre, dim) * unit
            values.append((centre.conjugate() if flip else centre) + offset)
    values = draw(st.permutations(values))
    return np.array(values, dtype=np.complex128), scale, tol


def _tie(first, second):
    # |first| == |second| under the scalar abs, but the vectorized complex
    # np.abs rounds the two differently, so only the scalar-exact distance
    # keeps the tie going to the lower index
    c = 0.25 + 0.5j
    w = np.array([c, np.conj(c - first * UNIT), np.conj(c - second * UNIT)])
    return w, 1.0, ToleranceConfig()


class TestRealityTags:
    @settings(max_examples=400, deadline=None)
    @given(eigenvalue_sets())
    @example(_tie(-9 - 2j, -7 - 6j))
    @example(_tie(-7 - 6j, -9 - 2j))
    @example((np.array([0.25j, 1e-8 - 0.25j]), 1.0, ToleranceConfig()))  # d == pairing_tol
    def test_matches_nested_loop(self, case):
        w, scale, tol = case
        assert _reality_tags(w, tol, scale) == reference_reality_tags(w, tol, scale)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_nested_loop_on_random_spectra(self, seed):
        rng = np.random.default_rng(seed)
        w = eigendecompose(random_complex(rng, 40)).eigenvalues
        w = np.concatenate([w, w.conj(), w[:5]])
        tol = ToleranceConfig()
        assert _reality_tags(w, tol, 1.0) == reference_reality_tags(w, tol, 1.0)


class TestBuildDiagonalizer:
    def test_sigma_z_permutation(self):
        spec = eigendecompose(SIGMA_Z)
        d = build_diagonalizer(spec)
        # eigenvalue -1 first, so columns are (e2, e1)
        np.testing.assert_array_equal(d, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_h8_diagonalizes(self):
        # e = sqrt(c^2 + d^2 - b^2) = 2 -> eigenvalues a -+ e = (-1, 3)
        h = h8(1.0, 1.0, 2.0, 1.0)
        spec = eigendecompose(h)
        d = build_diagonalizer(spec)
        d_inv, _ = inverse(d)
        np.testing.assert_allclose(d_inv @ h @ d, np.diag([-1.0, 3.0]), atol=1e-8 * fro(h))

    def test_jordan_block_near_defective(self):
        spec = eigendecompose([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NearDefective):
            build_diagonalizer(spec)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(9)
        for n in (4, 16, 64):
            h = random_complex(rng, n)
            spec = eigendecompose(h)
            d = build_diagonalizer(spec)
            d_inv, _ = inverse(d)
            recon = d @ np.diag(spec.eigenvalues) @ d_inv
            assert fro(recon - h) <= 1e-8 * fro(h)


class TestSimilarityResidual:
    def test_identity_zero(self):
        rng = np.random.default_rng(1)
        h = random_complex(rng, 6)
        assert similarity_residual(np.eye(6), h, h) == 0.0

    def test_h5_sigma_x_pseudo_real(self):
        h = h5(0.0, 0.6, 1.0)
        assert similarity_residual(SIGMA_X, h, h.conj()) <= 1e-15

    def test_h5_sigma_z_not_pseudo_real(self):
        h = h5(0.0, 0.6, 1.0)
        # sigma_z flips the off-diagonal signs, which is not conjugation
        assert similarity_residual(SIGMA_Z, h, h.conj()) > 0.1

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        s = np.eye(5) + 0.3 * random_complex(rng, 5)
        h = random_complex(rng, 5)
        t = random_complex(rng, 5)
        base = similarity_residual(s, h, t)
        for c in (2.0, -0.5j, 1.7 - 0.3j):
            assert abs(similarity_residual(c * s, h, t) - base) <= 1e-10 * (1 + base)

    def test_singular_s_propagates(self):
        with pytest.raises(SingularMatrix):
            similarity_residual([[1, 1], [1, 1]], np.eye(2), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity_residual(np.eye(2), np.eye(3), np.eye(3))


class TestAlgebraicProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_transpose_pairing_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 9)
        u = rng.normal(size=9) + 1j * rng.normal(size=9)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        lhs = (m @ u) @ v
        rhs = u @ (m.T @ v)
        bound = 1e-12 * fro(m) * np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(lhs - rhs) <= bound

    @pytest.mark.parametrize("seed", range(4))
    def test_product_involution_rules(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_complex(rng, 7)
        b = random_complex(rng, 7)
        scale = EPS * fro(a) * fro(b) * 7 * 8
        assert fro((a @ b).conj() - a.conj() @ b.conj()) <= scale
        assert fro((a @ b).T - b.T @ a.T) <= scale


# Every float: normal and subnormal, both zeros, the extremes of the range.
any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_arrays(draw):
    shape = draw(st.sampled_from([(1,), (5,), (1, 1), (2, 2), (3, 3), (2, 4)]))
    size = int(np.prod(shape))
    re = np.array(draw(st.lists(any_float, min_size=size, max_size=size)), dtype=float)
    if not draw(st.booleans()):
        return re.reshape(shape)
    m = np.empty(size, dtype=complex)
    m.real = re
    m.imag = draw(st.lists(any_float, min_size=size, max_size=size))
    return m.reshape(shape)


def _nested_lists_text(x) -> str:
    """The writer's format, spelled out: lists as ``[a, b]``, complex as ``[re, im]``."""
    if isinstance(x, list):
        return "[" + ", ".join(map(_nested_lists_text, x)) + "]"
    if isinstance(x, complex):
        return _nested_lists_text([x.real, x.imag])
    return format(x, ".17g")


def reference_matrix_doc(m) -> dict:
    """The per-entry interchange document builder the array writer replaced, kept verbatim."""
    m = linalg.as_matrix(m)
    n = m.shape[0]
    rows = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)] for i in range(n)]
    return {"n": n, "rows": rows}


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(float_arrays())
    @example(np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]))
    @example(np.array([[complex(-0.0, 0.0), complex(5e-324, -0.0)], [1e-310j, -1.0]]))
    def test_array_writes_the_bytes_of_its_lists(self, m):
        assert linalg.to_json_text(m.tolist()) == _nested_lists_text(m.tolist())
        assert linalg.to_json_text(m) == linalg.to_json_text(m.tolist())
        if m.ndim == 2 and m.shape[0] == m.shape[1]:
            doc = {"n": m.shape[0], "rows": m.astype(complex)}
            assert linalg.to_json_text(doc) == linalg.to_json_text(reference_matrix_doc(m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_complex", [False, True])
    def test_non_finite_array_entry_raises(self, bad, as_complex):
        m = np.array([[1.0, 2.0], [3.0, bad]])
        if as_complex:
            m = np.array([[1.0, 2.0], [3.0, complex(1.0, bad)]])
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            linalg.to_json_text({"rows": m})
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            linalg.to_json_text({"rows": m.tolist()})

    def test_template_cache_is_bounded(self):
        linalg._array_template.cache_clear()
        for size in range(1, linalg.TEMPLATE_SHAPES + 4):
            assert linalg.to_json_text(np.full(size, 0.5)) == "[" + ", ".join(["0.5"] * size) + "]"
        info = linalg._array_template.cache_info()
        assert info.maxsize == info.currsize == linalg.TEMPLATE_SHAPES
        assert linalg.to_json_text(np.array([-0.0])) == "[-0]"  # an evicted shape, built again

        linalg._array_template.cache_clear()
        big = np.arange(linalg.TEMPLATE_VALUES + 1.0)  # one value too many to keep
        assert linalg.to_json_text(big) == linalg.to_json_text(big.tolist())
        assert linalg._array_template.cache_info().misses == 0


def reference_matrix_from_doc(doc) -> np.ndarray:
    """The per-entry interchange reader the array reader replaced, kept verbatim."""
    MatrixFormatError = linalg.MatrixFormatError
    if not isinstance(doc, dict):
        raise MatrixFormatError("document must be a JSON object")
    try:
        n = doc["n"]
        rows = doc["rows"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError("document must carry fields 'n' and 'rows'") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise MatrixFormatError("'n' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixFormatError(f"expected {n} rows")
    m = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError(f"row {i} is not a list of {n} entries (non-square input?)")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise MatrixFormatError(f"entry ({i},{j}) is not a [re, im] pair")
            try:
                m[i, j] = complex(entry[0], entry[1])
            except OverflowError as exc:
                raise MatrixFormatError(f"entry ({i},{j}) is too large for a float") from exc
    if not np.isfinite(m).all():
        raise MatrixFormatError("entries must be finite")
    return m


# The largest integer that rounds to the float maximum; one more overflows.
FLOAT_MAX_INT = 2**1024 - 2**970 - 1
# Floats at the edges of the range, integers a float rounds or cannot hold,
# and values that are no numbers.
odd_values = st.sampled_from([
    -0.0, 5e-324, -2.2250738585072014e-308,
    2**53 + 1, -(2**63) - 1, 2**64 + 2**11 + 1, FLOAT_MAX_INT, -FLOAT_MAX_INT,
    FLOAT_MAX_INT + 1, 10**400, -(10**400), True, False, None, "1", [1.0], [],
])
odd_entries = st.sampled_from([[1.0], [1.0, 2.0, 3.0], [], [[1.0, 2.0]], (1.0, 2.0), None, 1.0,
                               "x", [[1.0], 2.0]])


EDITS = ["value", "non-finite", "entry", "ragged row", "row"]


@st.composite
def interchange_docs(draw):
    """A document of finite numbers (floats over the whole range, JSON integers),
    with up to three values, entries or rows replaced by malformed ones, ragged
    lengths or non-finite values: what a JSON file may hold."""
    n = draw(st.integers(1, 6))
    values = iter(draw(st.lists(st.one_of(any_float, st.integers(-2**70, 2**70)),
                                min_size=2 * n * n, max_size=2 * n * n)))
    rows = [[[next(values), next(values)] for _ in range(n)] for _ in range(n)]
    index = st.integers(0, n - 1)
    edits = draw(st.lists(st.tuples(st.sampled_from(EDITS), index, index, st.integers(0, 1)),
                          max_size=3))
    # values first, then entries, then rows, so that each edit finds its place
    for where, i, j, k in sorted(edits, key=lambda edit: EDITS.index(edit[0])):
        if where == "value":
            rows[i][j][k] = draw(odd_values)
        elif where == "non-finite":
            rows[i][j][k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif where == "entry":
            rows[i][j] = draw(odd_entries)
        elif where == "ragged row":
            rows[i] = rows[i][:-1] if k else [*rows[i], [0.0, 0.0]]
        elif isinstance(rows[i], list):  # each row is replaced once
            rows[i] = draw(st.sampled_from([None, "row", 1.0, tuple(rows[i])]))
    return {"n": n, "rows": rows}


def square_matrices():
    """Complex square matrices, n = 1-6, of every finite float: both zeros, subnormals."""
    return st.integers(1, 6).flatmap(lambda n: st.lists(
        any_float, min_size=2 * n * n, max_size=2 * n * n).map(
        lambda values: np.array(values).view(np.complex128).reshape(n, n)))


class TestMatrixReader:
    @settings(max_examples=200, deadline=None)
    @given(interchange_docs())
    @example({"n": 2, "rows": [[[1, 2], [True, 0]], [[0, 0], [0, 10**400]]]})
    @example({"n": 2, "rows": [[[math.nan, 0], [0, 0]], [[0, 0], [10**400, 0]]]})
    @example({"n": 2, "rows": [[[0, 0], [0, 0]], [[0, 0], [0, -(10**400)]]]})
    @example({"n": 2, "rows": [[[0, 0], [0, "1"]], [[0, 0]]]})
    @example({"n": 1, "rows": [[[FLOAT_MAX_INT, -0.0]]]})
    @example({"n": 2, "rows": [[[1.0], [2.0]], [[0, 0], [0, 0]]]})  # would broadcast
    def test_matches_the_per_entry_reader(self, doc):
        try:
            want = reference_matrix_from_doc(doc)
        except linalg.MatrixFormatError as exc:
            with pytest.raises(linalg.MatrixFormatError) as info:
                linalg.matrix_from_doc(doc)
            assert str(info.value) == str(exc)
            assert type(info.value.__cause__) is type(exc.__cause__)
        else:
            got = linalg.matrix_from_doc(doc)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(square_matrices())
    def test_writes_the_bytes_of_the_per_entry_document(self, m):
        text = linalg.dumps_matrix(m)
        assert text == linalg.to_json_text(reference_matrix_doc(m)) + "\n"
        # a zero is written as "0" or "-0", which JSON reads as the integer 0
        assert linalg.loads_matrix(text).tobytes() == (m + 0.0).tobytes()
