"""Core matrix algebra: involutions, inversion, eigendecomposition, residuals."""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import (
    NearDefective,
    RealityTag,
    SingularMatrix,
    ToleranceConfig,
    build_diagonalizer,
    eigendecompose,
    inverse,
    involutions,
    similarity_residual,
)
from pseudoherm.families import SIGMA_X, SIGMA_Y, SIGMA_Z, h5, h8
from pseudoherm import linalg
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


class TestPermutations:
    @settings(max_examples=150, deadline=None)
    @given(permutations())
    def test_detector_returns_the_index_array(self, p):
        np.testing.assert_array_equal(linalg.permutation_of(permutation_matrix(p)), p)
        for name, m in not_permutations(p).items():
            assert linalg.permutation_of(m) is None, name

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
        with mock.patch.object(scipy.linalg, "lu_factor") as lu_factor:
            got = [similarity_residual(m, h, t) for t in targets]
        lu_factor.assert_not_called()
        m_inv = inverse(m)[0]
        scale = linalg.tolerance_scale(fro(h))
        assert got == [fro(m @ h @ m_inv - t) / scale for t in targets]

    @settings(max_examples=60, deadline=None)
    @given(permutations(max_n=20), st.integers(0, 2**32 - 1))
    def test_near_permutations_keep_the_lu_path(self, p, seed):
        rng = np.random.default_rng(seed)
        h = random_complex(rng, len(p))
        lu_factor = scipy.linalg.lu_factor
        for name, m in not_permutations(p).items():
            with mock.patch.object(scipy.linalg, "lu_factor", side_effect=lu_factor) as spy:
                residual = similarity_residual(m, h, h.conj())
            assert spy.call_count == 1, name
            assert residual == fro(m @ h @ inverse(m)[0] - h.conj()) / fro(h), name

    def test_repeated_column_is_singular(self):
        m = np.eye(4, dtype=np.complex128)[:, [0, 1, 1, 3]]
        with pytest.raises(SingularMatrix):
            inverse(m)
        with pytest.raises(SingularMatrix):
            similarity_residual(m, np.eye(4), np.eye(4))


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
        eig = scipy.linalg.eig

        def perturbed_eig(*args, **kwargs):
            w, v = eig(*args, **kwargs)
            return w + shift * np.linalg.norm(h), v

        tol = ToleranceConfig()
        with mock.patch.object(linalg, "RESIDUAL_BLOCK", block), \
                mock.patch.object(scipy.linalg, "eig", perturbed_eig):
            spec = eigendecompose(h, tol)
        residuals, flags = reference_eigenpair_residuals(h, spec, tol)
        assert len(flags) == moved.sum()
        assert spec.flags == tuple(flags)
        for res, want in zip(spec.residuals, residuals):
            assert abs(res - want) <= 1e-15


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
            assert linalg.to_json_text(doc) == linalg.to_json_text(linalg.matrix_to_doc(m))

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
