"""Command line contract: interchange round trips, exit codes, reports."""

import json
import math
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pseudoherm import (SIGMA_X, GridSpec, _lapack, build_hamiltonian, canonical_normalize, cli,
                        dumps_matrix, h5, h6, harmonic, inner, load_matrix, loads_matrix, metrics,
                        morse, save_matrix)
from pseudoherm.cli import build_report, main, sweep_family, sweep_values
from pseudoherm.linalg import DEFAULT_TOL, MatrixFormatError, fro, to_json_text


def run(tmp_path, *argv):
    """Invoke the CLI in process, returning (exit_code, report_dict_or_None)."""
    out = tmp_path / "report.json"
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def traced_peak(call):
    """``(peak, result)``: the tracemalloc peak of ``call()`` above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        if started:
            tracemalloc.stop()


class TestInterchange:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_round_trip_bit_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m[0, 0] = 1.0 / 3.0 + 1e-300j
        path = tmp_path / "m.json"
        save_matrix(path, m)
        back = load_matrix(path)
        assert np.array_equal(m, back)
        assert dumps_matrix(back) == path.read_text()

    def test_non_square_rejected(self):
        doc = {"n": 2, "rows": [[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                                [[4.0, 0.0], [5.0, 0.0]]]}
        with pytest.raises(MatrixFormatError):
            loads_matrix(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "not json at all",
        '{"rows": []}',
        '{"n": 0, "rows": []}',
        '{"n": 1, "rows": [[[1.0]]]}',
        '{"n": 1, "rows": [[["x", 1.0]]]}',
    ])
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(MatrixFormatError):
            loads_matrix(text)

    @pytest.mark.parametrize("entries, message", [
        ("[1, 0], [true, 0]", "entry (0,1) is not a [re, im] pair"),
        ('[1, 0], [0, null]', "entry (0,1) is not a [re, im] pair"),
        ("[NaN, 0], [0, " + "1" * 400 + "]", "entry (0,1) is too large for a float"),
        ("[1e400, 0], [Infinity, 0]", "entries must be finite"),
    ])
    def test_reader_rules_exit_2(self, tmp_path, capsys, entries, message):
        (tmp_path / "m.json").write_text(
            '{"n": 2, "rows": [[%s], [[1, 0], [0, 1]]]}' % entries, encoding="utf-8")
        code, doc = run(tmp_path, "analyze", "--matrix", str(tmp_path / "m.json"))
        assert code == 2 and doc is None
        assert message in capsys.readouterr().err


def per_row_matrix(rows, n):
    """The conversion of ``matrix_from_doc`` as it was, one row per array
    assignment (reference)."""
    pairs = np.empty((n, n, 2))
    for i, row in enumerate(rows):
        pairs[i] = row
    return pairs.view(np.complex128).reshape(n, n)


@st.composite
def pair_grids(draw):
    """``(n, rows)``: an n x n grid (n = 1-5) of [re, im] pairs of finite floats,
    small integers, and integers above 2^53, up to and beyond 2^64 and up to 2^1023."""
    n = draw(st.integers(1, 5))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3),
                      st.integers(2**53, 2**65), st.integers(-(2**65), -(2**53)),
                      st.integers(-(2**1023), 2**1023))
    entry = st.lists(value, min_size=2, max_size=2)
    return n, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


class TestInterchangeValues:
    @settings(max_examples=200, deadline=None)
    @given(pair_grids())
    def test_values_have_the_bits_of_the_per_row_conversion(self, grid):
        n, rows = grid
        got = loads_matrix(json.dumps({"n": n, "rows": rows}))
        assert got.tobytes() == per_row_matrix(rows, n).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(pair_grids(), st.data())
    def test_first_bad_value_is_named(self, grid, data):
        # an integer beyond the float range or a bool, at any place, is named
        # by its entry, and the first bad entry in row-major order wins
        n, rows = grid
        places = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.integers(0, 1), st.sampled_from([10**400, True])),
                                    min_size=1, max_size=3))
        for i, j, part, value in places:
            rows[i][j][part] = value
        i, j = min((i, j) for i, j, _, _ in places)
        with pytest.raises(MatrixFormatError) as error:
            loads_matrix(json.dumps({"n": n, "rows": rows}))
        # the pair check comes before the conversion of its values
        message = ("is not a [re, im] pair" if any(v is True for v in rows[i][j])
                   else "is too large for a float")
        assert str(error.value) == f"entry ({i},{j}) {message}"


class TestAnalyze:
    def test_h6_with_pauli_candidates(self, tmp_path):
        mat = tmp_path / "h6.json"
        save_matrix(mat, h6(1.0, 1.0, 2.0))
        sx = tmp_path / "sigma_x.json"
        sz = tmp_path / "sigma_z.json"
        save_matrix(sx, np.array([[0, 1], [1, 0]], dtype=complex))
        save_matrix(sz, np.diag([1.0, -1.0]).astype(complex))
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat),
                        "--rho", f"sigma_z={sz}", "--rho", f"sigma_x={sx}")
        assert code == 0
        ev = [complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]]
        np.testing.assert_allclose(ev, [1 - np.sqrt(3), 1 + np.sqrt(3)], atol=1e-12)
        holds = {r["name"]: r["holds"] for r in doc["classification"]["pseudo_real"]}
        assert holds["sigma_z"] and not holds["sigma_x"]
        assert doc["classification"]["self_adjoint"]["holds"]

    def test_exit_2_on_malformed_matrix(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _ = run(tmp_path, "analyze", "--matrix", str(bad))
        assert code == 2

    def test_exit_2_on_integer_entry_beyond_float(self, tmp_path, capsys):
        mat = tmp_path / "huge_int.json"
        mat.write_text('{"n": 1, "rows": [[[1' + "0" * 400 + ', 0]]]}')
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 2 and doc is None
        assert "entry (0,0)" in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, tmp_path):
        code, _ = run(tmp_path, "analyze", "--matrix", str(tmp_path / "absent.json"))
        assert code == 2

    def test_exit_3_on_dimension_mismatch(self, tmp_path):
        mat = tmp_path / "h.json"
        save_matrix(mat, h6(1.0, 1.0, 2.0))
        big = tmp_path / "big.json"
        save_matrix(big, np.eye(3))
        for flag in ("--eta", "--parity"):
            code, _ = run(tmp_path, "analyze", "--matrix", str(mat), flag, str(big))
            assert code == 3, flag

    @pytest.mark.parametrize("specs", [
        ("--rho", "a.json", "--eta", "other/a.json"),
        ("--rho", "x=a.json", "--rho", "x=other/a.json"),
        ("--mu", "from_D_mu=a.json"),
    ])
    def test_exit_2_on_a_taken_metric_name(self, tmp_path, monkeypatch, capsys, specs):
        # a repeated name must not replace the first metric, nor a
        # candidate take the name of a diagonalizer metric
        monkeypatch.chdir(tmp_path)
        (tmp_path / "other").mkdir()
        save_matrix("h.json", h5(0.0, 0.6, 1.0))
        save_matrix("a.json", SIGMA_X)
        save_matrix("other/a.json", np.eye(2))
        code, doc = run(tmp_path, "analyze", "--matrix", "h.json", *specs)
        assert code == 2 and doc is None
        assert "already taken" in capsys.readouterr().err

    def test_no_symmetry_found_still_exits_zero(self, tmp_path):
        rng = np.random.default_rng(9)
        mat = tmp_path / "noise.json"
        save_matrix(mat, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0
        assert not doc["classification"]["hermitian"]["holds"]

    def test_h8_without_candidates_reports_constructions(self, tmp_path):
        from pseudoherm import h8
        mat = tmp_path / "h8.json"
        save_matrix(mat, h8(1.0, 1.0, 2.0, 1.0))
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0
        reps = {r["name"]: r for r in doc["classification"]["pseudo_hermitian"]}
        assert reps["from_D_eta_plus"]["provenance"] == "from_diagonalizer"
        assert reps["from_D_eta_plus"]["holds"]
        grams = {g["metric"]: g for g in doc["grams"] if g["kind"] == "eta"}
        assert grams["from_D_eta_plus"]["signature"] == ["+", "+"]

    def test_zero_matrix_gives_finite_report(self, tmp_path):
        mat = tmp_path / "zero.json"
        save_matrix(mat, np.zeros((2, 2)))
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0
        assert doc["spectrum"]["residuals"] == [0, 0]
        assert doc["classification"]["hermitian"] == {"holds": True, "residual": 0}

    def test_huge_entries_give_finite_report(self, tmp_path):
        # the sum of squares in the Frobenius norm overflows at these entries
        mat = tmp_path / "huge.json"
        save_matrix(mat, np.diag([1e200, 2e200, -3e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0
        assert doc["classification"]["hermitian"]["holds"]
        assert [tag["tag"] for tag in doc["spectrum"]["reality"]] == ["real"] * 3

    @pytest.mark.parametrize("unit", [1e200, 1e-160, 1e-200])
    def test_huge_and_tiny_entries_give_exact_eigenvalues(self, tmp_path, unit):
        # 1e200 and 1e-200 lie outside the range in which zgeev scales its
        # eigenvalues back; at 1e-200 the squares of the entries underflow
        mat = tmp_path / "diag.json"
        save_matrix(mat, np.diag([1.0, 2.0, -3.0]) * unit)
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0
        spec = doc["spectrum"]
        assert spec["eigenvalues"] == [[-3 * unit, 0], [unit, 0], [2 * unit, 0]]
        assert spec["residuals"] == [0, 0, 0] and spec["flags"] == []
        # not PT-symmetric under the reversal, at any scale
        pt = doc["classification"]["pt_symmetric"]
        assert not pt["holds"] and abs(pt["residual"] - 1.5118578920369088) <= 1e-15

    def test_eigenvalue_beyond_the_float_range_is_a_warning(self, tmp_path):
        # the eigenvalues of this matrix are 0 and 2e308
        mat = tmp_path / "huge.json"
        save_matrix(mat, np.full((2, 2), 1e308))
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0 and doc["spectrum"] is None and doc["grams"] == []
        assert doc["warnings"] == [
            "eigendecomposition failed: an eigenvalue lies beyond the float range of +-1.8e308"]
        assert doc["classification"]["hermitian"]["holds"]

    def test_gram_degeneracy_does_not_overflow(self, tmp_path):
        # |1.5e308 (1 + i)| overflows; the Grams test degeneracy on the
        # eigenvalues times a power of four, so the PT Gram's entry 1 pairing
        # the first and last states counts at either scale
        offdiag = []
        for scale in (1.0, 1e-300):
            mat = tmp_path / "m.json"
            save_matrix(mat, np.diag([1.5e308 * (1 + 1j), -1.5e308 * (1 + 1j), 1.0]) * scale)
            code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
            assert code == 0
            offdiag.append(next(g["offdiag_max"] for g in doc["grams"] if g["kind"] == "pt"))
        assert offdiag == [1, 1]

    def test_deterministic_bytes(self, tmp_path):
        mat = tmp_path / "h.json"
        save_matrix(mat, h6(0.3, 1.0, 2.0))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", "--matrix", str(mat), "--json", str(out1)]) == 0
        assert main(["analyze", "--matrix", str(mat), "--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@st.composite
def interchange_texts(draw):
    """An interchange document with n = 1-4 whose entries are finite floats of any
    magnitude (log-uniform over [5e-324, 1.8e308], either sign), +-0 or small integers."""
    n = draw(st.integers(1, 4))
    magnitude = st.builds(lambda e, sign: sign * 2.0**e, st.floats(-1074.0, 1023.99),
                          st.sampled_from([1.0, -1.0]))
    value = st.one_of(magnitude, st.sampled_from([0.0, -0.0]), st.integers(-3, 3))
    entry = st.lists(value, min_size=2, max_size=2)
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return json.dumps({"n": n, "rows": draw(rows)})


def finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(finite_numbers(value) for value in node.values())
    if isinstance(node, list):
        return all(map(finite_numbers, node))
    return not isinstance(node, float) or math.isfinite(node)


class TestAnalyzeContract:
    # every well-formed, finite document is analyzed: exit 2 is for input that
    # cannot be parsed, 3 for inconsistent dimensions, and analyze reports a
    # numerical failure (exit 4 elsewhere) as a warning; a RuntimeWarning
    # escapes as an error (pyproject's filterwarnings)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(interchange_texts())
    @example(dumps_matrix(np.diag([1e308 * (1 + 1j), -1e308 * (1 + 1j)])))
    @example(dumps_matrix(h5(0.0, 1e308, 1.0)))
    @example(dumps_matrix(np.full((2, 2), 1e308)))
    @example(dumps_matrix(np.diag([1.0, 2.0, -3.0]) * 1e-200))
    @example(dumps_matrix(np.array([[5e-324, 1.7e308], [0.0, -5e-324]])))
    def test_every_finite_document_gets_a_finite_report(self, tmp_path, text):
        mat = tmp_path / "m.json"
        mat.write_text(text, encoding="utf-8")
        (tmp_path / "report.json").unlink(missing_ok=True)
        code, doc = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code == 0
        assert finite_numbers(doc)


@st.composite
def released_metric_systems(draw):
    """``(h, candidates)``: H = S diag(lam) S^-1 (n = 2-8, a real spectrum or one
    with a conjugate pair) and candidates that hold, fail, are singular, are
    read-only views, or are writable with a canonical pivot other than 1."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.permutation(np.arange(-8, 9))[:n] * 0.5 + rng.uniform(-0.1, 0.1, n)
    swap = np.arange(n)
    if draw(st.booleans()):
        lam = lam.astype(complex)
        lam[:2] = lam[0] + 1j * rng.uniform(0.5, 2.0) * np.array([1.0, -1.0])
        swap[:2] = [1, 0]
    s = np.eye(n) + (0.3 / np.sqrt(2.0 * n)) * (rng.normal(size=(n, n))
                                                + 1j * rng.normal(size=(n, n)))
    s_inv = np.linalg.inv(s)
    factor = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    pool = {
        "rho": lambda: factor * (s.conj() @ np.eye(n)[swap] @ s_inv),
        "eta": lambda: np.linalg.inv(s @ s.conj().T),
        "random": lambda: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
        "ones": lambda: np.ones((n, n)),
        "zero": lambda: np.zeros((n, n)),
        "identity": lambda: metrics.identity_view(n),
        "parity": lambda: metrics.default_parity(n),
        "twice_identity": lambda: 2.0 * np.eye(n),
    }
    names = draw(st.lists(st.sampled_from(sorted(pool)), unique=True, max_size=len(pool)))
    return s @ np.diag(lam) @ s_inv, {name: pool[name]() for name in names}


def reference_report_text(h, candidates, tol) -> str:
    """The report text of :func:`build_report`, rendered after the whole analysis
    from the canonical metrics that :func:`metrics.classify` keeps without a
    per-metric callback, each matrix document from its own report's metric."""
    parity = metrics.default_parity(h.shape[0])
    report = metrics.classify(h, candidates, tol, parity=parity)
    classification = cli._classification_doc(report, [None] * len(report.pseudo_real))
    for kind in metrics.KINDS:
        for entry, rep in zip(classification[kind], getattr(report, kind), strict=True):
            entry["metric"] = cli._matrix_doc(rep.metric)
    grams = []
    spec = report.spectrum
    if spec is not None and len(spec) > 0:
        v, ev = spec.eigenvectors, spec.eigenvalues
        grams = [cli._gram_doc(inner.hermitian_gram(v, tol), None),
                 cli._gram_doc(inner.transpose_gram(v, ev, tol), None)]
        grams += [cli._gram_doc(inner.eta_gram(v, rep.metric, ev, tol), rep.name)
                  for rep in report.pseudo_hermitian if rep.holds]
        if report.pt_symmetric is not None:
            grams.append(cli._gram_doc(inner.pt_gram(v, parity, ev, tol),
                                       report.pt_symmetric[0]))
    return to_json_text({"input": {}, "spectrum": cli._spectrum_doc(spec),
                         "classification": classification, "grams": grams,
                         "warnings": list(report.warnings)})


class TestReleasedMetrics:
    # build_report renders each metric's matrix document and eta Gram right
    # after its check and lets it go; the bytes are those of a report rendered
    # at the end from the metrics classify keeps
    @settings(max_examples=60, deadline=None)
    @given(released_metric_systems())
    def test_report_bytes_equal_a_rendering_from_kept_metrics(self, system):
        h, candidates = system
        text = to_json_text(build_report(h, candidates, DEFAULT_TOL, {}))
        reference = reference_report_text(h, candidates, DEFAULT_TOL)
        # the first difference only: a diff of two long one-line texts is slow
        at = next((i for i, pair in enumerate(zip(text, reference)) if len(set(pair)) > 1),
                  min(len(text), len(reference)))
        same = text == reference
        assert same, f"byte {at}: {text[at - 60:at + 60]!r} != {reference[at - 60:at + 60]!r}"

    def test_candidates_unchanged_and_library_reports_keep_metrics(self):
        rng = np.random.default_rng(7)
        n = 5
        s = np.eye(n) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        h = s @ np.diag(np.arange(1.0, n + 1.0)) @ np.linalg.inv(s)
        twice = 2.0 * np.eye(n, dtype=complex)
        kept = twice.copy()
        report = metrics.classify(h, {"twice": twice})
        build_report(h, {"twice": twice}, DEFAULT_TOL, {})
        # a caller's candidate with pivot 2 is divided into a copy, never in place
        assert twice.tobytes() == kept.tobytes()
        # without a callback the reports hold the canonical diagonalizer metrics
        d, d_inv = report.spectrum.eigenvectors, report.spectrum.diagonalizer_inverse
        for name, build, _, _ in metrics.DIAGONALIZER_METRICS:
            reps = [next(r for r in getattr(report, kind) if r.name == name)
                    for kind in metrics.KINDS]
            expected = canonical_normalize(build(d, d_inv))
            assert all(rep.metric is reps[0].metric for rep in reps)
            assert reps[0].metric.tobytes() == expected.tobytes(), name
        # with one, each metric is seen once, then released from the reports; a
        # candidate comes with its reports, a diagonalizer metric before its verdicts
        seen = []
        released = metrics.classify(
            h, {"twice": twice},
            on_metric=lambda name, metric, reps, _: seen.append((name, metric, reps)))
        assert [(name, metric.tobytes()) for name, metric, _ in seen] == [
            (rep.name, rep.metric.tobytes()) for rep in report.pseudo_real]
        assert [reps is None for _, _, reps in seen] == [False, True, True, True]
        assert [seen[0][2][kind].holds for kind in metrics.KINDS] == [
            getattr(report, kind)[0].holds for kind in metrics.KINDS]
        assert all(rep.metric is None for kind in metrics.KINDS
                   for rep in getattr(released, kind))
        assert [getattr(released, kind)[i].residual for kind in metrics.KINDS for i in range(4)] == [
            getattr(report, kind)[i].residual for kind in metrics.KINDS for i in range(4)]

    def test_diagonalizer_metric_is_released_before_its_inverse_is_built(self, monkeypatch):
        # build_report renders each diagonalizer metric and lets it go before
        # its inverse builder runs, so that the two are never held together
        rng = np.random.default_rng(11)
        n = 6
        s = np.eye(n) + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        h = s @ np.diag(np.arange(1.0, n + 1.0)) @ np.linalg.inv(s)
        alive = []

        def traced(name, build, build_inverse, kind):
            made = []

            def metric(d, d_inv):
                m = build(d, d_inv)
                made.append(weakref.ref(m))
                return m

            def inverse(d, d_inv):
                alive.append((name, made[-1]() is not None))
                return build_inverse(d, d_inv)

            return name, metric, inverse, kind

        table = metrics.DIAGONALIZER_METRICS
        want = to_json_text(build_report(h, {"sigma": np.eye(n)}, DEFAULT_TOL, {}))
        monkeypatch.setattr(metrics, "DIAGONALIZER_METRICS", tuple(traced(*e) for e in table))
        got = to_json_text(build_report(h, {"sigma": np.eye(n)}, DEFAULT_TOL, {}))
        assert alive == [(name, False) for name, *_ in table]
        assert got == want


class TestToleranceFlags:
    FLAGS = {"--tol-residual": "residual", "--tol-reality": "reality", "--tol-metric": "metric"}

    @pytest.mark.parametrize("flag", FLAGS)
    def test_flag_reaches_the_report(self, tmp_path, flag):
        code, doc = run(tmp_path, "builtin", "H5", "a=0", "b=0.6", "c=1", flag, "2.5e-6")
        assert code == 0
        defaults = {"residual": 1e-10, "reality": 1e-8, "metric": 1e-8}
        assert doc["input"]["tolerances"] == {**defaults, self.FLAGS[flag]: 2.5e-6}

    def test_metric_tolerance_decides_the_verdict(self, tmp_path):
        from pseudoherm import h5
        mat, rho = tmp_path / "h5.json", tmp_path / "rho.json"
        save_matrix(mat, h5(0.0, 0.6, 1.0))
        save_matrix(rho, np.array([[1e-6, 1.0], [1.0, 0.0]]))  # sigma_x, perturbed
        verdicts = []
        for tol in ("1e-8", "1e-4"):
            code, doc = run(tmp_path, "analyze", "--matrix", str(mat),
                            "--rho", f"rho={rho}", "--tol-metric", tol)
            assert code == 0
            report = doc["classification"]["pseudo_real"][0]
            assert 1e-8 < report["residual"] < 1e-4
            verdicts.append(report["holds"])
        assert verdicts == [False, True]

    @pytest.mark.parametrize("flag", FLAGS)
    def test_zero_tolerance_exits_2(self, tmp_path, capsys, flag):
        code, doc = run(tmp_path, "builtin", "H5", "a=0", "b=0.6", "c=1", flag, "0")
        assert code == 2 and doc is None
        assert "must be strictly positive" in capsys.readouterr().err


class TestBuiltin:
    def test_h7_pseudo_hermitian_under_sigma_y(self, tmp_path):
        code, doc = run(tmp_path, "builtin", "H7", "a=0", "b=1", "c=2")
        assert code == 0
        ev = [complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]]
        np.testing.assert_allclose(ev, [-np.sqrt(3), np.sqrt(3)], atol=1e-12)
        eta = {r["name"]: r for r in doc["classification"]["pseudo_hermitian"]}
        assert eta["sigma_y"]["holds"]
        # canonical form of sigma_y is i*sigma_y
        rows = eta["sigma_y"]["metric"]["rows"]
        np.testing.assert_allclose(rows, [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]], atol=1e-15)

    def test_h8_report_echoes_angles(self, tmp_path):
        code, doc = run(tmp_path, "builtin", "H8", "a=0", "b=3", "c=4", "d=0")
        assert code == 0
        np.testing.assert_allclose(doc["input"]["e"], np.sqrt(7.0))
        np.testing.assert_allclose(doc["input"]["theta"], np.arctan(3 / np.sqrt(7.0)))
        assert doc["input"]["phi"] == 0.0
        ev = [complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]]
        np.testing.assert_allclose(ev, [-np.sqrt(7.0), np.sqrt(7.0)], atol=1e-12)

    def test_h5_broken_phase_zero_pseudo_norms(self, tmp_path):
        code, doc = run(tmp_path, "builtin", "H5", "b=2", "c=1", "a=0")
        assert code == 0
        ev = [complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]]
        # order within the pair follows the rounding-level real parts
        np.testing.assert_allclose(sorted(ev, key=lambda v: v.imag),
                                   [-1j * np.sqrt(3), 1j * np.sqrt(3)], atol=1e-12)
        tags = [r["tag"] for r in doc["spectrum"]["reality"]]
        assert tags == ["conjugate_pair", "conjugate_pair"]
        eta_grams = [g for g in doc["grams"] if g["kind"] == "eta" and g["metric"] == "sigma_x"]
        assert eta_grams and eta_grams[0]["signature"] == ["0", "0"]
        norms = [complex(re, im) for re, im in eta_grams[0]["norms"]]
        assert max(abs(n) for n in norms) <= 1e-12

    def test_matrix_export(self, tmp_path):
        mat = tmp_path / "h5.json"
        code, _ = run(tmp_path, "builtin", "H5", "a=0", "b=0.6", "c=1", "--matrix", str(mat))
        assert code == 0
        m = load_matrix(mat)
        np.testing.assert_array_equal(m, np.array([[0.6j, 1.0], [1.0, -0.6j]]))

    def test_parameters_near_the_float_maximum_give_a_finite_report(self, tmp_path):
        # c^2 - b^2 overflows: the closed form is taken scaled by max(|b|, |c|)
        code, doc = run(tmp_path, "builtin", "H5", "a=0", "b=1e308", "c=1")
        assert code == 0
        formula, solved = ([complex(*x) for x in ev] for ev in
                           (doc["input"]["eigenvalues"], doc["spectrum"]["eigenvalues"]))
        np.testing.assert_allclose(formula, solved, rtol=1e-12)
        assert formula == [-1e308j, 1e308j]

    def test_unknown_builtin_exit_2(self, tmp_path):
        assert run(tmp_path, "builtin", "H5", "a=oops")[0] == 2

    def test_missing_parameter_exit_2(self, tmp_path):
        assert run(tmp_path, "builtin", "H5", "a=0")[0] == 2


class TestDiscretize:
    def test_monomial_pt(self, tmp_path):
        code, doc = run(tmp_path, "discretize", "--family", "monomial-pt",
                        "--g", "1", "--k", "3", "--xmax", "6", "--n", "128",
                        "--states", "5")
        assert code == 0
        ev = [complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]]
        assert len(ev) == 5
        assert max(abs(v.imag) / abs(v.real) for v in ev) <= 1e-6
        parity = {r["name"]: r for r in doc["classification"]["pseudo_real"]}["parity"]
        assert parity["holds"] and parity["residual"] == 0.0
        assert doc["classification"]["pt_symmetric"]["holds"]

    def test_harmonic_spectrum(self, tmp_path):
        code, doc = run(tmp_path, "discretize", "--family", "harmonic",
                        "--alpha", "1", "--xmax", "12", "--n", "256", "--states", "4")
        assert code == 0
        ev = [complex(re, im)for re, im in doc["spectrum"]["eigenvalues"]]
        np.testing.assert_allclose([v.real for v in ev],
                                   np.arange(4) + 0.5, atol=2e-2)

    def test_matrix_export_and_reanalyze(self, tmp_path):
        mat = tmp_path / "disc.json"
        code, _ = run(tmp_path, "discretize", "--family", "harmonic", "--alpha", "1",
                      "--xmax", "6", "--n", "32", "--states", "2",
                      "--matrix", str(mat))
        assert code == 0
        code2, doc2 = run(tmp_path, "analyze", "--matrix", str(mat))
        assert code2 == 0
        assert doc2["classification"]["hermitian"]["holds"]

    def test_one_eigensolve_per_invocation(self, tmp_path, monkeypatch):
        calls = []
        eig = _lapack.eig

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return eig(*args, **kwargs)

        monkeypatch.setattr(_lapack, "eig", counting)
        code, doc = run(tmp_path, "discretize", "--family", "harmonic", "--alpha", "1",
                        "--xmax", "6", "--n", "64", "--states", "3")
        assert code == 0 and len(doc["spectrum"]["eigenvalues"]) == 3
        assert calls == [(64, 64)]

    def test_one_factorization_per_metric(self, tmp_path, monkeypatch):
        lu_calls, residual_calls = [], []
        getrf, residuals = _lapack.getrf, metrics._residuals

        def counting_lu(*args, **kwargs):
            lu_calls.append(args[0].shape)
            return getrf(*args, **kwargs)

        def counting_residuals(*args, **kwargs):
            residual_calls.append(args[0].shape)
            return residuals(*args, **kwargs)

        monkeypatch.setattr(_lapack, "getrf", counting_lu)
        monkeypatch.setattr(metrics, "_residuals", counting_residuals)
        code, doc = run(tmp_path, "discretize", "--family", "harmonic", "--alpha", "1",
                        "--xmax", "10", "--n", "256")
        assert code == 0
        # the eigenvector matrix only: the identity and parity candidates are
        # permutations, which take index gathers, and the diagonalizer metrics
        # come with their inverses from its inverse
        assert len(lu_calls) == 1
        # the identity and parity candidates and the three diagonalizer metrics;
        # H's own relations are the identity candidate's, and the PT residual
        # is the parity candidate's
        cls = doc["classification"]
        parity = next(r for r in cls["pseudo_real"] if r["name"] == "parity")
        identity = {kind: next(r for r in cls[kind] if r["name"] == "identity")
                    for kind in ("pseudo_adjoint", "pseudo_hermitian")}
        assert len(residual_calls) == 5
        assert cls["pt_symmetric"]["residual"] == parity["residual"]
        assert cls["hermitian"]["residual"] == identity["pseudo_hermitian"]["residual"]
        assert cls["self_adjoint"]["residual"] == identity["pseudo_adjoint"]["residual"]
        assert len(cls["reality_checks"]) == 5 * 256

    # The tracemalloc peak of a report at n = 256, in 16 n^2-byte arrays.  On the
    # near-defective Morse grid it holds 3: H, and either zgeev's copy of H and
    # D while H is solved, or D, its LU factors and one block of 64 columns of
    # D^-1 with its magnitudes while D's condition is taken (0.4 more at this
    # n), since a refused D^-1 is never held whole (3.73 measured, 4.40 when it
    # was).  Its checks stay below: the identity's reads H in place beside D and
    # one difference buffer (a gather copy of H added one).  On the oscillator
    # grid the peak is in each diagonalizer metric's check once the metric S is
    # released: H, D, D^-1, S H, S^-1 and S H S^-1 (or a difference buffer, or
    # a temporary of the build of S^-1), 6 arrays (6.4 measured).  S H is
    # formed, and S rendered (matrix document and eta Gram) and released,
    # before S^-1 is built, and the metrics and inverses are averaged in place.
    # Dense permutation metrics, a copy of a unit-pivot metric, a near-defective
    # D's inverse, a separate identity to solve into, each earlier metric kept
    # to the end of the report, the averaging temporaries or S held beside S^-1
    # each add one (7.3, 14.2, 10.4 and 7.4 before they were cut).
    @pytest.mark.parametrize("argv, arrays", [
        (["--family", "morse", "--C", "3.5", "--D", "4.0", "--shift", "0.5", "--xmin", "-4.0",
          "--xmax", "14.0", "--mass", "0.5"], 4),
        (["--family", "harmonic", "--alpha", "1.0", "--xmax", "10.0"], 7),
    ], ids=["morse", "harmonic"])
    def test_peak_memory_is_a_few_n_by_n_arrays(self, tmp_path, argv, arrays):
        n = 256
        argv = ["discretize", *argv, "--n", str(n), "--json", str(tmp_path / "report.json")]
        peak, code = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak <= arrays * 16 * n * n, f"{peak / (16 * n * n):.2f} arrays"

    def test_analyze_peak_memory_is_a_few_n_by_n_arrays(self, tmp_path):
        # An analyze with two dense candidates at n = 256, as the analyze-dense
        # benchmark input, in 16 n^2-byte arrays.  The analysis of the loaded
        # matrices (H and the candidates are not counted) peaks in a diagonalizer
        # metric's check at 6 arrays beside small ones (6.7 measured): D, D^-1
        # and, while the metric S is rendered, S, S H and two products of its eta
        # Gram over all n states, or, once S is released, S H, S^-1, S H S^-1 and
        # a buffer.  Each canonical metric, a candidate's too, is released once
        # its matrix document and eta Gram are rendered (11.2 when all were kept
        # to the end).  The identity's check, which reads H in place beside a
        # buffer, comes after it and stays below that.  The whole command peaks
        # in the JSON parse of the last file, about 13 arrays of Python lists and
        # floats beside the two matrices read before it (15.1 measured).
        n = 256
        rng = np.random.default_rng(0)
        s = np.eye(n) + (0.3 / math.sqrt(2.0 * n)) * (rng.normal(size=(n, n))
                                                      + 1j * rng.normal(size=(n, n)))
        s_inv = np.linalg.inv(s)
        h = s @ np.diag(np.linspace(-2.0, 2.0, n)) @ s_inv
        candidates = {"rho": s.conj() @ s_inv, "eta": np.linalg.inv(s @ s.conj().T)}
        argv = ["analyze", "--matrix", str(tmp_path / "h.json"),
                "--json", str(tmp_path / "report.json")]
        save_matrix(tmp_path / "h.json", h)
        for name, m in candidates.items():
            save_matrix(tmp_path / f"{name}.json", m)
            argv += [f"--{name}", f"{name}={tmp_path / name}.json"]
        peak, code = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak <= 16 * 16 * n * n, f"{peak / (16 * n * n):.2f} arrays"
        peak, doc = traced_peak(lambda: build_report(h, candidates, DEFAULT_TOL, {}))
        assert next(r for r in doc["classification"]["pseudo_real"] if r["name"] == "rho")["holds"]
        assert peak <= 7 * 16 * n * n, f"{peak / (16 * n * n):.2f} arrays"

    @pytest.mark.parametrize("n", [2, 48])
    def test_reports_with_views_equal_dense(self, n):
        # the identity and reversal as read-only views write the bytes of
        # their dense matrices: checks, reality checks, PT verdict and Grams
        def dense(m):
            return np.ascontiguousarray(m)

        views = {"identity": metrics.identity_view(n), "parity": metrics.default_parity(n)}
        if n == 2:
            systems = [h6(1.0, 1.0, 2.0), h5(0.0, 0.6, 1.0)]
        else:
            systems = [build_hamiltonian(harmonic(1.0), GridSpec(-6.0, 6.0, n)),
                       build_hamiltonian(morse(shift=0.5), GridSpec(-4.0, 14.0, n, mass=0.5))]
        for h in systems:
            docs = [to_json_text(build_report(h, {k: wrap(m) for k, m in views.items()},
                                              DEFAULT_TOL, {}, parity=wrap(views["parity"])))
                    for wrap in (lambda m: m, dense)]
            assert docs[0] == docs[1]
            # the default parity is the view
            assert to_json_text(build_report(h, views, DEFAULT_TOL, {})) == docs[0]

    def test_views_are_hashed_and_normed_without_a_dense_copy(self):
        # a view's fingerprint is hashed row by row from its buffer and a Gram
        # takes a permutation's norm as sqrt(n): the bits of its dense copy
        rng = np.random.default_rng(5)
        for n in range(1, 65):
            states = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            for view in (metrics.identity_view(n), metrics.default_parity(n)):
                dense = np.ascontiguousarray(view)
                assert cli.fingerprint(view) == cli.fingerprint(dense), n
                assert cli._matrix_doc(view) == cli._matrix_doc(dense), n
                assert fro(dense) == math.sqrt(n)
                for gram in (inner.eta_gram, inner.pt_gram):
                    with mock.patch.object(inner, "fro", side_effect=fro) as norm:
                        got = gram(states, view)
                    # a 1 x 1 view is contiguous, and fro reads it in place
                    assert norm.call_count == (n == 1), n
                    want = gram(states, dense)
                    assert (got.gram.tobytes(), got.norms, got.signature) == (
                        want.gram.tobytes(), want.norms, want.signature), n
        # at n = 512 neither takes as much as a tenth of one n x n array
        n = 512
        states = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        view = metrics.identity_view(n)
        for call in (lambda: cli._matrix_doc(view),
                     lambda: inner.pt_gram(states, metrics.default_parity(n))):
            peak, _ = traced_peak(call)
            assert peak < 0.1 * 16 * n * n, f"{peak / (16 * n * n):.3f} arrays"

    def test_invalid_grid_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "discretize", "--family", "harmonic", "--alpha", "1",
                      "--xmax", "6", "--n", "8", "--states", "1")
        assert code == 2

    def test_bad_parameter_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "discretize", "--family", "monomial-pt",
                      "--g", "1", "--k", "2", "--xmax", "6", "--n", "64",
                      "--states", "2")
        assert code == 2

    @pytest.mark.parametrize("params", [
        ("--family", "harmonic", "--alpha", "1e300"),  # alpha^2 overflows
        ("--family", "morse", "--C", "3.5", "--D", "1e200"),  # D^2 overflows
    ])
    def test_potential_overflow_exit_2(self, tmp_path, capsys, params):
        code, doc = run(tmp_path, "discretize", *params, "--xmax", "10", "--n", "16")
        assert code == 2 and doc is None
        assert capsys.readouterr().err == "error: potential overflows on this grid\n"


class TestSweep:
    def test_values_grid(self):
        v = sweep_values(0.0, 2.0, 0.5)
        np.testing.assert_allclose(v, [0.0, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(Exception):
            sweep_values(0.0, 1.0, -0.1)

    def test_h5_breaking_bracket(self, tmp_path):
        code, doc = run(tmp_path, "sweep", "H5", "b", "a=0", "c=1",
                        "--from", "0.8", "--to", "1.2", "--step", "0.05")
        assert code == 0
        lo, hi = doc["breaking_point"]
        assert 0.9 <= lo < hi <= 1.1

    def test_unbroken_range_secular_sigma_x(self, tmp_path):
        code, doc = run(tmp_path, "sweep", "H5", "b", "a=0", "c=1",
                        "--from", "0.0", "--to", "0.5", "--step", "0.1")
        assert code == 0
        assert doc["breaking_point"] is None
        assert "sigma_x" in doc["secular_metrics"]
        assert all(p["spectrum_real"] for p in doc["points"])

    def test_parameter_dependent_metric_not_secular(self):
        result = sweep_family("H8", "b", [0.0, 0.5, 1.0], {"a": 0.0, "c": 2.0, "d": 1.0})
        assert "sigma_x" in result.secular_metrics
        assert "closed_form_rho" not in result.secular_metrics
        assert "from_D_eta_plus" not in result.secular_metrics

    def test_empty_range_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "H5", "b", "a=0", "c=1",
                      "--from", "1.0", "--to", "0.0", "--step", "0.1")
        assert code == 2

    @pytest.mark.parametrize("bounds", [
        ("--to", "inf", "--step", "0.1"),
        ("--to", "nan", "--step", "0.1"),
        ("--to", "1", "--step", "nan"),
    ])
    def test_non_finite_range_exit_2(self, tmp_path, capsys, bounds):
        code, doc = run(tmp_path, "sweep", "H8", "b", "a=0.3", "c=1", "d=0.5",
                        "--from", "0", *bounds)
        assert code == 2 and doc is None
        assert capsys.readouterr().err == "error: from, to and step must be finite\n"

    def test_points_near_the_float_maximum_give_a_finite_report(self, tmp_path):
        # the residuals of an H with entries near 1e308 would overflow if it
        # were not scaled where the sweep begins
        code, doc = run(tmp_path, "sweep", "H5", "b", "a=0", "c=1e308",
                        "--from", "0", "--to", "1", "--step", "0.5")
        assert code == 0
        assert all(point["spectrum_real"] and point["max_imag"] <= 1e-8 * 1e308
                   for point in doc["points"])
        assert all(point["metrics"]["sigma_x"]["holds"] for point in doc["points"])

    def test_singular_metric_does_not_hold(self, tmp_path):
        # at b = 1 the closed-form mu (and the eta+ built from it) of this H8
        # is singular; the point is reported, not aborted
        code, doc = run(tmp_path, "sweep", "H8", "b", "a=0", "c=0.6", "d=0.8000000000000002",
                        "--from", "0", "--to", "2", "--step", "0.5")
        assert code == 0
        point = {p["value"]: p for p in doc["points"]}[1.0]
        holds = {name: m["holds"] for name, m in point["metrics"].items()}
        assert not holds["closed_form_mu"] and not holds["closed_form_eta_plus"]
        assert holds["sigma_x"] and holds["closed_form_rho"]


@pytest.mark.parametrize("argv", [
    ("discretize", "--family", "harmonic", "--alpha", "1", "--xmax", "6", "--n", "32",
     "--states", "2"),
    ("sweep", "H5", "b", "a=0", "c=1", "--from", "0", "--to", "1", "--step", "0.5"),
])
def test_exit_4_on_eigensolver_failure(tmp_path, monkeypatch, capsys, argv):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    # discretize solves one matrix by zgeev, sweep a stack by numpy's eig
    monkeypatch.setattr(_lapack, "eig", no_convergence)
    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    code, doc = run(tmp_path, *argv)
    assert code == 4 and doc is None
    assert "error: eigendecomposition failed" in capsys.readouterr().err


def test_exit_4_when_the_hessenberg_route_does_not_converge(tmp_path, monkeypatch, capsys):
    def not_converging(*args):
        args[12]._obj.value = 2  # INFO, which zgeev passes on as its own

    # a grid H takes zhseqr without zgeev's reduction; its failure is zgeev's
    routines = {**vars(_lapack.HESSENBERG), "zhseqr": not_converging}
    monkeypatch.setattr(_lapack, "HESSENBERG", SimpleNamespace(**routines))
    tridiagonal = np.diag(np.arange(3.0)) + np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
    with pytest.raises(np.linalg.LinAlgError, match=r"^eig algorithm \(zgeev\) did not converge "
                       r"\(only eigenvalues with order >= 2 have converged\)$"):
        _lapack.eig(tridiagonal.astype(complex))
    code, doc = run(tmp_path, "discretize", "--family", "harmonic", "--alpha", "1", "--xmax", "6",
                    "--n", "32", "--states", "2")
    assert code == 4 and doc is None
    assert "error: eigendecomposition failed" in capsys.readouterr().err


class TestNegativeNumbers:
    SWEEP = ("sweep", "H5", "b", "a=0", "c=1", "--to", "0.1", "--step", "0.05")

    @pytest.mark.parametrize("argv,flag,value", [
        (SWEEP, "--from", "-1e-3"),
        (SWEEP, "--from", "-.5E+2"),
        (("sweep", "H5", "b", "a=0", "c=1", "--to", "-1e5", "--step", "1e5"), "--from", "-2e5"),
        (("discretize", "--family", "harmonic", "--alpha", "1", "--xmax", "6", "--n", "32",
          "--states", "2"), "--shift", "-1e-3"),
    ])
    def test_spaced_value_writes_the_bytes_of_the_joined_one(self, tmp_path, argv, flag, value):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main([*argv, flag, value, "--json", str(spaced)]) == 0
        assert main([*argv, f"{flag}={value}", "--json", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("option", ["-x", "-e5"])
    def test_unknown_short_option_exits_2(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main([*self.SWEEP, option, "--from", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
