"""The sweep report from its stacks: stacked family builders and the matrix renderer.

The oracles are the per-point forms these replace: one matrix document
per metric and per point, and one family instantiation per point.  The
stacked forms must give the same bytes, signs of zeros included, since
report fingerprints hash them.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pseudoherm import cli, families
from pseudoherm.linalg import as_matrix, to_json_text
from pseudoherm.sweep import sweep_family

# ---------------------------------------------------------------------------
# Oracles: the per-matrix and per-point forms
# ---------------------------------------------------------------------------


def reference_fingerprint(m) -> str:
    m = as_matrix(m)
    digest = hashlib.sha256(f"{m.shape[0]}:".encode())
    digest.update(np.ascontiguousarray(m).tobytes())
    return digest.hexdigest()[:16]


def reference_matrix_doc(m) -> dict:
    m = as_matrix(m)
    if m.shape[0] <= cli.EMBED_LIMIT:
        return {"n": m.shape[0], "rows": m, "fingerprint": reference_fingerprint(m)}
    return {"n": m.shape[0], "fingerprint": reference_fingerprint(m)}


def reference_sweep_doc(result) -> dict:
    return {
        "family": result.family,
        "parameter": result.parameter,
        "fixed": result.fixed,
        "values": list(result.values),
        "points": [
            {
                "value": p.value,
                "max_imag": p.max_imag,
                "spectrum_real": p.spectrum_real,
                "metrics": {
                    name: {"holds": m.holds, "canonical": reference_matrix_doc(m.canonical)}
                    for name, m in p.metrics.items()
                },
            }
            for p in result.points
        ],
        "breaking_point": list(result.breaking_point) if result.breaking_point else None,
        "secular_metrics": list(result.secular_metrics),
    }


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def reference_h8_candidates(a, b, c, d) -> dict:
    """The H8 candidates of one point, built from Python floats."""
    cand = {"sigma_x": SIGMA_X}
    e2 = c * c + d * d - b * b
    if e2 <= 0:
        return cand
    e = float(np.sqrt(e2))
    th, ph = float(np.arctan2(b, e)), float(np.arctan2(d, c))
    s = np.sin(th)
    pref = 0.5 / np.cos(th) ** 2  # a numpy scalar: C pow
    cand["closed_form_rho"] = np.array([
        [1.0, -2j * np.exp(1j * ph) * np.sin(th)],
        [0.0, np.exp(2j * ph)],
    ], dtype=np.complex128)
    cand["closed_form_mu"] = pref * np.array([
        [1.0, -1j * np.exp(1j * ph) * s],
        [-1j * s * np.exp(1j * ph), np.cos(2 * th) * np.exp(2j * ph)],
    ], dtype=np.complex128)
    cand["closed_form_eta_plus"] = pref * np.array([
        [1.0, -1j * s * np.exp(1j * ph)],
        [1j * s * np.exp(-1j * ph), 1.0],
    ], dtype=np.complex128)
    return cand


def reference_m3(g, omega) -> np.ndarray:
    x = np.array([[0.0, np.sqrt(0.5), 0.0], [np.sqrt(0.5), 0.0, 1.0], [0.0, 1.0, 0.0]])
    levels = omega * (np.arange(3) + 0.5)
    return np.diag(levels).astype(np.complex128) + 1j * g * (x @ x @ x)


# ---------------------------------------------------------------------------
# (a) the stack renderer writes the bytes of one document per matrix
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308, 1.0, -1.5]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
LAYOUTS = ["C", "F", "transposed", "strided"]


@st.composite
def stacks(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 20))  # across EMBED_LIMIT = 16
    parts = draw(hnp.arrays(np.float64, (k, n, n, 2), elements=values))
    stack = parts.view(np.complex128)[..., 0]  # re, im pairs, bit for bit
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "F":
        stack = np.asfortranarray(stack)
    elif layout == "transposed":
        stack = stack.transpose(0, 2, 1)
    elif layout == "strided":
        stack = np.repeat(stack, 2, axis=-1)[..., ::2]
    return stack


@settings(max_examples=60, deadline=None)
@given(stack=stacks())
def test_stack_renderer_writes_the_per_matrix_bytes(stack):
    texts = cli._matrix_texts(stack)
    assert len(texts) == len(stack)
    for m, text in zip(stack, texts):
        expected = to_json_text(reference_matrix_doc(m))
        assert text == expected
        assert to_json_text({"metric": text}) == '{"metric": ' + expected + "}"
        assert cli._matrix_doc(m) == expected
        assert cli.fingerprint(m) == reference_fingerprint(m)


@settings(max_examples=30, deadline=None)
@given(stack=stacks(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       where=st.tuples(st.integers(0, 4), st.integers(0, 19), st.integers(0, 19),
                       st.booleans()))
def test_a_non_finite_value_anywhere_raises(stack, bad, where):
    stack = np.array(stack)
    k, i, j, imaginary = where
    k, i, j = k % stack.shape[0], i % stack.shape[1], j % stack.shape[2]
    if imaginary:
        stack.imag[k, i, j] = bad
    else:
        stack.real[k, i, j] = bad
    with pytest.raises(ValueError, match="^cannot serialize non-finite float$"):
        cli._matrix_texts(stack)
    # one matrix: the message of the per-matrix document
    with pytest.raises(ValueError) as expected:
        reference_matrix_doc(stack[k])
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        cli._matrix_doc(stack[k])


# ---------------------------------------------------------------------------
# (b) the sweep document written from the stacks
# ---------------------------------------------------------------------------

PARAMETERS = {"H5": "abc", "H6": "abc", "H7": "abc", "H8": "abcd", "M3": ("g", "omega")}
sweep_grids = st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                       min_size=1, max_size=6, unique=True).map(sorted)


def assert_sweep_doc_matches(family, parameter, values, fixed):
    result = sweep_family(family, parameter, values, fixed)
    text = to_json_text(cli._sweep_doc(result))
    assert "points" not in vars(result)  # the report builds no per-point objects
    assert text == to_json_text(reference_sweep_doc(result))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(PARAMETERS)), data=st.data(), values=sweep_grids)
def test_sweep_doc_matches_the_per_point_doc(family, data, values):
    parameter = data.draw(st.sampled_from(list(PARAMETERS[family])))
    fixed = {p: data.draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
             for p in PARAMETERS[family] if p != parameter}
    assert_sweep_doc_matches(family, parameter, values, fixed)


@pytest.mark.parametrize("family,parameter,values,fixed", [
    # H8 in the broken phase only, and across its exceptional point in c and d
    ("H8", "b", [2.0, 2.5, 3.0], {"a": 0.0, "c": 1.0, "d": 0.5}),
    ("H8", "c", [-2.0, -0.5, 0.0, 0.5, 2.0], {"a": 0.0, "b": 1.0, "d": 0.5}),
    ("H8", "d", [-2.0, -0.0, 0.5, 2.0], {"a": 0.3, "b": 1.0, "c": 0.5}),
    # the closed-form mu is singular at b = 1
    ("H8", "b", [0.0, 0.5, 1.0, 1.5, 2.0], {"a": 0.0, "c": 0.6, "d": 0.8000000000000002}),
    ("M3", "omega", [-1.0, -0.5, 0.0, 0.5, 1.0], {"g": 1.0}),
    ("H5", "a", [-1.0, 0.0, 1.0], {"b": 0.5, "c": 1.0}),
])
def test_sweep_doc_matches_on_named_sweeps(family, parameter, values, fixed):
    assert_sweep_doc_matches(family, parameter, values, fixed)


# ---------------------------------------------------------------------------
# (c) the stacked builders equal instantiate_builtin bit for bit
# ---------------------------------------------------------------------------


def assert_stack_matches_points(family, parameter, values, fixed):
    h, carried = families.builtin_stack(family, {**fixed, parameter: np.array(values)})
    assert h.shape[0] == len(values)
    for i, value in enumerate(values):
        one_h, _, one_cand, _ = families.instantiate_builtin(family, {**fixed, parameter: value})
        assert h[i].tobytes() == one_h.tobytes(), value
        names = [name for name, (idx, _) in carried.items() if i in idx]
        assert names == list(one_cand), value
        for name in names:
            idx, stack = carried[name]
            at = int(np.searchsorted(idx, i))
            assert stack[at].tobytes() == one_cand[name].tobytes(), (value, name)
        params = {**fixed, parameter: value}
        if family == "H8":
            reference = reference_h8_candidates(**params)
            assert list(reference) == names
            for name in names:
                assert one_cand[name].tobytes() == reference[name].tobytes(), (value, name)
        elif family == "M3":
            assert one_h.tobytes() == reference_m3(**params).tobytes(), value


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(PARAMETERS)), data=st.data(), values=sweep_grids)
def test_stacked_builders_match_instantiate_builtin(family, data, values):
    parameter = data.draw(st.sampled_from(list(PARAMETERS[family])))
    fixed = {p: data.draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
             for p in PARAMETERS[family] if p != parameter}
    assert_stack_matches_points(family, parameter, values, fixed)


@settings(max_examples=20, deadline=None)
@given(b=st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                  min_size=1, max_size=40, unique=True).map(sorted),
       c=st.floats(min_value=0.5, max_value=1.5), d=st.floats(min_value=-1.0, max_value=1.0))
# 0.5 / cos(theta) ** 2 differs in the last bit when the square is multiplied, not C pow
@example(b=[0.0, 1.1682152287530652, 1.5], c=1.1218120574938264, d=-0.5762663372179997)
# a product that underflows to -0.0 in a fused multiply-add and to +0.0 - (-0.0) without
@example(b=[1.4475541226621065e-209], c=1.0, d=-3.6383071441244075e-277)
def test_h8_closed_forms_match_per_point(b, c, d):
    assert_stack_matches_points("H8", "b", b, {"a": 0.3, "c": c, "d": d})


@pytest.mark.parametrize("values", [[-1.0, -0.5, -0.0, 0.0, 0.5], [-2.0]])
def test_m3_negative_omega_keeps_positive_zeros(values):
    assert_stack_matches_points("M3", "omega", values, {"g": 0.7})
    h, _ = families.builtin_stack("M3", {"omega": np.array(values)})
    off = ~np.eye(3, dtype=bool)
    assert not np.signbit(h.real[:, off]).any()
