"""A sweep point carries the same verdicts as a full classification of its H."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import classify, metrics
from pseudoherm.families import instantiate_builtin
from pseudoherm.linalg import eigendecompose
from pseudoherm.sweep import sweep_family, sweep_values

# The relation each diagonalizer construction is built to certify; every
# other metric holds at a sweep point when it certifies any relation.
BUILT_FOR = {
    "from_D_rho": "pseudo_real",
    "from_D_mu": "pseudo_adjoint",
    "from_D_eta_plus": "pseudo_hermitian",
}

coefficients = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
couplings = st.floats(min_value=0.1, max_value=2.0, allow_nan=False)
sweep_grids = st.lists(st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                       min_size=1, max_size=4, unique=True).map(sorted)


def assert_sweep_matches_classify(family, parameter, values, fixed):
    result = sweep_family(family, parameter, values, fixed)
    for point in result.points:
        h, _, candidates, _ = instantiate_builtin(family, {**fixed, parameter: point.value})
        report = classify(h, candidates)
        assert point.spectrum_real == all(t.kind == "real" for t in report.spectrum.reality)
        max_imag = np.abs(eigendecompose(h).eigenvalues.imag).max()
        assert np.float64(point.max_imag).tobytes() == max_imag.tobytes(), point.value

        by_kind = {"pseudo_real": report.pseudo_real,
                   "pseudo_adjoint": report.pseudo_adjoint,
                   "pseudo_hermitian": report.pseudo_hermitian}
        names = [r.name for r in report.pseudo_real]
        assert list(point.metrics) == names
        for i, name in enumerate(names):
            if name in BUILT_FOR:
                holds = by_kind[BUILT_FOR[name]][i].holds
            else:
                holds = any(reports[i].holds for reports in by_kind.values())
            entry = point.metrics[name]
            assert entry.holds == holds, (point.value, name)
            canonical = report.pseudo_real[i].metric
            assert entry.canonical.shape == canonical.shape
            assert entry.canonical.tobytes() == canonical.tobytes(), (point.value, name)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["H5", "H6", "H7"]), a=coefficients, c=couplings,
       values=sweep_grids)
@example(family="H5", a=0.0, c=1.0, values=[0.5, 1.0, 1.5])  # across b = c
@example(family="H5", a=0.0, c=1.0, values=[1.0 + 1e-14])  # |Im E| ~ 1e-7, not real
def test_two_level_sweep_matches_classify(family, a, c, values):
    assert_sweep_matches_classify(family, "b", values, {"a": a, "c": c})


@settings(max_examples=30, deadline=None)
@given(a=coefficients, c=couplings, d=couplings, values=sweep_grids)
# closed-form mu is singular at b = 1
@example(a=0.0, c=0.6, d=0.8000000000000002, values=[0.0, 0.5, 1.0, 1.5])
def test_h8_sweep_matches_classify(a, c, d, values):
    assert_sweep_matches_classify("H8", "b", values, {"a": a, "c": c, "d": d})


@settings(max_examples=20, deadline=None)
@given(omega=couplings, values=sweep_grids)
def test_m3_sweep_matches_classify(omega, values):
    assert_sweep_matches_classify("M3", "g", values, {"omega": omega})


# Long grids through the stacked path: whole sweeps whose points cross an
# exceptional point, and one whose grid hits a singular closed-form metric.
@pytest.mark.parametrize("family, parameter, grid, fixed", [
    ("H8", "b", (0.0, 2.0, 0.01), {"a": 0.3, "c": 1.0, "d": 0.5}),
    ("H8", "b", (0.0, 2.0, 0.05), {"a": 0.0, "c": 0.6, "d": 0.8000000000000002}),  # b = 1
    ("H6", "b", (-2.0, 2.0, 0.05), {"a": 0.5, "c": 1.0}),
    ("H7", "b", (-2.0, 2.0, 0.05), {"a": 0.0, "c": 1.0}),
    ("M3", "g", (0.0, 3.0, 0.01), {"omega": 1.0}),
])
def test_long_sweep_matches_classify(family, parameter, grid, fixed):
    values = sweep_values(*grid)
    if family == "H8" and fixed["a"] == 0.0:
        assert 1.0 in values
    assert_sweep_matches_classify(family, parameter, values, fixed)


def test_sweep_runs_no_reality_check(monkeypatch):
    colinearity, lu = [], []
    colinearity_of, lu_factor = metrics._colinearity, scipy.linalg.lu_factor

    def counting_colinearity(*args, **kwargs):
        colinearity.append(args)
        return colinearity_of(*args, **kwargs)

    def counting_lu(*args, **kwargs):
        lu.append(args[0].shape)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(metrics, "_colinearity", counting_colinearity)
    monkeypatch.setattr(scipy.linalg, "lu_factor", counting_lu)
    a, c, d = 0.3, 1.0, 0.5
    result = sweep_family("H8", "b", sweep_values(0.0, 2.0, 0.1), {"a": a, "c": c, "d": d})
    lo, hi = result.breaking_point
    assert lo <= math.hypot(c, d) <= hi
    assert colinearity == []
    # one call on a stack: the eigenvector matrices of all 21 points, then
    # each closed form over the 12 real-phase points that carry it; sigma_x
    # is a permutation, which takes index gathers, and the diagonalizer
    # metrics and their inverses are products of the inverses of D
    assert lu == [(21, 2, 2), (12, 2, 2), (12, 2, 2), (12, 2, 2)]
