"""A sweep point carries the same verdicts as a full classification of its H."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import classify
from pseudoherm.families import instantiate_builtin
from pseudoherm.sweep import sweep_family

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
