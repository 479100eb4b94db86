"""Parameter sweeps of the built-in families across their breaking points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families, metrics
from .linalg import ToleranceConfig, eigendecompose

SECULAR_TOL = 1e-8

# Diagonalizer metric name -> the one relation it is built to certify.
_BUILT_FOR = {name: kind for name, _, kind in metrics.DIAGONALIZER_METRICS}


class InvalidRange(Exception):
    """Raised for an empty or inverted sweep range."""


@dataclass(frozen=True)
class SweepPointMetric:
    holds: bool
    canonical: np.ndarray


@dataclass(frozen=True)
class SweepPoint:
    value: float
    max_imag: float
    spectrum_real: bool
    metrics: dict


@dataclass(frozen=True)
class SweepResult:
    """Family sweep over one parameter.

    ``breaking_point`` brackets the first flip of the all-real flag (an
    interval, not a point: at the coalescence the pairing is
    ill-conditioned).  A metric is *secular* when it certifies at every
    real-phase point and its canonical normalization is constant across
    them to within ``SECULAR_TOL``.
    """

    family: str
    parameter: str
    fixed: dict
    points: tuple[SweepPoint, ...]
    breaking_point: tuple[float, float] | None
    secular_metrics: tuple[str, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.points)


def sweep_values(start: float, stop: float, step: float) -> np.ndarray:
    if step <= 0:
        raise InvalidRange("step must be positive")
    if stop < start:
        raise InvalidRange("empty range")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def sweep_family(family: str, parameter: str, values, fixed: dict,
                 tol: ToleranceConfig | None = None) -> SweepResult:
    """Evaluate a builtin family along one parameter.

    A candidate holds at a point when it certifies any relation, a
    diagonalizer metric when it certifies the one it is built for.
    """
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise InvalidRange("empty range")
    if np.any(np.diff(values) <= 0):
        raise InvalidRange("values must be strictly increasing")

    points: list[SweepPoint] = []
    for value in values:
        h, _, candidates, _ = families.instantiate_builtin(
            family, {**fixed, parameter: float(value)})
        spec = eigendecompose(h, tol)
        max_imag = float(np.abs(spec.eigenvalues.imag).max())
        all_real = all(tag.kind == "real" for tag in spec.reality)

        found: dict[str, SweepPointMetric] = {}
        checked, _, _ = metrics.check_metrics(h, candidates, spec, tol)
        for reports in checked:
            first = reports[metrics.PSEUDO_REAL]
            kind = _BUILT_FOR.get(first.name)
            holds = (reports[kind].holds if kind is not None
                     else any(r.holds for r in reports.values()))
            found[first.name] = SweepPointMetric(holds, first.metric)

        points.append(SweepPoint(float(value), max_imag, bool(all_real), found))

    breaking = None
    for i in range(len(points) - 1):
        if points[i].spectrum_real != points[i + 1].spectrum_real:
            breaking = (points[i].value, points[i + 1].value)
            break

    real_points = [p for p in points if p.spectrum_real]
    secular: list[str] = []
    for name in sorted({name for p in real_points for name in p.metrics}):
        entries = [p.metrics.get(name) for p in real_points]
        if any(e is None or not e.holds for e in entries):
            continue
        ref = entries[0].canonical
        if all(e.canonical.shape == ref.shape
               and float(np.abs(e.canonical - ref).max()) <= SECULAR_TOL
               for e in entries[1:]):
            secular.append(name)

    return SweepResult(
        family=family,
        parameter=parameter,
        fixed=dict(fixed),
        points=tuple(points),
        breaking_point=breaking,
        secular_metrics=tuple(secular),
    )
