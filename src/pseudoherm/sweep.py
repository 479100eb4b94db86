"""Parameter sweeps of the built-in families across their breaking points.

A sweep builds and analyzes its points as one (points, n, n) stack of
Hamiltonians: one call of the family's builders, one eigensolve over the
stack, then one inversion and one residual pass per metric name over
the points that carry it.  These are the helpers the analysis of one
matrix runs with no stack axis, so each point gets the verdicts and
canonical metrics, bit for bit, of :func:`pseudoherm.metrics.check_metrics`
on its own H.  The result keeps these stacks; the objects of one point
are built only when asked for.  The special cases keep their per-point
outcome: a singular candidate fails with residual ``inf`` and keeps its
own entries, and a near-defective or singular D suppresses the
diagonalizer metrics at that point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import families, metrics
from .linalg import DEFAULT_TOL, ToleranceConfig, _intake, _is_real, _spectra, _unscale

SECULAR_TOL = 1e-8

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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Family sweep over one parameter, held as arrays over its points.

    ``values``, ``max_imag`` and ``spectrum_real`` have one entry per
    point.  ``stacks`` maps each metric name to ``(indices, holds,
    canonical)``: the points that carry it, whether it holds at each and
    its canonical (points, n, n) stack; candidates come in the order a
    point lists them, then the diagonalizer metrics.  ``points`` gives the
    same as one :class:`SweepPoint` per point.

    ``breaking_point`` brackets the first flip of the all-real flag (an
    interval, not a point: at the coalescence the pairing is
    ill-conditioned).  A metric is *secular* when it certifies at every
    real-phase point and its canonical normalization is constant across
    them to within ``SECULAR_TOL``.
    """

    family: str
    parameter: str
    fixed: dict
    values: np.ndarray
    max_imag: np.ndarray
    spectrum_real: np.ndarray
    stacks: dict
    breaking_point: tuple[float, float] | None
    secular_metrics: tuple[str, ...]

    @functools.cached_property
    def points(self) -> tuple[SweepPoint, ...]:
        entries = {name: {int(i): SweepPointMetric(bool(ok), c)
                          for i, ok, c in zip(idx, holds, canonical)}
                   for name, (idx, holds, canonical) in self.stacks.items()}
        return tuple(
            SweepPoint(float(value), float(top), bool(real),
                       {name: at[i] for name, at in entries.items() if i in at})
            for i, (value, top, real) in enumerate(
                zip(self.values, self.max_imag, self.spectrum_real)))


def sweep_values(start: float, stop: float, step: float) -> np.ndarray:
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidRange("from, to and step must be finite")
    if step <= 0:
        raise InvalidRange("step must be positive")
    if stop < start:
        raise InvalidRange("empty range")
    count = np.floor((stop - start) / step + 1e-9)
    if not math.isfinite(count):
        raise InvalidRange("the range holds more steps than a float can count")
    return start + step * np.arange(int(count) + 1)


def _stack(matrices) -> np.ndarray:
    """The matrices as one (points, n, n) complex stack; rejects non-finite entries."""
    stack = np.asarray(matrices, dtype=np.complex128)
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    return stack


def _verdicts(h, metric, metric_inv, kinds, tol: ToleranceConfig):
    """Whether each metric of a stack certifies any of ``kinds``, and its canonical form.

    A singular metric holds nothing and keeps its own entries.
    """
    residuals, pivot, _, singular = metrics._checks(h, metric, metric_inv, kinds)
    holds = np.logical_or.reduce([r <= tol.metric_tol for r in residuals])
    if singular.any():
        canonical = metric.copy()
        canonical[~singular] = metric[~singular] / pivot[~singular, None, None]
    else:
        canonical = metric / pivot[:, None, None]
    return holds, canonical


def _secular(idx: np.ndarray, holds: np.ndarray, canonical: np.ndarray,
             real: np.ndarray) -> bool:
    """Whether a metric carried at points ``idx`` holds at every real-phase
    point ``real`` with one canonical form there, to within ``SECULAR_TOL``."""
    at = np.searchsorted(idx, real)
    if not ((at < idx.size).all() and (idx[at] == real).all() and holds[at].all()):
        return False
    return bool((np.abs(canonical[at] - canonical[at[0]]).max(axis=(-2, -1))
                 <= SECULAR_TOL).all())


def sweep_family(family: str, parameter: str, values, fixed: dict,
                 tol: ToleranceConfig | None = None) -> SweepResult:
    """Evaluate a builtin family along one parameter.

    A candidate holds at a point when it certifies any relation, a
    diagonalizer metric when it certifies the one it is built for.  The
    points are built and analyzed as one stack (see the module docstring):
    ``families.builtin_stack``, ``linalg._intake`` and ``_spectra``, then
    :func:`pseudoherm.metrics._checks` once per metric name.
    """
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise InvalidRange("empty range")
    if np.any(np.diff(values) <= 0):
        raise InvalidRange("values must be strictly increasing")
    tol = tol or DEFAULT_TOL

    h, carried = families.builtin_stack(family, {**fixed, parameter: values})
    h, f = _intake(_stack(h))
    w, _, d, inverses, scale = _spectra(h)
    max_imag = np.abs(_unscale(w, f).imag).max(axis=-1)
    spectrum_real = _is_real(w, tol, scale).all(axis=-1)

    # name -> (indices of the points that carry it, holds, canonical)
    found: dict[str, tuple] = {}
    for name, (idx, metric) in carried.items():
        found[name] = (idx, *_verdicts(h[idx], _stack(metric), None, metrics.KINDS, tol))
    # the diagonalizer metrics are suppressed where D is near-defective or singular
    (idx,) = np.nonzero(~(inverses.condition > 1.0 / tol.metric_tol))
    if idx.size:
        pair = d[idx], inverses.inverse[idx]
        for name, build, build_inverse, kind in metrics.DIAGONALIZER_METRICS:
            found[name] = (idx, *_verdicts(h[idx], build(*pair), build_inverse(*pair),
                                           (kind,), tol))

    breaking = None
    flips = np.flatnonzero(spectrum_real[1:] != spectrum_real[:-1])
    if flips.size:
        breaking = (float(values[flips[0]]), float(values[flips[0] + 1]))

    real = np.flatnonzero(spectrum_real)
    secular = [name for name in sorted(found) if real.size and _secular(*found[name], real)]

    return SweepResult(
        family=family,
        parameter=parameter,
        fixed=dict(fixed),
        values=values,
        max_imag=max_imag,
        spectrum_real=spectrum_real,
        stacks=found,
        breaking_point=breaking,
        secular_metrics=tuple(secular),
    )
