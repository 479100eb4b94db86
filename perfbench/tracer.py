"""Spans around the program's layer boundaries, recorded from outside.

:class:`Tracer` wraps every public function of the six pseudoherm modules
(plus ``metrics._colinearity``, the per-eigenvector reality check that
``classify`` and ``eigenstate_reality_check`` both end in) and the two LAPACK entry points
``scipy.linalg.eig`` and ``scipy.linalg.lu_factor``.  A function is
replaced under every name it is bound to in the package, because a call
through a ``from .linalg import inverse`` binding never looks at
``linalg.inverse``.  The two scipy functions are looked up on
``scipy.linalg`` at call time, so their counts are exact.

Functions held in data structures rather than module namespaces (the
builders in ``families.BUILTINS``) are not wrapped; their time lands in
the self time of ``families.instantiate_builtin``.

A span is ``[op, name, parent, start, end, note]``: the op it belongs
to, the wrapped name, the index of the enclosing span (-1 at the root),
``perf_counter`` bounds, and a note taken from the return value or the
exception type.  Spans stay in memory; :meth:`Tracer.write` writes out
those of the last op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import scipy.linalg

LAYERS = ("linalg", "metrics", "inner", "schrodinger", "families", "cli")
PRIVATE_TRACED = {"metrics": ("_colinearity",)}
LAPACK = ("eig", "lu_factor")

CHECKS = ("metrics.check_pseudo_real", "metrics.check_pseudo_adjoint",
          "metrics.check_pseudo_hermitian")
DIAG_METRICS = ("linalg.build_diagonalizer", "metrics.rho_from_diagonalizer",
                "metrics.mu_from_diagonalizer", "metrics.eta_plus_from_diagonalizer")
GRAMS = ("inner.eta_gram", "inner.pt_gram", "inner.transpose_gram", "inner.hermitian_gram")


def _nonreal(spectrum) -> int:
    return sum(tag.kind != "real" for tag in spectrum.reality)


def _rejected(spectrum) -> int:
    return sum(f.startswith("boundary_filter_rejected") for f in spectrum.flags)


# Notes read off return values, keyed by the function's defining module.
NOTES = {
    "linalg.eigendecompose": _nonreal,
    "schrodinger.bound_spectrum": _rejected,
    **{name: (lambda report: int(report.holds)) for name in CHECKS},
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        wrapped: dict[int, object] = {}
        modules = [importlib.import_module("pseudoherm")]
        for layer in LAYERS:
            mod = importlib.import_module(f"pseudoherm.{layer}")
            modules.append(mod)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in PRIVATE_TRACED.get(layer, ()))):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self._wrap(name, fn, NOTES.get(name))
        for mod in modules:
            for attr, fn in vars(mod).items():
                if id(fn) in wrapped:
                    self._bindings.append((mod, attr, fn, wrapped[id(fn)]))
        for attr in LAPACK:
            fn = getattr(scipy.linalg, attr)
            self._bindings.append((scipy.linalg, attr, fn,
                                   self._wrap(f"scipy.linalg.{attr}", fn, None)))

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(result)
                return result
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace op number ``op`` while the block runs, then restore every binding."""
        self.op = op
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one traced op, from its spans."""
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        notes: dict[str, list] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        indexed = [(i, s) for i, s in enumerate(self.spans) if s[0] == op]
        for _, (_, _, parent, start, end, _) in indexed:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (_, name, _, start, end, note) in indexed:
            count[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[i]
            if note is not None:
                notes[name].append(note)

        def tot(names):
            return sum(total[n] for n in names)

        def cnt(names):
            return sum(count[n] for n in names)

        def noted(names):  # sum of the numeric notes
            return sum(x for n in names for x in notes[n] if not isinstance(x, str))

        def raised(names):  # number of calls that raised
            return sum(isinstance(x, str) for n in names for x in notes[n])

        checks = cnt(CHECKS)
        holding = noted(CHECKS)
        return {
            "linalg.eig_s": total["scipy.linalg.eig"],
            "linalg.eig_calls": count["scipy.linalg.eig"],
            "linalg.eigendecompose_self_s": own["linalg.eigendecompose"],
            "linalg.nonreal_eigs": noted(["linalg.eigendecompose"]),
            "linalg.lu_calls": count["scipy.linalg.lu_factor"],
            "linalg.lu_s": total["scipy.linalg.lu_factor"],
            "linalg.load_matrix_s": total["linalg.load_matrix"],
            "linalg.to_json_text_s": total["linalg.to_json_text"],
            "metrics.classify_self_s": own["metrics.classify"],
            "metrics.check_calls": checks,
            "metrics.check_s": tot(CHECKS),
            "metrics.check_hold_ratio": holding / checks if checks else 0.0,
            "metrics.reality_calls": count["metrics._colinearity"],
            "metrics.reality_s": total["metrics._colinearity"],
            "metrics.diag_metric_s": tot(DIAG_METRICS),
            "metrics.diag_suppressed": raised(DIAG_METRICS),
            "schrodinger.build_hamiltonian_s": total["schrodinger.build_hamiltonian"],
            "schrodinger.bound_spectrum_self_s": own["schrodinger.bound_spectrum"],
            "schrodinger.boundary_rejected": noted(["schrodinger.bound_spectrum"]),
            "inner.gram_s": tot(GRAMS),
            "inner.gram_calls": cnt(GRAMS),
            "families.instantiate_s": total["families.instantiate_builtin"],
            "families.instantiate_calls": count["families.instantiate_builtin"],
            "cli.sweep_family_self_s": own["cli.sweep_family"],
            "cli.build_report_self_s": own["cli.build_report"],
            "cli.self_s": sum(v for n, v in own.items() if n.startswith("cli.")),
        }

    def write(self, path: Path) -> None:
        """Write the spans of the last traced op as JSON lines.

        Each line is ``[op, name, parent, start, end, note]``; ``parent`` is
        the line number (from 0) of the enclosing span, and ``start`` and
        ``end`` are whole microseconds from the op's first span.
        """
        op = self.spans[-1][0]
        base = next(i for i, s in enumerate(self.spans) if s[0] == op)
        t0 = self.spans[base][3]
        with open(path, "w", encoding="utf-8") as fh:
            for _, name, parent, start, end, note in self.spans[base:]:
                fh.write(json.dumps([op, name, parent - base if parent >= 0 else -1,
                                     round((start - t0) * 1e6), round((end - t0) * 1e6),
                                     note]) + "\n")
