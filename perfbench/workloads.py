"""Seeded workloads for the pseudoherm CLI benchmark.

Each workload turns a seed into one CLI invocation (an argv list, plus
input files for ``analyze``), an oracle that checks the report against
values known independently of the program, and a projection of the
report onto its verdict fields, which must match ``reference.json``.

The seed picks the parameters; the program sees nothing but the
generated argv and files.  Where a verdict depends on a parameter (the
reality checks of near-degenerate box states on the oscillator grid, the
fourth state the boundary filter keeps on the Morse grid), the seed picks
one of a fixed set of values, the workload's *variants*, and the
reference holds the verdicts of each variant.  Elsewhere the parameters
are drawn from a continuous range and one reference serves every seed.

Two sizes exist: ``full`` is the measured size, ``toy`` the smoke-test
size.  Toy grids are coarser, and the finite-difference error of a bound
energy grows as the grid spacing squared, so the grid oracles scale
their tolerance by ``(h_toy / h_full) ** 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("grid-real", "grid-complex", "sweep-2level", "analyze-dense")

# Interior grid points (grids), sweep step, matrix dimension (analyze).
SIZES = {
    "full": {"grid-real": 512, "grid-complex": 768, "sweep-2level": 0.002,
             "analyze-dense": 256},
    "toy": {"grid-real": 128, "grid-complex": 128, "sweep-2level": 0.1,
            "analyze-dense": 32},
}

# Bound-energy tolerances of acceptance criterion 7 (oscillator, Morse).
OSCILLATOR_TOL = 5e-3
MORSE_TOL = 1e-2

HARMONIC_XMAX = 10.0
MORSE_C, MORSE_D, MORSE_XMIN, MORSE_XMAX, MORSE_MASS = 3.5, 4.0, -4.0, 14.0, 0.5
H8_A = 0.3
ALPHAS = (0.96, 0.97, 0.98, 0.99, 1.0, 1.01, 1.02, 1.03, 1.04)
SHIFTS = (0.46, 0.47, 0.48, 0.49, 0.5, 0.51, 0.52, 0.53, 0.54)


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str  # key of this workload's verdicts in reference.json
    argv: list[str]
    oracle: Callable[[dict], str | None]  # report -> None, or why it failed


def _spacing(x_min: float, x_max: float, n: int) -> float:
    return (x_max - x_min) / (n + 1)


def _grid_tol(base: float, x_min: float, x_max: float, size: str, name: str) -> float:
    h = _spacing(x_min, x_max, SIZES[size][name])
    h_full = _spacing(x_min, x_max, SIZES["full"][name])
    return base * max(1.0, (h / h_full) ** 2)


def _eigenvalues(doc: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]])


def _grid_real(rng, variant: int, size: str, work: Path) -> Workload:
    alpha = ALPHAS[variant]
    n = SIZES[size]["grid-real"]
    tol = _grid_tol(OSCILLATOR_TOL, -HARMONIC_XMAX, HARMONIC_XMAX, size, "grid-real")

    def oracle(doc):
        ev = _eigenvalues(doc)
        exact = alpha * (np.arange(ev.size) + 0.5)
        err = float(np.abs(ev - exact).max())
        if ev.size != 4 or err > tol:
            return f"{ev.size} bound energies, max error {err:.3e} vs alpha(k+1/2) (tol {tol:.1e})"
        return None

    argv = ["discretize", "--family", "harmonic", "--alpha", repr(alpha),
            "--xmax", repr(HARMONIC_XMAX), "--n", str(n)]
    return Workload("grid-real", f"alpha={alpha!r}", argv, oracle)


def _grid_complex(rng, variant: int, size: str, work: Path) -> Workload:
    shift = SHIFTS[variant]
    n = SIZES[size]["grid-complex"]
    tol = _grid_tol(MORSE_TOL, MORSE_XMIN, MORSE_XMAX, size, "grid-complex")

    def oracle(doc):
        # The fourth level, -0.25, sits at the edge of the box: depending on
        # the shift the boundary filter keeps it or a box state instead.
        ev = _eigenvalues(doc)[:3]
        exact = -(MORSE_C - np.arange(3)) ** 2
        err = float(np.abs(ev - exact).max()) if ev.size == 3 else math.inf
        if err > tol:
            return f"bound energies off -(C-k)^2 by {err:.3e} (tol {tol:.1e})"
        return None

    argv = ["discretize", "--family", "morse", "--C", repr(MORSE_C), "--D", repr(MORSE_D),
            "--shift", repr(shift), "--xmin", repr(MORSE_XMIN), "--xmax", repr(MORSE_XMAX),
            "--mass", repr(MORSE_MASS), "--n", str(n)]
    return Workload("grid-complex", f"shift={shift!r}", argv, oracle)


def _sweep_2level(rng, variant: int, size: str, work: Path) -> Workload:
    c = float(rng.uniform(0.95, 1.05))
    d = float(rng.uniform(0.45, 0.55))
    threshold = math.sqrt(c * c + d * d)

    def oracle(doc):
        bracket = doc["breaking_point"]
        if bracket is None or not bracket[0] <= threshold <= bracket[1]:
            return f"breaking bracket {bracket} misses sqrt(c^2+d^2) = {threshold!r}"
        return None

    argv = ["sweep", "H8", "b", f"a={H8_A!r}", f"c={c!r}", f"d={d!r}",
            "--from", "0", "--to", "2", "--step", repr(SIZES[size]["sweep-2level"])]
    return Workload("sweep-2level", "any", argv, oracle)


def _analyze_dense(rng, variant: int, size: str, work: Path) -> Workload:
    # Imported here: linalg is the program's own interchange writer, and
    # importing it at module level would import the program before run.py
    # has checked that the checkout holds it.
    from pseudoherm.linalg import save_matrix

    n = SIZES[size]["analyze-dense"]
    # A unit-diagonal S with a small Gaussian perturbation has a condition
    # number below ~4 at any n, so the diagonalizer metrics are built.
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = np.eye(n) + (0.3 / math.sqrt(2.0 * n)) * noise
    lam = np.linspace(-2.0, 2.0, n) + rng.uniform(-0.2, 0.2, size=n) * (4.0 / n)
    s_inv = np.linalg.inv(s)
    h = s @ np.diag(lam) @ s_inv
    files = {"H": h, "rho": s.conj() @ s_inv, "eta": np.linalg.inv(s @ s.conj().T)}
    paths = {}
    for key, m in files.items():
        paths[key] = work / f"{key}.json"
        save_matrix(paths[key], m)
    exact = np.sort(lam)
    tol = 1e-8 * max(1.0, float(np.linalg.norm(h)))  # the CLI's reality tolerance

    def oracle(doc):
        ev = _eigenvalues(doc)
        err = float(np.abs(ev - exact).max())
        if err > tol:
            return f"eigenvalues off the generated spectrum by {err:.3e} (tol {tol:.1e})"
        cls = doc["classification"]
        for kind, name in (("pseudo_real", "rho"), ("pseudo_hermitian", "eta")):
            if not any(r["name"] == name and r["holds"] for r in cls[kind]):
                return f"supplied {name} does not hold as {kind}"
        return None

    argv = ["analyze", "--matrix", str(paths["H"]), "--rho", str(paths["rho"]),
            "--eta", str(paths["eta"])]
    return Workload("analyze-dense", "any", argv, oracle)


# name -> (maker, number of variants)
_MAKERS = {
    "grid-real": (_grid_real, len(ALPHAS)),
    "grid-complex": (_grid_complex, len(SHIFTS)),
    "sweep-2level": (_sweep_2level, 1),
    "analyze-dense": (_analyze_dense, 1),
}


def variant_count(name: str) -> int:
    return _MAKERS[name][1]


def make(name: str, seed: int, size: str, work: Path, variant: int | None = None) -> Workload:
    """Generate workload ``name`` for ``seed``; input files go under ``work``.

    The seed picks the variant unless ``variant`` is given.
    """
    maker, count = _MAKERS[name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if variant is None:
        variant = int(rng.integers(count))
    return maker(rng, variant, size, work)


def _runs(flags: list[str]) -> list[list]:
    """Run-length encode a sequence: [[value, count], ...]."""
    out: list[list] = []
    for f in flags:
        if out and out[-1][0] == f:
            out[-1][1] += 1
        else:
            out.append([f, 1])
    return out


def verdicts(doc: dict) -> dict:
    """The verdict fields of a report: holds flags, reality tags, signatures.

    Sweep points are reduced to the sequence of distinct per-point verdicts
    (with run lengths dropped), because where the breaking point falls on
    the grid depends on the seed, while the order of phases does not.
    """
    if "points" in doc:
        per_point = [
            ("real" if p["spectrum_real"] else "broken")
            + ":" + ",".join(sorted(k for k, m in p["metrics"].items() if m["holds"]))
            for p in doc["points"]
        ]
        return {
            "phases": [v for v, _ in _runs(per_point)],
            "bracketed": doc["breaking_point"] is not None,
            "secular_metrics": doc["secular_metrics"],
        }
    cls = doc["classification"]
    by_metric: dict[str, list[str]] = {}
    for c in cls["reality_checks"]:
        by_metric.setdefault(c["metric"], []).append("1" if c["holds"] else "0")
    pt = cls["pt_symmetric"]
    pt_holds = pt is not None and pt["holds"]
    # A PT Gram is built whenever the PT check ran, but its signs only mean
    # something when PT symmetry holds; otherwise they are rounding noise.
    grams = [[g["kind"], g["metric"],
              "".join(g["signature"]) if g["kind"] != "pt" or pt_holds else None]
             for g in doc["grams"]]
    return {
        "reality": _runs([t["tag"] + (f":{t['partner']}" if "partner" in t else "")
                          for t in doc["spectrum"]["reality"]]),
        "hermitian": cls["hermitian"]["holds"],
        "self_adjoint": cls["self_adjoint"]["holds"],
        **{kind: [[r["name"], r["holds"]] for r in cls[kind]]
           for kind in ("pseudo_real", "pseudo_adjoint", "pseudo_hermitian")},
        "pt_symmetric": None if pt is None else pt["holds"],
        "reality_checks": {k: _runs(v) for k, v in by_metric.items()},
        "grams": grams,
    }
