"""The three LAPACK routines of an analysis, called straight from scipy's ``_flapack``.

An analysis needs ``zgeev`` (eigenvalues and right eigenvectors) and
``zgetrf``/``zgetrs`` (LU factors and solves).  scipy's public
``scipy.linalg.eig``, ``lu_factor`` and ``lu_solve`` call them through the
f2py extension ``scipy.linalg._flapack``, but importing ``scipy.linalg``
also loads its whole Python layer (and ``numpy.f2py`` with it), which costs
more than most commands take.  So this module loads the extension file
alone, by its path in the installed scipy, without running
``scipy/linalg/__init__.py``.  If ``scipy.linalg`` is already loaded, its
``_flapack`` is reused; if the load by path fails, ``import
scipy.linalg._flapack`` is the fallback.

The calls pass the arguments the public functions pass, so they give the
same bits (``tests/test_linalg.py::TestLapack``).  ``_flapack`` is a
private scipy module, pinned by those tests rather than by an API.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

NAME = "scipy.linalg._flapack"


def load_by_path(directory: str):
    """The ``_flapack`` extension in ``directory``, loaded as a module of its own."""
    spec = importlib.machinery.PathFinder.find_spec(NAME, [directory])
    if spec is None:
        raise ImportError(f"no {NAME} in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading an extension enters it in sys.modules under its full name; take
    # it out, or a later ``import scipy.linalg`` would reuse it without making
    # it an attribute of scipy.linalg (CPython keeps the extension loaded, and
    # that import gets a module of the same functions)
    if sys.modules.get(NAME) is module:
        del sys.modules[NAME]
    return module


def _load() -> tuple[object, str]:
    """scipy's ``_flapack`` and the route that loaded it: ``"scipy.linalg"``
    (already imported), ``"path"`` or ``"fallback"``."""
    if NAME in sys.modules:
        return sys.modules[NAME], "scipy.linalg"
    try:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or not scipy.submodule_search_locations:
            raise ImportError("scipy is not installed as a package")
        return load_by_path(os.path.join(scipy.submodule_search_locations[0], "linalg")), "path"
    except ImportError:
        import scipy.linalg._flapack as flapack

        return flapack, "fallback"


flapack, LOADED_BY = _load()


def _raise_if_illegal(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's {routine}")


def eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` and right eigenvectors ``vr`` (columns) of the square
    complex matrix ``a``, by ``zgeev`` with the workspace it asks for.

    Raises ``np.linalg.LinAlgError`` when the QR algorithm does not converge.
    """
    lwork, info = flapack.zgeev_lwork(a.shape[0], compute_vl=0, compute_vr=1)
    _raise_if_illegal(info, "zgeev_lwork")
    w, _, vr, info = flapack.zgeev(a, compute_vl=0, compute_vr=1, lwork=int(lwork.real))
    _raise_if_illegal(info, "zgeev")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"eig algorithm (zgeev) did not converge (only eigenvalues with order >= {info} "
            "have converged)")
    return w, vr


def getrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors ``lu`` (L below the unit diagonal, U on and above it) and 0-based
    row pivots ``piv`` of each square matrix on the last two axes of ``a``, by ``zgetrf``.

    A stack is factored one matrix at a time.  An exactly singular matrix is
    factored too: a zero on U's diagonal is the caller's to judge.
    """
    if a.ndim == 2:
        return _getrf(a)
    n = a.shape[-1]
    lu = np.empty(a.shape, dtype=np.complex128)
    piv = np.empty(a.shape[:-1], dtype=np.int32)
    for one, lu_one, piv_one in zip(a.reshape(-1, n, n), lu.reshape(-1, n, n),
                                    piv.reshape(-1, n)):
        lu_one[...], piv_one[...] = _getrf(one)
    return lu, piv


def _getrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lu, piv, info = flapack.zgetrf(a)
    _raise_if_illegal(info, "zgetrf")
    return lu, piv


def getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution ``x`` of ``a x = b`` from the factors ``getrf(a)``, by ``zgetrs``.

    A Fortran-contiguous complex128 ``b`` is consumed: it is solved in place
    and returned as ``x``.  Any other ``b`` is copied first and kept.
    """
    x, info = flapack.zgetrs(lu, piv, b, overwrite_b=1)
    _raise_if_illegal(info, "zgetrs")
    return x
