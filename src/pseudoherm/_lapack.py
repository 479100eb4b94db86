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

``zgeev`` runs ``zgebal``, ``zgehrd``, ``zunghr``, ``zhseqr``, ``ztrevc3``
and ``zgebak``, then normalizes each eigenvector.  A grid Hamiltonian is
already upper Hessenberg, and on such a matrix with a real subdiagonal
``zgehrd``'s reflectors are all the identity (τ = 0): the reduction, one
O(n³) stage, does no work.  :func:`eig` skips it there (the Hessenberg
route, :func:`_hessenberg_eig`) and runs the other stages as ``zgeev``
runs them, with its workspace, so the bits are the same.  ``_flapack``
wraps ``zgebal`` but not ``zhseqr``, ``ztrevc3`` or ``zgebak``; these,
``zunghr`` (so that it shares the one workspace) and the four BLAS
routines of the normalization are called through ``ctypes`` from the
library of ``_flapack``, whose symbol lookup reaches scipy's bundled
OpenBLAS (:data:`HESSENBERG`; ``None`` when a symbol is missing, and then
every matrix takes ``zgeev``).  ``ctypes`` releases the GIL during these
calls; f2py's ``zgeev`` holds it.

The calls pass the arguments the public functions pass, so they give the
same bits (``tests/test_linalg.py::TestLapack``).  ``_flapack`` is a
private scipy module, and the ``scipy_``-prefixed symbols of its OpenBLAS
are private too, pinned by those tests rather than by an API.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
from types import SimpleNamespace

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

# The routines the Hessenberg route calls through ctypes: each symbol's
# result type and argument types.  Fortran takes every argument by
# reference, and after them the length of each character argument.
_P = ctypes.c_void_p
_SIGNATURES = {
    "zunghr": (None, [_P] * 9),
    "zhseqr": (None, [_P] * 13 + [ctypes.c_size_t] * 2),
    "ztrevc3": (None, [_P] * 17 + [ctypes.c_size_t] * 2),
    "zgebak": (None, [_P] * 10 + [ctypes.c_size_t] * 2),
    "dznrm2": (ctypes.c_double, [_P] * 3),
    "zdscal": (None, [_P] * 4),
    "idamax": (ctypes.c_int, [_P] * 3),
    "zscal": (None, [_P] * 4),
}


def bind(path: str) -> SimpleNamespace | None:
    """The routines of ``_SIGNATURES`` as scipy's OpenBLAS exports them
    (``scipy_zhseqr_``, ...), looked up from the library at ``path``, or
    ``None`` when it cannot be loaded or lacks one of them."""
    try:
        library = ctypes.CDLL(path)
        routines = {name: getattr(library, f"scipy_{name}_") for name in _SIGNATURES}
    except (OSError, AttributeError):
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        routines[name].restype = restype
        routines[name].argtypes = argtypes
    return SimpleNamespace(**routines)


HESSENBERG = bind(flapack.__file__)

# zgeev scales its input when the largest |a_ij| lies outside [SMALL, BIG]
# (its smlnum = sqrt(dlamch('S')) / dlamch('P') and bignum = 1 / smlnum)
SMALL, BIG = 2.0**-459, 2.0**459


def _raise_if_illegal(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK's {routine}")


def _raise_if_not_converged(info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(
            f"eig algorithm (zgeev) did not converge (only eigenvalues with order >= {info} "
            "have converged)")


def eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` and right eigenvectors ``vr`` (columns) of the square
    complex matrix ``a``, by ``zgeev`` with the workspace it asks for.

    A matrix of the Hessenberg route (:func:`_hessenberg_eig`) skips
    ``zgeev``'s Hessenberg reduction, with the same bits.
    Raises ``np.linalg.LinAlgError`` when the QR algorithm does not converge.
    """
    lwork, info = flapack.zgeev_lwork(a.shape[0], compute_vl=0, compute_vr=1)
    _raise_if_illegal(info, "zgeev_lwork")
    lwork = int(lwork.real)
    routed = _hessenberg_eig(a, lwork)
    if routed is not None:
        return routed
    w, _, vr, info = flapack.zgeev(a, compute_vl=0, compute_vr=1, lwork=lwork)
    _raise_if_illegal(info, "zgeev")
    _raise_if_not_converged(info)
    return w, vr


def _is_hessenberg(a: np.ndarray) -> bool:
    """Whether the C-contiguous complex128 matrix ``a`` is upper Hessenberg with
    a real subdiagonal and no part -0.0, and ``zgeev`` would not scale it.

    The rows are scanned one at a time, so no n x n temporary is built, and
    the scan stops at the first row with a nonzero below the subdiagonal:
    row 2 of a dense matrix.  The parts below the subdiagonal and the
    subdiagonal's imaginary parts must be +0.0, with no bit set.
    """
    if a.size == 0:
        return False
    parts = a.view(np.float64)
    bits = parts.view(np.int64)
    for i in range(2, a.shape[0]):
        if bits[i, :2 * i - 2].any():
            return False
    if np.diagonal(bits[:, 1::2], -1).any():
        return False
    # -0.0 is the float whose bits are the least int64
    if bits.min() == np.iinfo(np.int64).min:
        return False
    # |a_ij| lies between its larger part and twice that, so zgeev does not scale
    top = max(parts.max(), -parts.min())
    return SMALL <= top and 2.0 * top <= BIG  # false for inf and nan too


def _hessenberg_eig(a: np.ndarray, lwork: int) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`eig` of ``a`` without ``zgeev``'s Hessenberg reduction, with its bits,
    or ``None`` where ``zgeev`` must run whole (every ``a`` when :data:`HESSENBERG` is ``None``).

    The route takes a square C-contiguous complex128 ``a`` of :func:`_is_hessenberg`
    that ``zgebal('B')`` leaves unchanged (ilo = 1, ihi = n, every scale 1).
    There ``zgehrd`` leaves ``a`` bit for bit, since its reflectors are the
    identity and add only zeros to it (which may turn a -0.0 into +0.0, so
    the route refuses -0.0), and ``zunghr`` builds its Q from τ = 0 and the
    +0.0 below ``a``'s subdiagonal.  That Q equals I but for the sign of some
    zero imaginary parts, and as nothing shows that such a sign never reaches
    an output, Q is built by ``zunghr`` rather than set to I.  ``zhseqr('S', 'V')``
    and ``ztrevc3('R', 'B')`` then run on a Fortran copy T of ``a`` with
    ``zgeev``'s workspace ``lwork`` (their block sizes depend on it), and
    ``zgebak`` and the normalization follow as in ``zgeev``, through the
    same BLAS.  T overwrites itself with the Schur form; it and the
    eigenvectors are the two n x n arrays ``zgeev`` holds besides ``a``.
    """
    if (HESSENBERG is None or a.dtype != np.complex128 or a.ndim != 2
            or a.shape[0] != a.shape[1] or not a.flags.c_contiguous or not _is_hessenberg(a)):
        return None
    n = a.shape[0]
    t, lo, hi, scaling, info = flapack.zgebal(np.array(a, order="F"), scale=1, permute=1,
                                              overwrite_a=1)
    _raise_if_illegal(info, "zgebal")
    if lo != 0 or hi != n - 1 or (scaling != 1.0).any():
        return None

    lapack, status = HESSENBERG, ctypes.c_int()
    size, one, work_size = (ctypes.byref(ctypes.c_int(value)) for value in (n, 1, lwork))
    info = ctypes.byref(status)
    vr, tau = np.zeros((n, n), np.complex128, order="F"), np.zeros(n, np.complex128)
    work, rwork = np.empty(lwork, np.complex128), np.empty(n)
    # zgeev lends zunghr its workspace after the n entries of tau
    lapack.zunghr(size, one, size, vr.ctypes.data, size, tau.ctypes.data, work.ctypes.data,
                  ctypes.byref(ctypes.c_int(lwork - n)), info)
    _raise_if_illegal(status.value, "zunghr")
    w = np.empty(n, np.complex128)
    lapack.zhseqr(b"S", b"V", size, one, size, t.ctypes.data, size, w.ctypes.data,
                  vr.ctypes.data, size, work.ctypes.data, work_size, info, 1, 1)
    _raise_if_illegal(status.value, "zhseqr")
    _raise_if_not_converged(status.value)
    lapack.ztrevc3(b"R", b"B", None, size, t.ctypes.data, size, None, one, vr.ctypes.data, size,
                   size, ctypes.byref(ctypes.c_int()), work.ctypes.data, work_size,
                   rwork.ctypes.data, size, info, 1, 1)
    _raise_if_illegal(status.value, "ztrevc3")
    del t, work
    lapack.zgebak(b"B", b"R", size, one, size, scaling.ctypes.data, size, vr.ctypes.data, size,
                  info, 1, 1)
    _raise_if_illegal(status.value, "zgebak")

    # each column to unit 2-norm, then its first largest |v_k| rotated onto
    # the real axis and its imaginary part set to +0.0.  zgeev's phase
    # conj(v_k) / |v_k| is a complex division by (|v_k|, 0), which the
    # compiled LAPACK does by Smith's formula: its ratio is 0, and the zero
    # products with it decide the sign of a zero part of the phase, as the
    # parts divided one by one would not
    inverse_norm, phase = ctypes.c_double(), np.empty(1, np.complex128)
    squares = np.empty(n)
    for i in range(n):
        column = vr[:, i]
        at = column.ctypes.data
        inverse_norm.value = 1.0 / lapack.dznrm2(size, at, one)
        lapack.zdscal(size, ctypes.byref(inverse_norm), at, one)
        np.multiply(column.real, column.real, out=rwork)
        np.multiply(column.imag, column.imag, out=squares)
        rwork += squares
        k = lapack.idamax(size, rwork.ctypes.data, one) - 1
        modulus, re, im = math.sqrt(rwork[k]), column.real[k], -column.imag[k]
        phase[0] = complex((im * 0.0 + re) / modulus, (im - re * 0.0) / modulus)
        lapack.zscal(size, phase.ctypes.data, at, one)
        column.imag[k] = 0.0
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
