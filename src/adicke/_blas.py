"""numpy's bundled OpenBLAS: one thread per tensor evaluation, and its banded routines.

numpy bundles an OpenBLAS, which by default starts one thread per core, and
numpy's LAPACK is the only one the package's routes call.  The kernels of
one evaluation are too small to share: the banded Cholesky factor, the
Lanczos basis and the resolvent's matrix-vector products leave the second
thread spinning, which doubles the CPU time of a point and, at
half-bandwidths of 21 and more, slows the factor 3-7x on a 2-core machine.
``single_thread`` sets numpy's OpenBLAS to one thread and gives it its
saved count back on exit.  With no bundled OpenBLAS found (another BLAS
build) it does nothing.

The shift-invert route needs three banded routines of a Hermitian matrix
held in LAPACK's upper band storage: the Cholesky factor (``pbtrf``), the
solve with it (``pbtrs``) and the product with a vector (``hbmv``).  They
are bound by ctypes from numpy's own OpenBLAS, whose LAPACKE and CBLAS
entry points take column-major arrays.  ``solver`` and ``product`` bind a
band's pointer once and return a callable that solves or multiplies in
place, so an iteration pays for the binding once; a block-diagonal band
(``model.BandStack``) makes each such call serve several matrices.  Only
where numpy exposes no such entry points (a wheel that keeps its OpenBLAS
outside ``numpy.libs``, or a numpy linked to a shared BLAS) do the same
routines come from ``scipy.linalg.lapack`` and ``scipy.linalg.blas``: that
fallback is the one place the package imports scipy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import Callable, NamedTuple

import numpy as np

#: LAPACK_COL_MAJOR / CblasColMajor, and CblasUpper; LAPACKE takes the triangle as a char.
_COL_MAJOR, _CBLAS_UPPER, _UPPER = 102, 121, b"U"


@functools.cache
def _openblas() -> tuple[ctypes.CDLL, ...]:
    """Each OpenBLAS bundled with numpy, found in the ``numpy.libs`` folder
    beside it.  ``ctypes.CDLL`` of a library numpy already loaded returns
    that same library."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    return tuple(ctypes.CDLL(path)
                 for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))))


@functools.cache
def libraries() -> tuple[tuple, ...]:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS bundled with numpy."""
    found = []
    for lib in _openblas():
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is None or put is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
    return tuple(found)


class _SingleThread(contextlib.ContextDecorator):
    """Run the body with numpy's OpenBLAS on one thread, then restore.

    Also a decorator.  The outermost of nested or concurrent scopes saves
    the counts and sets 1, and the last one to exit restores them, also when
    the body raises: the thread count is a setting of the whole process.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(put, get()) for get, put in libraries()]
                for put, _ in self._saved:
                    put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)
                self._saved = []
        return False


single_thread = _SingleThread()


# ---------------------------------------------------------------------------
# banded routines of a Hermitian matrix in LAPACK's upper band storage


class _Banded(NamedTuple):
    """The banded routines of one precision: ``d`` (float64) or ``z`` (complex128)."""

    pbtrf: Callable   # ab -> (upper Cholesky factor, info); factors ab in place
    solver: Callable  # factor -> solve(x): x <- (U^dagger U)^-1 x in place
    product: Callable  # ab -> multiply(x, y): y <- H x


def _bind(lib: ctypes.CDLL, kind: str) -> _Banded | None:
    """The routines of one precision from a bundled OpenBLAS's LAPACKE and
    CBLAS symbols, or None when it exports none of them.

    numpy's OpenBLAS prefixes its symbols ``scipy_`` and, built with 64-bit
    integers (ILP64), suffixes them ``64_``; every size is then an int64.
    """
    product = "dsbmv" if kind == "d" else "zhbmv"
    for prefix in ("scipy_", ""):
        for suffix, size in (("64_", ctypes.c_int64), ("", ctypes.c_int)):
            names = (f"{prefix}LAPACKE_{kind}pbtrf_work{suffix}",
                     f"{prefix}LAPACKE_{kind}pbtrs_work{suffix}",
                     f"{prefix}cblas_{product}{suffix}")
            if all(hasattr(lib, name) for name in names):
                return _wrap(kind, size, *(getattr(lib, name) for name in names))
    return None


def _wrap(kind: str, size, factor, solve, product) -> _Banded:
    """Typed Python callables around the bound LAPACKE and CBLAS functions.

    ``solver`` and ``product`` bind a band's pointer and sizes once and
    return a callable that works in place on operands of that band, so a
    loop that solves or multiplies many times pays for the binding once.
    """
    ptr, layout, uplo = ctypes.c_void_p, ctypes.c_int, ctypes.c_char
    factor.argtypes, factor.restype = [layout, uplo, size, size, ptr, size], size
    solve.argtypes = [layout, uplo, size, size, size, ptr, size, ptr, size]
    solve.restype = size
    dtype = np.dtype(np.float64 if kind == "d" else np.complex128)
    if kind == "d":
        scalar, one, zero = ctypes.c_double, 1.0, 0.0
    else:  # zhbmv takes its complex scalars by pointer
        scalar, one, zero = ptr, (ctypes.c_double * 2)(1.0, 0.0), (ctypes.c_double * 2)()
    product.argtypes = [layout, layout, size, size, scalar, ptr, size, ptr, size,
                        scalar, ptr, size]
    product.restype = None

    # every array is made column-major in the routine's dtype, and every
    # operand's dtype, layout and length checked, before a pointer to it
    # goes to the library
    def pbtrf(ab):
        ab = np.asfortranarray(ab, dtype=dtype)
        info = factor(_COL_MAJOR, _UPPER, ab.shape[1], ab.shape[0] - 1, ab.ctypes.data,
                      ab.shape[0])
        return ab, int(info)

    def solver(c):
        c = np.asfortranarray(c, dtype=dtype)
        n, rows, at = c.shape[1], c.shape[0], c.ctypes.data

        def solve_in_place(x):
            _check_operand(x, dtype, n, ndim=2)
            solve(_COL_MAJOR, _UPPER, n, rows - 1, 1 if x.ndim == 1 else x.shape[1], at, rows,
                  x.ctypes.data, n)
        solve_in_place.band = c  # the closure's pointer stays valid while it lives
        return solve_in_place

    def product_of(ab):
        ab = np.asfortranarray(ab, dtype=dtype)
        n, rows, at = ab.shape[1], ab.shape[0], ab.ctypes.data

        def multiply(x, y):
            _check_operand(x, dtype, n)
            _check_operand(y, dtype, n)
            product(_COL_MAJOR, _CBLAS_UPPER, n, rows - 1, one, at, rows, x.ctypes.data, 1,
                    zero, y.ctypes.data, 1)
        multiply.band = ab
        return multiply

    return _Banded(pbtrf, solver, product_of)


def _check_operand(x: np.ndarray, dtype: np.dtype, n: int, ndim: int = 1) -> None:
    """Refuse an operand the bound routine would misread: wrong dtype, not
    column-major, or not n rows of one column (or, with ndim 2, several)."""
    if not (x.dtype == dtype and x.flags.f_contiguous and 1 <= x.ndim <= ndim
            and x.shape[0] == n):
        raise ValueError(f"operand of shape {x.shape} and dtype {x.dtype} does not fit "
                         f"a band of {n} columns and dtype {dtype}")


def _scipy_banded(kind: str) -> _Banded:
    """The same routines from scipy's LAPACK and BLAS wrappers, where numpy
    exposes none: the package's only use of scipy.

    ``single_thread`` does not reach the BLAS that scipy links here.
    """
    from scipy.linalg import blas, lapack
    factor, solve = getattr(lapack, kind + "pbtrf"), getattr(lapack, kind + "pbtrs")
    product = blas.dsbmv if kind == "d" else blas.zhbmv

    def pbtrf(ab):
        c, info = factor(ab, lower=0, overwrite_ab=1)
        return c, int(info)

    def solver(c):
        def solve_in_place(x):
            x[...] = solve(c, x.reshape(x.shape[0], -1), lower=0)[0].reshape(x.shape)
        return solve_in_place

    def product_of(ab):
        def multiply(x, y):
            y[...] = product(ab.shape[0] - 1, 1.0, ab, x, lower=0)
        return multiply

    return _Banded(pbtrf, solver, product_of)


@functools.cache
def _banded(kind: str) -> _Banded:
    for lib in _openblas():
        bound = _bind(lib, kind)
        if bound is not None:
            return bound
    return _scipy_banded(kind)


def _kind(a: np.ndarray) -> str:
    return "z" if np.iscomplexobj(a) else "d"


def pbtrf(ab: np.ndarray) -> tuple[np.ndarray, int]:
    """The upper Cholesky factor U (H = U^dagger U) of a Hermitian band, and LAPACK's info.

    ``ab`` is H's upper band, row kd holding the diagonal; a column-major
    array of the band's dtype is overwritten by the factor.  info is 0 on
    success and k > 0 when the leading minor of order k is not positive
    definite.
    """
    return _banded(_kind(ab)).pbtrf(ab)


def solver(c: np.ndarray) -> Callable[[np.ndarray], None]:
    """``solve(x)``, which overwrites x with (U^dagger U)^-1 x for the factor c of
    ``pbtrf``: x is column-major in c's dtype, one column or several."""
    return _banded(_kind(c)).solver(c)


def product(ab: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """``multiply(x, y)``, which writes H x into y for the Hermitian H of the
    upper band ab: x and y are contiguous vectors in ab's dtype."""
    return _banded(_kind(ab)).product(ab)
