"""One BLAS thread for the length of a tensor evaluation.

numpy and scipy each bundle an OpenBLAS, which by default starts one thread
per core.  The kernels of one evaluation are too small to share: the
banded Cholesky factor, ARPACK's Lanczos basis and the resolvent's
matrix-vector products leave the second thread spinning, which doubles the
CPU time of a point and, at half-bandwidths of 21 and more, slows the
factor 3-7x on a 2-core machine.  ``single_thread`` sets every bundled
OpenBLAS in use to one thread and gives each its saved count back on exit.
With no bundled OpenBLAS found (another BLAS build) it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib
import os
import sys
import threading


@functools.cache
def _bundled(name: str) -> tuple[tuple, ...]:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS bundled with one package.

    Found in the ``<package>.libs`` folder beside the package.  ``ctypes.CDLL``
    of a library the package already loaded returns that same library.
    """
    package = importlib.import_module(name)
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, name + ".libs")
    found = []
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
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


def libraries() -> tuple[tuple, ...]:
    """``(get_num_threads, set_num_threads)`` of each bundled OpenBLAS in use.

    numpy's always; scipy's once ``scipy.linalg`` is imported, since every
    scipy routine that calls it (LAPACK, ARPACK, the iterative solvers)
    imports that package first.  Binding scipy's library earlier would map
    a second OpenBLAS into a process that never calls it.
    """
    if "scipy.linalg" in sys.modules:
        return _bundled("numpy") + _bundled("scipy")
    return _bundled("numpy")


class _SingleThread(contextlib.ContextDecorator):
    """Run the body with every bundled OpenBLAS in use on one thread, then restore.

    Also a decorator.  The outermost of nested or concurrent scopes saves
    the counts and the last one to exit restores them, also when the body
    raises: the thread count is a setting of the whole process.  Every
    entry, nested ones included, also takes in a library that came into use
    since the scope opened (scipy's, at the first shift-invert solve), so
    that library too runs on one thread until the outermost exit.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: dict = {}

    def __enter__(self):
        with self._lock:
            for get, put in libraries():
                if id(put) not in self._saved:  # ctypes functions do not hash
                    self._saved[id(put)] = (put, get())
                    put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved.values():
                    put(count)
                self._saved = {}
        return False


single_thread = _SingleThread()
