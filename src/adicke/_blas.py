"""One BLAS thread for the length of a tensor evaluation.

numpy and scipy each bundle an OpenBLAS, which by default starts one thread
per core.  The kernels of one evaluation are too small to share: the
banded Cholesky factor, ARPACK's Lanczos basis and the resolvent's
matrix-vector products leave the second thread spinning, which doubles the
CPU time of a point and, at half-bandwidths of 21 and more, slows the
factor 3-7x on a 2-core machine.  ``single_thread`` sets every bundled
OpenBLAS to one thread and gives each its saved count back on exit.  With
no bundled OpenBLAS found (another BLAS build) it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy
import scipy


@functools.cache
def libraries() -> tuple[tuple, ...]:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS bundled with numpy or scipy.

    Found in the ``<package>.libs`` folder beside the package on first use,
    so that importing ``adicke`` loads nothing.  ``ctypes.CDLL`` of a library
    the package already loaded returns that same library.
    """
    found = []
    for package in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(package.__file__), os.pardir,
                              package.__name__ + ".libs")
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


class _SingleThread(contextlib.ContextDecorator):
    """Run the body with every bundled OpenBLAS on one thread, then restore.

    Also a decorator.  The outermost of nested or concurrent scopes saves
    the counts and the last one to exit restores them, also when the body
    raises: the thread count is a setting of the whole process.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: tuple = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((put, get()) for get, put in libraries())
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
                self._saved = ()
        return False


single_thread = _SingleThread()
