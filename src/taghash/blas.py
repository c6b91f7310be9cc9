"""Thread count of the OpenBLAS build that scipy ships in its wheels.

numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own worker threads.  After a threaded call a worker spins for a
while before it sleeps, so when the training loop alternates numpy products
with scipy solves, the spinning workers of one library hold the cores the
other library's workers need, and a solve of a few microseconds can wait a
whole scheduler slice.  So every scipy call of a training round runs on
one thread: the r x r factorizations and solves, the rank-1 updates of the
code step, and the m x m Cholesky factor, whose threaded run had cost the
most waiting.  One thread also makes the m x m factor's rounding, and with
it P's last bits, independent of scipy's default thread count.  numpy's
own pool keeps its default: its products are large enough to gain from it.

For other builds of scipy (system or conda packages, MKL) no bundled
library is found, and the thread count is left alone.
"""
import contextlib
import ctypes
import functools
import glob
import os

import scipy


@functools.cache
def scipy_openblas():
    """(get_num_threads, set_num_threads) of scipy's bundled OpenBLAS, or
    None when this scipy does not bundle one."""
    root = os.path.dirname(scipy.__file__)
    for pattern in (os.path.join(root + ".libs", "libscipy_openblas*"),
                    os.path.join(root, ".dylibs", "libscipy_openblas*")):
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            for suffix in ("", "64_"):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}",
                              None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def one_lapack_thread():
    """Run scipy's LAPACK on one thread inside the block, then restore it.

    The thread count belongs to the process, so blocks running at the same
    time in several threads may restore each other's value.
    """
    pool = scipy_openblas()
    if pool is None:
        yield
        return
    get, put = pool
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
