"""OpenBLAS threads: one per CLI command, and the count each report records.

Threaded matrix products sum in another order than one thread does, so the
same command would write other last digits at another thread count; and
efgen's products are small, so a second thread buys no wall time but spins
on a second CPU. `one_thread` runs a block on one thread in every OpenBLAS
library loaded in the process and then restores each library's count; the
CLI runs each command inside it.

The libraries are found once per process: the mapped files whose paths
contain "openblas" (read from /proc/self/maps), opened with ctypes and asked
for get_num_threads and set_num_threads under the prefixes "scipy_openblas_",
"openblas_" or none and the suffixes "64_" or none. Without OpenBLAS, without
Linux's /proc, or without those symbols nothing is pinned and `info` reads
nulls; nothing here raises. A library loaded after the lookup (scipy's own,
which a gamma family loads) is not pinned: efgen calls no BLAS through it.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_", "")
    for suffix in ("64_", "")
)


@functools.cache
def libraries() -> tuple:
    """(file name, get_num_threads, set_num_threads) of each OpenBLAS
    library in the process, in load order."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            # Fields: address, perms, offset, dev, inode, path.
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line.lower()]
    except OSError:
        return ()
    found = []
    for path in dict.fromkeys(f[5].rstrip("\n") for f in fields if len(f) == 6):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((os.path.basename(path), get, put))
                break
    return tuple(found)


@contextmanager
def one_thread():
    """Run the block on one thread in every OpenBLAS library, then give each
    back the count it had."""
    libs = libraries()
    counts = [get() for _, get, _ in libs]
    for _, _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, _, put), count in zip(libs, counts):
            put(count)


def info() -> dict:
    """The first-loaded OpenBLAS library's file name and its thread count
    now, or nulls when there is none."""
    libs = libraries()
    if not libs:
        return {"library": None, "threads": None}
    name, get, _ = libs[0]
    return {"library": name, "threads": get()}
