"""BLAS thread count for serving and training in one process.

A served pass multiplies a handful of rows through each layer.  Splitting
those GEMMs over BLAS worker threads gains little, and between back-to-back
passes the workers spin on the cores the client threads need, so a pass
costs whatever the scheduler makes of that contention, differently from
one run to the next.  Training multiplies hundreds of rows per step and
does gain from the workers.

The count is process-wide (OpenBLAS keeps one), so the two wishes are
reference-counted here: while a :func:`single_threaded` block is open (a
micro-batcher's scheduler loop) BLAS runs on one thread, unless an
:func:`all_threads` block (a training run) is open too, which brings back
the count the process started with.  A service that is never closed keeps
its scheduler's block open.  Both act on the OpenBLAS that NumPy wheels
bundle; where none is found they do nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["single_threaded", "all_threads"]


def _openblas_controls():
    """``(get_num_threads, set_num_threads)`` of NumPy's OpenBLAS, or ``None``."""
    package = Path(np.__file__).resolve().parent
    libraries = sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")])
    for path in libraries:
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):  # the ILP64 and the LP64 build
            get = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


_CONTROLS = _openblas_controls()
#: the count the process started with, restored when no block asks for one
DEFAULT_THREADS = _CONTROLS[0]() if _CONTROLS is not None else 1
_lock = threading.Lock()
_open = {"single": 0, "all": 0}  # open blocks of each kind


def _update() -> None:
    """Set the count the open blocks ask for; the caller holds ``_lock``."""
    wanted = 1 if _open["single"] and not _open["all"] else DEFAULT_THREADS
    if _CONTROLS is not None and _CONTROLS[0]() != wanted:
        _CONTROLS[1](wanted)


@contextmanager
def _block(kind: str) -> Iterator[None]:
    with _lock:
        _open[kind] += 1
        _update()
    try:
        yield
    finally:
        with _lock:
            _open[kind] -= 1
            _update()


def single_threaded():
    """Run BLAS on one thread while the block is open (and no training is)."""
    return _block("single")


def all_threads():
    """Run BLAS on the process's starting count while the block is open."""
    return _block("all")

