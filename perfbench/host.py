"""Host fingerprint: what must match before two results may be compared."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

__all__ = ["THREAD_ENV", "pin_threads", "pin_malloc", "fingerprint", "comparable"]

#: Thread-count variables pinned to 1 before NumPy is imported, so the
#: numbers measure the program and not the scheduler of a 2-core box.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    for name in THREAD_ENV:
        os.environ[name] = "1"


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4

_malloc_pinning = "default"


def pin_malloc() -> None:
    """Keep freed memory in the heap instead of returning it to the kernel.

    The codec's large temporaries (``pack_uints`` builds an ``n x width``
    uint64 matrix, 134 MB for a million elements) are otherwise mapped,
    faulted in page by page and unmapped on every call, and the cost of
    those faults in this VM swings by a factor of two from minute to
    minute (4 000 faults and 0.23-0.73 s per operation on ``codec_dense``
    against 20 faults and 0.20-0.33 s with this pinning).  The run
    measures the program's computation and memory traffic, not the
    hypervisor's page-fault path.  A C library without ``mallopt`` is
    left alone and the fingerprint says so.
    """
    global _malloc_pinning
    try:
        libc = ctypes.CDLL(None)
        pinned = libc.mallopt(_M_MMAP_MAX, 0) and libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    except (OSError, AttributeError):
        return
    if pinned:
        _malloc_pinning = "glibc mmap_max=0 no-trim"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint() -> dict:
    """Everything about the host and its pinning that moves a wall clock."""
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "malloc": _malloc_pinning,
        "loadavg_at_start": list(os.getloadavg()),
    }


def comparable(fp: dict) -> dict:
    """The part of a fingerprint two results must share to be compared
    (the load average is recorded, not matched)."""
    return {k: v for k, v in fp.items() if k != "loadavg_at_start"}
