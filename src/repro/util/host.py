"""The host's CPUs and the one worker pool that spreads work over them.

Two things run side by side on the host (DESIGN.md decision 28): the
trainers' shard lanes (:mod:`repro.train.step`) and the ``eigh`` calls
of a K-FAC refresh (:mod:`repro.optim.kfac`).  Both hand their work to
:func:`pool`, one thread per CPU this process may run on, and both look
it up at call time, so a test can stand another pool in its place.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["cpus", "pool"]


def cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def pool() -> ThreadPoolExecutor | None:
    """The worker pool, one thread per CPU this process may run on;
    ``None`` on one CPU, where every call runs inline."""
    n = cpus()
    return ThreadPoolExecutor(n, thread_name_prefix="repro-host") if n > 1 else None
