"""Scratch space inside the checkout: a run reads and writes nowhere else."""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

__all__ = ["ROOT", "scratch_dir"]

ROOT = Path(__file__).resolve().parent.parent
_BASE = ROOT / ".perfbench_tmp"


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``.perfbench_tmp/``, removed on exit
    (and the base with it, once the last user is gone)."""
    _BASE.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=_BASE))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            _BASE.rmdir()
        except OSError:  # another run still has its directory there
            pass
