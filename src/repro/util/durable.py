"""The one atomic replace every durable file is written through.

Checkpoint archives, store manifests and run ledgers are each written to
a writer-unique temp file in the destination's directory and moved into
place with ``os.replace``: a crash mid-write leaves the previous file,
never a torn one, and a crash after the replace leaves the new one.  The
temp name is ``.<name>.tmp.<pid>-<n>``, which ``repro fsck`` sweeps as a
stray writer temp file.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Callable

__all__ = ["replace_file"]

#: Per-process monotone counter making temp names writer-unique: two
#: writers replacing same-named files in one directory must never race
#: on a shared temp file (a torn ``os.replace`` of the other writer's
#: half-written file would corrupt both).
_TMP_COUNTER = itertools.count()


def _no_hooks(point: str, path: Path) -> None:
    return None


def replace_file(
    path: Path, data: bytes, hooks: Callable[[str, Path], None] | None, stage: str
) -> None:
    """Atomically make ``data`` the contents of ``path``.

    ``hooks(point, path)`` is called at ``<stage>:begin`` (on ``path``),
    ``<stage>:tmp_written`` (on the temp file) and ``<stage>:replaced``
    (on ``path``): the storage fault plane injects crashes and torn
    writes there.  The temp file is removed if anything raises.
    """
    hook = hooks if hooks is not None else _no_hooks
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}-{next(_TMP_COUNTER)}")
    try:
        hook(f"{stage}:begin", path)
        tmp.write_bytes(data)
        hook(f"{stage}:tmp_written", tmp)
        os.replace(tmp, path)
        hook(f"{stage}:replaced", path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
