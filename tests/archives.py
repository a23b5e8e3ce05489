"""Checkpoint archives the library will not write, for the tests that need them.

Two kinds: archives in the layout schema <= 3 used (stores on disk
outlive a commit, so the reader must keep accepting them) and
well-formed archives whose *content* was tampered with.  Both go through
``repro.util.checkpoint``'s own reader and writer, so no test names a
zip member or a NumPy save call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.store import MANIFEST_NAME, CheckpointStore, Generation
from repro.store.store import file_crc32, manifest_text
from repro.util import checkpoint as ckpt


def _reseal(arrays: dict) -> None:
    arrays[ckpt._SEAL_KEY] = np.array(ckpt.content_crc32(arrays), dtype=np.uint32)


def rewrite_archive(src, dest=None, *, mutate=None, reseal: bool = True) -> Path:
    """Re-write ``src`` (to ``dest``, default in place) with ``mutate(arrays)`` applied.

    ``reseal=False`` keeps the stale content seal: the result is a
    perfectly readable archive whose sections no longer match it.
    """
    src = Path(src)
    dest = src if dest is None else Path(dest)
    arrays = ckpt._read_all(src)
    if mutate is not None:
        mutate(arrays)
    if reseal:
        _reseal(arrays)
    ckpt._write_archive(dest, ckpt._serialise(arrays))
    return dest


def write_schema3_archive(src, dest=None) -> Path:
    """Re-write ``src`` the way the schema-3 writer did.

    One deflated zip member per section (``np.savez_compressed``),
    ``meta/schema_version`` 3, sealed by ``meta/content_crc32``.
    """
    src = Path(src)
    dest = src if dest is None else Path(dest)
    arrays = ckpt._read_all(src)
    arrays["meta/schema_version"] = np.array(3)
    _reseal(arrays)
    np.savez_compressed(dest, **arrays)
    return dest


def vouch_for(store: CheckpointStore, entry: Generation) -> Generation:
    """Re-seal the store's manifest over whatever ``entry``'s file now holds."""
    path = store.root / entry.file
    fresh = Generation(
        gen=entry.gen,
        file=entry.file,
        step=entry.step,
        nbytes=path.stat().st_size,
        crc32=file_crc32(path),
    )
    gens = [fresh if g.gen == entry.gen else g for g in store.generations()]
    (store.root / MANIFEST_NAME).write_text(manifest_text(gens))
    return fresh
