"""Checkpoint archives: the sealed on-disk form of every owner's state.

Long pre-training runs (the paper's BERT runs take 54 hours) need
resumable state, and post-fault recovery needs *exact* resumability:
a restore must continue the very trajectory the run was on, not re-warm
it.  A checkpoint is what its owners declare.  ``save_checkpoint`` takes
a ``{name: owner}`` mapping (a trainer's names its model, its K-FAC
optimiser and its compressor) and stores each owner's ``state_dict()``
under ``"<name>/<key>"``; ``load_checkpoint`` hands each owner its
sections back through ``load_state_dict()``.  What is in them
(parameters; K-FAC factors, eigendecompositions and momentum; the
adaptive bounds and the stochastic-rounding generator) is the owners'
business, not this module's.

Writes are **atomic and sealed**: the ``.npz`` goes through
:func:`repro.util.durable.replace_file`, so a crash mid-save can never
leave a truncated archive that poisons recovery — the previous
checkpoint survives intact.  Every archive carries a content seal
(``meta/content_crc32``, a CRC over the raw array bytes of every
section) computed *before* the bytes hit disk; :func:`verify_checkpoint`
and :func:`load_checkpoint` recompute it, so bit-rot at rest is detected
before any state is mutated.

The on-disk layout is this module's decision alone.  An archive is an
``.npz`` with two *stored* members: ``index`` — JSON rows of ``[key,
dtype, shape, offset, length]`` — and ``data``, every section's raw
bytes back to back.  A save serialises each array once, seals those
bytes, lays the archive out in memory and writes it in one call, so the
size and CRC32 of what it wrote come from memory too (the
:class:`Archive` it returns carries them); K-FAC state is mostly float64 noise
that deflate shrank by a quarter at five times the cost of the write,
so nothing is compressed.  Archives written before schema version 4
(one deflated member per section) still load through the same reader,
:func:`_read_all`, because stores on disk outlive a commit.

The save sequence exposes its injection points (:data:`SAVE_POINTS`)
through the ``hooks`` callback, which is how the storage fault plane
(:mod:`repro.faults.storage`) makes "kill the process at any point
during save" an enumerable, deterministic test instead of a hope.
"""

from __future__ import annotations

import json
import math
import struct
import zipfile
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from repro.util.durable import replace_file

__all__ = [
    "Archive",
    "CheckpointError",
    "SAVE_POINTS",
    "SCHEMA_VERSION",
    "content_crc32",
    "load_checkpoint",
    "read_meta",
    "save_checkpoint",
    "verify_checkpoint",
]

#: Archive layout version.  Version 1 is the pre-versioned layout (no
#: ``meta/*`` keys); version 2 added ``meta/schema_version`` and
#: ``meta/world_size``; version 3 added the ``meta/content_crc32`` seal
#: and the optional ``meta/step`` stamp; version 4 keeps those keys but
#: stores them as one ``index`` + one ``data`` member instead of one
#: deflated zip member per key.  Version 3 is read, never written;
#: versions 1 and 2 carry no seal and are refused.
#: Bump on any incompatible key or layout change.
SCHEMA_VERSION = 4

_SEAL_KEY = "meta/content_crc32"

#: The two members of a schema >= 4 archive.  No section key can collide
#: with them: every key the writer has ever produced contains a ``/``.
_INDEX, _DATA = "index", "data"

#: What ``zipfile``/``np.load`` raise on a torn, truncated or bit-flipped
#: archive (``NotImplementedError``/``RuntimeError``: a flipped method or
#: flag field reads as an unsupported or encrypted member).
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    EOFError,
    ValueError,
    KeyError,
    NotImplementedError,
    RuntimeError,
)

#: Enumerated injection points of the archive save sequence, in order.
#: A crash at ``save:begin`` loses the save entirely; at
#: ``save:tmp_written`` the temp file exists but the final path is
#: untouched; at ``save:replaced`` the new archive is in place but the
#: caller (e.g. a :class:`repro.store.CheckpointStore` manifest update)
#: has not yet run.  Stores extend this sequence with their own points.
SAVE_POINTS = ("save:begin", "save:tmp_written", "save:replaced")


class CheckpointError(RuntimeError):
    """A checkpoint archive cannot be restored into this process.

    Raised with every owner as it was: unreadable or torn archives,
    broken or missing content seals and newer schema versions before any
    owner is asked, an owner's refusal of its sections (a partial or
    mis-shaped K-FAC section) after the owners it already restored are
    put back.
    """


def _final_path(path: str | Path) -> Path:
    """The filename ``np.savez`` would actually produce."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


class Archive(type(Path())):
    """The path :func:`save_checkpoint` wrote an archive to, with the ``nbytes``
    and ``crc32`` of the bytes it wrote there.  A save hook that ran after
    the write (a torn write) may have changed the file since."""

    nbytes: int
    crc32: int


#: One serialised section: key, dtype string, shape, raw C-order bytes.
_Section = tuple[str, str, tuple[int, ...], bytes]


def _serialise(arrays: dict[str, np.ndarray]) -> list[_Section]:
    """Every section's bytes, taken once, in sorted key order."""
    sections = []
    for key in sorted(arrays):
        arr = np.asarray(arrays[key])
        sections.append((key, arr.dtype.str, arr.shape, arr.tobytes()))
    return sections


def _seal(sections: list[_Section]) -> int:
    crc = 0
    for key, dtype, shape, raw in sections:
        if key == _SEAL_KEY:
            continue
        crc = zlib.crc32(f"{key}|{dtype}|{shape}".encode(), crc)
        crc = zlib.crc32(raw, crc)
    return crc & 0xFFFFFFFF


def content_crc32(arrays: dict[str, np.ndarray]) -> int:
    """CRC32 seal over every section's name, dtype, shape, and raw bytes.

    Keys are visited in sorted order so the seal is layout-independent;
    the ``meta/content_crc32`` entry itself is excluded (it cannot seal
    its own value).
    """
    return _seal(_serialise(arrays))


def save_checkpoint(
    path: str | Path,
    owners: dict,
    *,
    world_size: int,
    step: int,
    hooks: Callable[[str, Path], None] | None,
) -> Archive:
    """Atomically write every owner's ``state_dict()`` as one sealed archive.

    ``owners`` maps a section name to an object with ``state_dict()``
    (a ``None`` owner is absent); its arrays are stored under
    ``"<name>/<key>"``.  ``world_size`` stamps the cluster size the
    archive was taken at, for ``repro fsck`` and a reader of the
    archive: restores accept any world, because an elastic recovery
    restores across a shrink.  ``step`` stamps the training step the
    archive represents (stores use it to resume from the right batch
    after a generation fallback).

    ``hooks(point, path)`` is called at each :data:`SAVE_POINTS` stage —
    the storage fault plane uses it to inject crashes and torn writes at
    deterministic points.  Returns the final archive path as an
    :class:`Archive`.
    """
    arrays: dict[str, np.ndarray] = {
        "meta/schema_version": np.array(SCHEMA_VERSION),
        "meta/world_size": np.array(int(world_size)),
        "meta/step": np.array(int(step)),
    }
    for name, owner in owners.items():
        if owner is not None:
            arrays.update((f"{name}/{key}", value) for key, value in owner.state_dict().items())
    sections = _serialise(arrays)
    sections += _serialise({_SEAL_KEY: np.array(_seal(sections), dtype=np.uint32)})
    blob = _archive(sections)
    final = Archive(_final_path(path))
    replace_file(final, blob, hooks, "save")
    final.nbytes, final.crc32 = len(blob), zlib.crc32(blob)
    return final


def _archive(sections: list[_Section]) -> bytes:
    """The bytes of an archive of ``sections``: one index and one contiguous
    stored payload, each a flat ``uint8`` ``.npy`` member.

    The zip is the one ``np.savez`` writes for those two arrays — stored
    members, zip64 local headers, the DOS epoch for every time — laid out
    here so that the sections go to the file without the copies
    ``np.savez`` makes of them.  No member may reach 4 GiB (``struct``
    refuses a central directory size past 32 bits).
    """
    index, offset = [], 0
    for key, dtype, shape, raw in sections:
        index.append([key, dtype, list(shape), offset, len(raw)])
        offset += len(raw)
    parts, directory, at = [], [], 0
    for name, chunks in ((_INDEX, [json.dumps(index).encode()]), (_DATA, [s[3] for s in sections])):
        # The 128-byte .npy v1.0 header of a flat uint8 array.
        npy = f"{{'descr': '|u1', 'fortran_order': False, 'shape': ({sum(map(len, chunks))},), }}"
        chunks.insert(0, b"\x93NUMPY\x01\x00\x76\x00" + npy.ljust(117).encode() + b"\n")
        crc = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        size = sum(map(len, chunks))
        member = f"{name}.npy".encode()
        local = (
            struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 45, 0, 0, 0, 0, 0x21, crc,
                        0xFFFFFFFF, 0xFFFFFFFF, len(member), 20)
            + member
            + struct.pack("<2H2Q", 1, 16, size, size)  # the zip64 sizes
        )
        directory.append(
            struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 45, 3, 45, 0, 0, 0, 0, 0x21, crc,
                        size, size, len(member), 0, 0, 0, 0, 0o600 << 16, at)
            + member
        )
        parts += [local, *chunks]
        at += len(local) + size
    central = b"".join(directory)
    end = struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 2, 2, len(central), at, 0)
    return b"".join([*parts, central, end])


def _member(path: Path, archive, name: str) -> np.ndarray:
    """One zip member as an array, damage reported against its name."""
    try:
        return archive[name]
    except _ARCHIVE_ERRORS as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint member {name!r} ({exc})") from exc


def _section_array(path: Path, row, payload: np.ndarray) -> tuple[str, np.ndarray]:
    """Validate one index row against the payload and cut its array out."""
    if not (isinstance(row, list) and len(row) == 5 and isinstance(row[0], str)):
        raise CheckpointError(f"{path}: malformed {_INDEX!r} row {row!r}")
    key, dtype_str, shape, offset, length = row

    def bad(why: str) -> CheckpointError:
        return CheckpointError(f"{path}: {_INDEX!r} row for {key!r} {why}")

    try:
        dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
    except (TypeError, ValueError):
        dtype = None
    if (
        dtype is None
        or dtype.hasobject
        or dtype.names is not None
        or dtype.subdtype is not None
        or dtype.itemsize == 0
    ):
        raise bad(f"names dtype {dtype_str!r}, which is not a plain NumPy dtype")
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise bad(f"has shape {shape!r}")
    if type(offset) is not int or type(length) is not int:
        raise bad(f"has offset {offset!r}, length {length!r}")
    count = math.prod(shape)
    if length != count * dtype.itemsize:
        raise bad(
            f"has length {length}, but shape {tuple(shape)} of {dtype_str} "
            f"is {count * dtype.itemsize} bytes"
        )
    if offset < 0 or offset + length > payload.size:
        raise bad(
            f"spans bytes {offset}..{offset + length}, outside the "
            f"{payload.size}-byte {_DATA!r} member"
        )
    # A copy, so every restored array is writable and owns its memory.
    arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    return key, arr.reshape(shape).copy()


def _read_flat(path: Path, archive) -> dict[str, np.ndarray]:
    index = _member(path, archive, _INDEX)
    payload = _member(path, archive, _DATA)
    for name, member in ((_INDEX, index), (_DATA, payload)):
        if member.dtype != np.uint8 or member.ndim != 1:
            raise CheckpointError(
                f"{path}: corrupt checkpoint member {name!r} "
                f"({member.dtype} array of shape {member.shape}, expected flat bytes)"
            )
    try:
        rows = json.loads(index.tobytes())
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint member {_INDEX!r} ({exc})") from exc
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: corrupt checkpoint member {_INDEX!r} (not a list)")
    arrays: dict[str, np.ndarray] = {}
    for row in rows:
        key, arr = _section_array(path, row, payload)
        if key in arrays:
            raise CheckpointError(f"{path}: {_INDEX!r} names {key!r} twice")
        arrays[key] = arr
    return arrays


def _read_all(path: Path) -> dict[str, np.ndarray]:
    """Fully materialise an archive of either layout, failing loudly.

    The one place that knows how sections sit on disk: a schema >= 4
    archive is cut out of its ``data`` member by its ``index``, an older
    one is read member by member (``np.load`` is lazy, so a flipped byte
    inside a member would otherwise only explode when that member is
    accessed, possibly halfway through a restore).  Either way the
    result is the same ``{key: writable array}`` dict, produced before
    any state is mutated.
    """
    try:
        archive = np.load(path)
    except FileNotFoundError:
        raise
    except _ARCHIVE_ERRORS as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint archive ({exc})") from exc
    with archive:
        # Either name marks the layout: a flipped bit in the zip directory
        # can hide one member, and that must not read as an older archive.
        if _INDEX in archive.files or _DATA in archive.files:
            return _read_flat(path, archive)
        return {key: _member(path, archive, key) for key in archive.files}


def read_meta(data: dict[str, np.ndarray]) -> dict:
    """The ``meta/*`` section of a materialised archive as plain ints."""
    meta: dict = {
        "schema_version": int(data["meta/schema_version"])
        if "meta/schema_version" in data
        else 1
    }
    for key, name in (("meta/world_size", "world_size"), ("meta/step", "step")):
        if key in data:
            meta[name] = int(data[key])
    if _SEAL_KEY in data:
        meta["content_crc32"] = int(data[_SEAL_KEY])
    return meta


def _sealed_meta(path: Path, data: dict[str, np.ndarray]) -> dict:
    """The archive's meta dict once its content seal checks out: the one
    seal check, so an archive ``verify_checkpoint`` (and with it fsck and
    the store's manifest rebuild) passes is one ``load_checkpoint`` would
    restore.  Raises :class:`CheckpointError` when the archive carries no
    seal (schema version < 3), when its schema version is newer than this
    build's, or when the sections do not match the seal."""
    meta = read_meta(data)
    version = meta["schema_version"]
    stored = meta.get("content_crc32")
    if stored is None:
        raise CheckpointError(
            f"{path}: the archive carries no content seal (schema version {version})"
        )
    if version > SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema version {version} is newer than this build's "
            f"{SCHEMA_VERSION}; refusing a partial restore"
        )
    actual = content_crc32(data)
    if actual != stored:
        raise CheckpointError(
            f"{path}: content seal mismatch "
            f"(stored crc32 {stored:#010x}, actual {actual:#010x}) — bit rot "
            f"or tampering"
        )
    return meta


def verify_checkpoint(path: str | Path) -> dict:
    """Verify an archive's content seal without restoring anything.

    Returns the archive's meta dict (``schema_version``, optional
    ``world_size``/``step``, ``content_crc32``).  Raises
    :class:`CheckpointError` on what :func:`load_checkpoint` refuses
    before it asks an owner: an unreadable archive, one without a seal
    (schema version < 3), a newer schema version, or a seal mismatch.
    """
    path = _final_path(path)
    return _sealed_meta(path, _read_all(path))


def load_checkpoint(path: str | Path, owners: dict) -> dict:
    """Restore each owner from its sections of a sealed archive, or none.

    ``owners`` is the mapping :func:`save_checkpoint` took; each owner
    gets ``load_state_dict({key: array})`` of its ``"<name>/<key>"``
    sections (an empty dict when the archive has none).  The archive is
    read whole and its content seal checked first: an unreadable or torn
    archive, a seal that does not match, an archive without one, or a
    schema version newer than this build's raises
    :class:`CheckpointError` before any owner is asked.  If an owner
    raises, every owner restored before it is put back through its own
    ``state_dict()``, so a failed restore leaves all of them as they
    were.

    Returns the archive's meta dict (schema version, world size, step).
    """
    path = _final_path(path)
    data = _read_all(path)
    meta = _sealed_meta(path, data)
    sections: dict[str, dict] = {name: {} for name, owner in owners.items() if owner is not None}
    for key, arr in data.items():
        name, _, rest = key.partition("/")
        if name in sections:
            sections[name][rest] = arr
    restored = []
    try:
        for name, section in sections.items():
            owner = owners[name]
            restored.append((owner, owner.state_dict()))
            owner.load_state_dict(section)
    except BaseException:
        for owner, before in reversed(restored):
            owner.load_state_dict(before)
        raise
    return meta
