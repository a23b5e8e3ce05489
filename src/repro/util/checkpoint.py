"""Checkpointing: save/restore model, K-FAC and compressor state.

Long pre-training runs (the paper's BERT runs take 54 hours) need
resumable state, and post-fault recovery needs *exact* resumability:
a restore must continue the very trajectory the run was on, not re-warm
it.  A checkpoint therefore round-trips, beyond model parameters:

* K-FAC running factors **and** their eigendecompositions, per-layer
  momentum buffers, the first-order momentum of non-K-FAC parameters,
  and the optimizer step counter;
* compressor state, whatever its ``state_dict()`` declares: the adaptive
  error-bound schedule position, the stochastic-rounding RNG state and
  error-feedback residuals, so compression decisions after a restore
  are bit-identical to the uninterrupted run.

Writes are **atomic and sealed**: the ``.npz`` is produced in a
writer-unique temp file in the same directory and moved into place with
``os.replace``, so a crash mid-save can never leave a truncated archive
that poisons recovery — the previous checkpoint survives intact.  Every
archive carries a content seal (``meta/content_crc32``, a CRC over the
raw array bytes of every section) computed *before* the bytes hit disk;
:func:`verify_checkpoint` and ``load_checkpoint(verify=...)`` recompute
it, so bit-rot at rest is detected before any state is mutated.

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

import itertools
import json
import math
import os
import struct
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — annotations only, avoids an
    # import cycle now that repro.util re-exports this module's names
    from repro.nn.module import Module
    from repro.optim.kfac import Kfac

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
#: deflated zip member per key.  Versions 1-3 are read, never written.
#: Bump on any incompatible key or layout change.
SCHEMA_VERSION = 4

_SEAL_KEY = "meta/content_crc32"

#: Sections a compressor's ``state_dict()`` fills and ``load_state_dict()``
#: reads back; what is in them is the compressor's business.
_COMPRESSOR = "compressor/"

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

#: Per-process monotone counter making temp names writer-unique: two
#: stores checkpointing same-named stems into one directory must never
#: race on a shared ``.{stem}.tmp.npz`` (a torn ``os.replace`` of the
#: other writer's half-written file would corrupt both).
_TMP_COUNTER = itertools.count()


class CheckpointError(RuntimeError):
    """A checkpoint archive cannot be restored into this process.

    Raised *before* any state is mutated — schema or world-size
    mismatches, unreadable/torn archives, broken content seals, and
    partial sections must fail the restore loudly up front, not as a
    cryptic ``KeyError`` halfway through repopulating K-FAC state.
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


def _no_hooks(point: str, path: Path) -> None:
    return None


def save_checkpoint(
    path: str | Path,
    model: Module,
    kfac: Kfac | None = None,
    *,
    compressor=None,
    world_size: int | None = None,
    step: int | None = None,
    hooks: Callable[[str, Path], None] | None = None,
) -> Path:
    """Atomically write model (+ optional K-FAC/compressor) state.

    ``world_size`` stamps the archive with the cluster size it was taken
    at; restores can then reject a checkpoint from a differently-sized
    world (layer-ownership tables and per-rank state are world-indexed).
    ``step`` stamps the training step the archive represents (stores use
    it to resume from the right batch after a generation fallback).

    ``hooks(point, path)`` is called at each :data:`SAVE_POINTS` stage —
    the storage fault plane uses it to inject crashes and torn writes at
    deterministic points.  Returns the final archive path as an
    :class:`Archive`.
    """
    hook = hooks if hooks is not None else _no_hooks
    arrays: dict[str, np.ndarray] = {"meta/schema_version": np.array(SCHEMA_VERSION)}
    if world_size is not None:
        arrays["meta/world_size"] = np.array(int(world_size))
    if step is not None:
        arrays["meta/step"] = np.array(int(step))
    for name, p in model.named_parameters():
        arrays[f"param/{name}"] = p.data
    if kfac is not None:
        arrays["kfac/t"] = np.array(kfac.t)
        for idx, st in kfac.state.items():
            if st.A is not None:
                arrays[f"kfac/{idx}/A"] = st.A
                arrays[f"kfac/{idx}/G"] = st.G
                arrays[f"kfac/{idx}/n_updates"] = np.array(st.n_updates)
            if st.ready:
                arrays[f"kfac/{idx}/QA"] = st.QA
                arrays[f"kfac/{idx}/vA"] = st.vA
                arrays[f"kfac/{idx}/QG"] = st.QG
                arrays[f"kfac/{idx}/vG"] = st.vG
            if st.momentum_buf is not None:
                arrays[f"kfac/{idx}/momentum"] = st.momentum_buf
        for i, buf in enumerate(kfac._other_momentum):
            arrays[f"kfac/other_momentum/{i}"] = buf
    if compressor is not None:
        for key, value in compressor.state_dict().items():
            arrays[_COMPRESSOR + key] = value
    sections = _serialise(arrays)
    sections += _serialise({_SEAL_KEY: np.array(_seal(sections), dtype=np.uint32)})
    blob = _archive(sections)

    final = _final_path(path)
    tmp = final.with_name(f".{final.stem}.tmp.{os.getpid()}-{next(_TMP_COUNTER)}.npz")
    final = Archive(final)
    try:
        hook("save:begin", final)
        with open(tmp, "wb") as fh:
            fh.write(blob)
        hook("save:tmp_written", tmp)
        os.replace(tmp, final)
        hook("save:replaced", final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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


def verify_checkpoint(path: str | Path) -> dict:
    """Verify an archive's content seal without restoring anything.

    Returns the archive's meta dict (``schema_version``, optional
    ``world_size``/``step``, ``content_crc32``, plus ``sealed``: whether
    a seal was present to check).  Raises :class:`CheckpointError` on an
    unreadable archive or a seal mismatch; pre-seal archives (schema
    version < 3) verify structurally only, with ``sealed=False``.
    """
    data = _read_all(_final_path(path))
    meta = read_meta(data)
    stored = meta.get("content_crc32")
    if stored is None:
        meta["sealed"] = False
        return meta
    actual = content_crc32(data)
    if actual != stored:
        raise CheckpointError(
            f"{_final_path(path)}: content seal mismatch "
            f"(stored crc32 {stored:#010x}, actual {actual:#010x}) — bit rot "
            f"or tampering"
        )
    meta["sealed"] = True
    return meta


def _check_shape(key: str, arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if arr.shape != shape:
        raise CheckpointError(
            f"checkpoint K-FAC state {key!r} has shape {arr.shape}, expected {shape}"
        )
    return arr


def _restore_kfac(data, kfac) -> None:
    """Restore K-FAC factors with full shape validation.

    Every factor array is validated against the model's layer dimensions
    before any assignment: A must be (in+bias)², G out², eigenvector/
    eigenvalue arrays must match their factors, and the momentum buffer
    must match the layer's gradient shape.  A factor section that is
    present but incomplete (A without G/n_updates, QA without vG, ...)
    raises naming the missing key — a half-restored preconditioner is a
    silently wrong trajectory, not a recovery.
    """
    if "kfac/t" in data:
        kfac.t = int(data["kfac/t"])
    for idx, st in kfac.state.items():
        in_f, out_f = kfac.layer_dims(idx)
        a_key = f"kfac/{idx}/A"
        if a_key in data:
            for needed in (f"kfac/{idx}/G", f"kfac/{idx}/n_updates"):
                if needed not in data:
                    raise CheckpointError(
                        f"checkpoint K-FAC state is incomplete: {a_key!r} present "
                        f"but {needed!r} missing"
                    )
            A = _check_shape(a_key, data[a_key], (in_f, in_f))
            G = _check_shape(f"kfac/{idx}/G", data[f"kfac/{idx}/G"], (out_f, out_f))
            st.A = A
            st.G = G
            st.n_updates = int(data[f"kfac/{idx}/n_updates"])
            if f"kfac/{idx}/QA" in data:
                # Saved eigendecomposition: restore verbatim so a resumed
                # run keeps the exact inverse it was using (recomputing
                # from A/G would re-warm mid-interval).
                for needed in (f"kfac/{idx}/vA", f"kfac/{idx}/QG", f"kfac/{idx}/vG"):
                    if needed not in data:
                        raise CheckpointError(
                            f"checkpoint K-FAC state is incomplete: "
                            f"'kfac/{idx}/QA' present but {needed!r} missing"
                        )
                st.QA = _check_shape(f"kfac/{idx}/QA", data[f"kfac/{idx}/QA"], (in_f, in_f))
                st.vA = _check_shape(f"kfac/{idx}/vA", data[f"kfac/{idx}/vA"], (in_f,))
                st.QG = _check_shape(f"kfac/{idx}/QG", data[f"kfac/{idx}/QG"], (out_f, out_f))
                st.vG = _check_shape(f"kfac/{idx}/vG", data[f"kfac/{idx}/vG"], (out_f,))
            else:
                kfac.compute_eigen(idx)
        if f"kfac/{idx}/momentum" in data:
            st.momentum_buf = _check_shape(
                f"kfac/{idx}/momentum", data[f"kfac/{idx}/momentum"], (out_f, in_f)
            )
    for i in range(len(kfac._other_momentum)):
        key = f"kfac/other_momentum/{i}"
        if key in data:
            if data[key].shape != kfac._other_momentum[i].shape:
                raise CheckpointError(
                    f"checkpoint K-FAC state {key!r} has shape {data[key].shape}, "
                    f"expected {kfac._other_momentum[i].shape}"
                )
            kfac._other_momentum[i][...] = data[key]


def load_checkpoint(
    path: str | Path,
    model: Module,
    kfac: Kfac | None = None,
    *,
    compressor=None,
    verify: bool | None = None,
) -> dict:
    """Restore state written by :func:`save_checkpoint` in place.

    Raises :class:`CheckpointError` — before touching any state — when
    the archive is unreadable or torn, its content seal does not match
    (``verify=None``, the default, checks the seal whenever one is
    present; ``verify=True`` additionally *requires* one), the schema
    version is not one this build understands, or any K-FAC section is
    partial or mis-shaped.  Raises ``KeyError`` if the
    checkpoint is missing a parameter the model has, and ``ValueError``
    on parameter shape mismatches — silent partial restores are worse
    than failing loudly.  Archives without ``meta/*`` keys (schema
    version 1) keep loading; compressor keys are likewise optional *as a
    whole section*.

    Returns the archive's meta dict (schema version, world size, step).
    """
    data = _read_all(_final_path(path))
    meta = read_meta(data)
    version = meta["schema_version"]
    if version > SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema version {version} is newer than this build's "
            f"{SCHEMA_VERSION}; refusing a partial restore"
        )
    stored_crc = meta.get("content_crc32")
    if verify and stored_crc is None:
        raise CheckpointError(
            f"{_final_path(path)}: verify=True but the archive carries no "
            f"content seal (schema version {version})"
        )
    if stored_crc is not None and verify is not False:
        actual = content_crc32(data)
        if actual != stored_crc:
            raise CheckpointError(
                f"{_final_path(path)}: content seal mismatch "
                f"(stored crc32 {stored_crc:#010x}, actual {actual:#010x})"
            )
    for name, p in model.named_parameters():
        key = f"param/{name}"
        if key not in data:
            raise KeyError(f"checkpoint missing parameter {name!r}")
        stored = data[key]
        if stored.shape != p.data.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: checkpoint {stored.shape}, model {p.data.shape}"
            )
        p.data = stored.astype(np.float32)
    if kfac is not None:
        _restore_kfac(data, kfac)
    if compressor is not None:
        compressor.load_state_dict(
            {k.removeprefix(_COMPRESSOR): v for k, v in data.items() if k.startswith(_COMPRESSOR)}
        )
    return meta
