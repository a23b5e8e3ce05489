"""Common interface for lossless byte-stream encoders.

The paper selects among eight nvCOMP encoders (ANS, Bitcomp, Cascaded,
Deflate, Gdeflate, LZ4, Snappy, Zstd) at runtime, trading compression
ratio against GPU (de)compression throughput (Table 2).  We reimplement
each family from scratch (or via a stdlib codec where noted in DESIGN.md)
behind this interface so COMPSO's encoder-selection logic is exercised on
real compressed sizes.

Encoders operate on raw bytes.  Every encoder is self-framing: ``decode``
needs only the blob produced by ``encode`` (original length and any code
tables are carried in a header).  ``encode_many`` / ``decode_many`` code
the frames of one call (COMPSO's bitmap and codes) and return exactly the
blobs and bytes one call per frame would; an encoder that can share work
between frames overrides them (ANS runs them as lanes of one kernel).
``encode_calls`` codes several such calls at once (a training step's
layers), each list to the blobs ``encode_many`` would return for it.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Encoder", "EncodeError", "as_bytes", "as_u8"]

# Header magic distinguishes a raw passthrough frame (used when the coded
# stream would expand) from an encoded frame.
_FRAME_RAW = 0
_FRAME_CODED = 1


class EncodeError(ValueError):
    """Raised when a blob cannot be decoded (corrupt or mismatched frame).

    ``frame`` is the blob's index in a :meth:`Encoder.decode_many` call and
    ``segment`` the compressor segment that carried it, where known.  They
    are attributes and notes, never part of the message: a guard verdict
    records ``str(exc)``, and it must not depend on how a blob was decoded.
    """

    frame: int | None = None
    segment: str | None = None

    def at(self, **where: int | str | None) -> EncodeError:
        """This error, located at ``frame=`` / ``segment=`` (``None`` is not a place)."""
        for key, value in where.items():
            if value is not None:
                setattr(self, key, value)
                self.add_note(f"{key}: {value}")
        return self


def as_bytes(data: bytes | bytearray | memoryview | np.ndarray) -> bytes:
    """Coerce input to ``bytes`` (NumPy arrays are reinterpreted as raw bytes)."""
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    return bytes(data)


def as_u8(data: bytes | np.ndarray) -> np.ndarray:
    """View input as a ``uint8`` array without copying where possible."""
    if isinstance(data, np.ndarray) and data.dtype == np.uint8:
        return data.ravel()
    return np.frombuffer(as_bytes(data), dtype=np.uint8)


class Encoder(ABC):
    """A lossless, self-framing byte-stream codec.

    Subclasses implement ``_encode_payload``/``_decode_payload``; the base
    class wraps them in a frame that falls back to storing the input
    verbatim whenever the coded form would be larger, so ``encode`` never
    expands the data by more than the 5-byte frame header.
    """

    #: Registry key, e.g. ``"ans"``.
    name: str = "base"

    def encode(self, data: bytes | np.ndarray, item_size: int = 1) -> bytes:
        """Encode ``data``, whose bytes are big-endian ``item_size``-byte items.

        The item size is a hint about where the structure of the input
        lies; ``decode`` returns the same bytes whatever it was.
        """
        raw = self._items(data, item_size)
        return self._frame(raw, self._encode_payload(raw, item_size) if raw else raw)

    def encode_many(self, frames: list[tuple[bytes | np.ndarray, int]]) -> list[bytes]:
        """Encode each ``(data, item_size)`` of ``frames``: the blobs ``encode`` returns."""
        return [self.encode(data, item_size) for data, item_size in frames]

    def encode_calls(self, calls: list[list[tuple[bytes | np.ndarray, int]]]) -> list[list[bytes]]:
        """``encode_many`` of each list of ``calls``, blob for blob."""
        return [self.encode_many(frames) for frames in calls]

    def decode(self, blob: bytes) -> bytes:
        n, payload, coded = self._unframe(blob)
        if not coded:
            return payload
        out = self._decode_payload(payload, n)
        if len(out) != n:
            raise EncodeError(f"{self.name}: decoded {len(out)} bytes, expected {n}")
        return out

    def decode_many(self, blobs: list[bytes]) -> list[bytes]:
        """Decode every blob; an :class:`EncodeError` carries the index of the blob that failed."""
        out = []
        for index, blob in enumerate(blobs):
            try:
                out.append(self.decode(blob))
            except EncodeError as exc:
                raise exc.at(frame=index)
        return out

    # -- the frame around every payload ----------------------------------------

    def _items(self, data: bytes | np.ndarray, item_size: int) -> bytes:
        raw = as_bytes(data)
        if item_size < 1 or len(raw) % item_size:
            raise ValueError(f"{self.name}: {len(raw)} bytes are not {item_size}-byte items")
        return raw

    @staticmethod
    def _frame(raw: bytes, coded: bytes) -> bytes:
        """The blob of ``raw`` coded to ``coded``: stored raw unless that is shorter."""
        if len(coded) < len(raw):
            return struct.pack("<BI", _FRAME_CODED, len(raw)) + coded
        return struct.pack("<BI", _FRAME_RAW, len(raw)) + raw

    def _unframe(self, blob: bytes) -> tuple[int, bytes, bool]:
        """``(n, payload, coded)`` of a blob; a raw payload is already checked."""
        if len(blob) < 5:
            raise EncodeError(f"{self.name}: frame too short ({len(blob)} bytes)")
        kind, n = struct.unpack_from("<BI", blob, 0)
        payload = blob[5:]
        if kind == _FRAME_RAW:
            if len(payload) != n:
                raise EncodeError(f"{self.name}: raw frame length mismatch")
            return n, payload, False
        if kind != _FRAME_CODED:
            raise EncodeError(f"{self.name}: unknown frame kind {kind}")
        return n, payload, True

    @abstractmethod
    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        """Encode ``data``; may return something larger (frame handles fallback).

        A coder that models bytes ignores ``item_size``.
        """

    @abstractmethod
    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        """Decode a payload produced by ``_encode_payload`` for ``n``-byte input."""

    def ratio(self, data: bytes | np.ndarray) -> float:
        """Convenience: compression ratio achieved on ``data``."""
        raw = as_bytes(data)
        if not raw:
            return 1.0
        return len(raw) / len(self.encode(raw))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
