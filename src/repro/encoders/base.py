"""Common interface for lossless byte-stream encoders.

The paper selects among eight nvCOMP encoders (ANS, Bitcomp, Cascaded,
Deflate, Gdeflate, LZ4, Snappy, Zstd) at runtime, trading compression
ratio against GPU (de)compression throughput (Table 2).  We reimplement
each family from scratch (or via a stdlib codec where noted in DESIGN.md)
behind this interface so COMPSO's encoder-selection logic is exercised on
real compressed sizes.

Encoders operate on raw bytes.  Every encoder is self-framing: ``decode``
needs only the blob produced by ``encode`` (original length and any code
tables are carried in a header).
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
    """Raised when a blob cannot be decoded (corrupt or mismatched frame)."""


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
        raw = as_bytes(data)
        if item_size < 1 or len(raw) % item_size:
            raise ValueError(f"{self.name}: {len(raw)} bytes are not {item_size}-byte items")
        if not raw:
            return struct.pack("<BI", _FRAME_RAW, 0)
        coded = self._encode_payload(raw, item_size)
        if len(coded) < len(raw):
            return struct.pack("<BI", _FRAME_CODED, len(raw)) + coded
        return struct.pack("<BI", _FRAME_RAW, len(raw)) + raw

    def decode(self, blob: bytes) -> bytes:
        if len(blob) < 5:
            raise EncodeError(f"{self.name}: frame too short ({len(blob)} bytes)")
        kind, n = struct.unpack_from("<BI", blob, 0)
        payload = blob[5:]
        if kind == _FRAME_RAW:
            if len(payload) != n:
                raise EncodeError(f"{self.name}: raw frame length mismatch")
            return payload
        if kind != _FRAME_CODED:
            raise EncodeError(f"{self.name}: unknown frame kind {kind}")
        out = self._decode_payload(payload, n)
        if len(out) != n:
            raise EncodeError(f"{self.name}: decoded {len(out)} bytes, expected {n}")
        return out

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
