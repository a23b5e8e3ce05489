"""Vectorised bit packing.

Packs unsigned integers of arbitrary bit width (1..32) into a dense byte
stream, and boolean bitmaps into packed bits.  These are the building
blocks of COMPSO's bitmap filter and variable-width quantised-value
packing (paper section 4.3: "packing bits into bytes based on the specified
error bound" is what lets COMPSO beat fixed 8-bit formats by ~14%).

All routines are vectorised NumPy; no per-element Python loops.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_uints", "unpack_uints", "pack_bitmap", "unpack_bitmap", "required_width"]


def required_width(max_value: int) -> int:
    """Minimum bit width able to represent ``max_value`` (>= 1 bit)."""
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    return max(1, int(max_value).bit_length())


def pack_uints(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned integers into ``width``-bit fields, MSB first.

    ``values`` must all be ``< 2**width``.  Returns the packed bytes; the
    caller is responsible for remembering ``len(values)`` and ``width``.
    """
    if not 1 <= width <= 32:
        raise ValueError(f"width must be in [1, 32], got {width}")
    v = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    if v.size == 0:
        return b""
    if v.max() >= (1 << width):
        raise ValueError(f"value {v.max()} does not fit in {width} bits")
    if width % 8 == 0:
        # Whole bytes per field: the low bytes of the big-endian words.
        be = v.astype(">u4").view(np.uint8).reshape(-1, 4)
        return be[:, 4 - width // 8 :].tobytes()
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_uints(blob: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uints`; returns ``uint32`` array of ``count`` values."""
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    if len(blob) * 8 < count * width:
        raise ValueError(f"{len(blob)} bytes cannot hold {count} fields of {width} bits")
    if width % 8 == 0:
        nbytes = width // 8
        be = np.zeros((count, 4), dtype=np.uint8)
        be[:, 4 - nbytes :] = np.frombuffer(blob, dtype=np.uint8, count=count * nbytes).reshape(
            count, nbytes
        )
        return be.view(">u4").ravel().astype(np.uint32)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count * width)
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return (bits @ weights).astype(np.uint32)


def pack_bitmap(mask: np.ndarray) -> bytes:
    """Pack a boolean mask into bits (1 bit per element, MSB first)."""
    return np.packbits(np.ascontiguousarray(mask, dtype=np.uint8).ravel()).tobytes()


def unpack_bitmap(blob: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`; returns a boolean array of ``count`` elements."""
    if count == 0:
        return np.empty(0, dtype=bool)
    return np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count).astype(bool)
