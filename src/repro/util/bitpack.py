"""Vectorised bit packing.

Packs unsigned integers of arbitrary bit width (1..32) into a dense byte
stream, and boolean bitmaps into packed bits.  These are the building
blocks of COMPSO's bitmap filter and variable-width quantised-value
packing (paper section 4.3: "packing bits into bytes based on the specified
error bound" is what lets COMPSO beat fixed 8-bit formats by ~14%).

All routines are vectorised NumPy; no per-element Python loops.  Whole-byte
widths are a big-endian cast of the values at the width they arrive in, and
a bitmap is read back either whole (:func:`unpack_bitmap`) or as the
positions of its clear bits (:func:`clear_bit_index`), which costs what is
clear rather than what is there.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_uints",
    "unpack_uints",
    "pack_bitmap",
    "unpack_bitmap",
    "clear_bit_index",
    "required_width",
]


def required_width(max_value: int) -> int:
    """Minimum bit width able to represent ``max_value`` (>= 1 bit)."""
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    return max(1, int(max_value).bit_length())


def pack_uints(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned integers into ``width``-bit fields, MSB first.

    ``values`` must all be ``< 2**width``.  An array of any unsigned dtype
    is read at its own width (anything else is first cast to ``uint64``).
    Returns the packed bytes; the caller is responsible for remembering
    ``len(values)`` and ``width``.
    """
    if not 1 <= width <= 32:
        raise ValueError(f"width must be in [1, 32], got {width}")
    v = np.asarray(values).ravel()
    if v.dtype.kind != "u":
        v = v.astype(np.uint64)
    if v.size == 0:
        return b""
    if v.dtype.itemsize * 8 > width and v.max() >= (1 << width):
        raise ValueError(f"value {v.max()} does not fit in {width} bits")
    if width in (8, 16, 32):
        # Whole bytes per field are the big-endian words themselves.
        return v.astype(f">u{width // 8}").tobytes()
    if width == 24:
        return v.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 1:].tobytes()
    shifts = np.arange(width - 1, -1, -1, dtype=v.dtype)
    bits = ((v[:, None] >> shifts) & v.dtype.type(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_uints(blob: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uints`; returns a fresh ``uint32`` array of ``count`` values."""
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    if len(blob) * 8 < count * width:
        raise ValueError(f"{len(blob)} bytes cannot hold {count} fields of {width} bits")
    if width in (8, 16, 32):
        return np.frombuffer(blob, dtype=f">u{width // 8}", count=count).astype(np.uint32)
    if width == 24:
        be = np.zeros((count, 4), dtype=np.uint8)
        be[:, 1:] = np.frombuffer(blob, dtype=np.uint8, count=count * 3).reshape(count, 3)
        return be.view(">u4").ravel().astype(np.uint32)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count * width)
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return (bits @ weights).astype(np.uint32)


def pack_bitmap(mask: np.ndarray) -> bytes:
    """Pack a boolean mask into bits (1 bit per element, MSB first)."""
    return np.packbits(np.asarray(mask, dtype=bool).ravel()).tobytes()


def unpack_bitmap(blob: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`; returns a boolean array of ``count`` elements."""
    if count == 0:
        return np.empty(0, dtype=bool)
    return np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count).view(bool)


def clear_bit_index(blob: bytes, count: int) -> np.ndarray:
    """Ascending positions of the clear bits among the first ``count`` of a packed bitmap.

    Equal to ``np.flatnonzero(~unpack_bitmap(blob, count))``, at a cost that
    follows the clear bits: bytes of eight set bits are skipped whole, and
    only the others are expanded.
    """
    packed = np.frombuffer(blob, dtype=np.uint8, count=(count + 7) // 8)
    mixed = np.flatnonzero(packed != 255)
    bit = np.flatnonzero(np.unpackbits(~packed[mixed]).view(bool))
    index = mixed[bit >> 3]
    index <<= 3
    bit &= 7
    index += bit
    # The padding bits of the last byte are clear as well.
    return index[: index.searchsorted(count)]
