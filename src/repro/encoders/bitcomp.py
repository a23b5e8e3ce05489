"""Bitcomp-style fixed-width bit packing.

NVIDIA's Bitcomp is a proprietary lossless mode that, per the paper's
observation (Table 2), achieves very high throughput but a modest
compression ratio.  We model it as blockwise fixed-width packing: each
block of bytes is stored at the minimum bit width needed for its maximum
value.  This captures Bitcomp's behaviour on quantised-gradient data,
where most blocks use only the low bits.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encoders.base import Encoder, EncodeError, as_u8
from repro.util.bitpack import pack_uints, required_width, unpack_uints

__all__ = ["BitcompEncoder"]

_BLOCK = 4096


class BitcompEncoder(Encoder):
    """Blockwise minimal-width bit packing of the byte stream."""

    name = "bitcomp"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        u8 = as_u8(data)
        parts = [struct.pack("<I", _BLOCK)]
        for start in range(0, u8.size, _BLOCK):
            block = u8[start : start + _BLOCK]
            width = required_width(int(block.max())) if block.size else 1
            packed = pack_uints(block, width)
            parts.append(struct.pack("<BH", width, len(packed)))
            parts.append(packed)
        return b"".join(parts)

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 4:
            raise EncodeError("bitcomp: missing block-size header")
        (block_size,) = struct.unpack_from("<I", payload, 0)
        pos = 4
        out = np.empty(n, dtype=np.uint8)
        written = 0
        while written < n:
            if pos + 3 > len(payload):
                raise EncodeError("bitcomp: truncated block header")
            width, nbytes = struct.unpack_from("<BH", payload, pos)
            pos += 3
            count = min(block_size, n - written)
            values = unpack_uints(payload[pos : pos + nbytes], width, count)
            pos += nbytes
            out[written : written + count] = values.astype(np.uint8)
            written += count
        return out.tobytes()
