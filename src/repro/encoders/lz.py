"""LZ77-family encoders: LZ4-style and Snappy-style presets.

Both nvCOMP LZ4 and Snappy are dictionary (match-based) coders without an
entropy stage.  The paper finds they lose to entropy coders on gradient
data because quantised gradients have a skewed *value* distribution but
few repeated *patterns* (Table 2).  We implement a greedy hash-chain
matcher with Snappy's skip acceleration; the two presets differ in how
hard they search (LZ4 searches harder -> slightly better ratio, Snappy
skips faster -> modelled as higher throughput in gpusim).

Token stream layout (repeated until input exhausted)::

    <varint literal_len> <literals> <varint match_len> <varint distance>

``match_len == 0`` terminates a block without a match (used for the tail).
Minimum match length is 4.
"""

from __future__ import annotations

import numpy as np

from repro.encoders.base import Encoder, EncodeError

__all__ = ["Lz4LikeEncoder", "SnappyLikeEncoder"]

_MIN_MATCH = 4
_MAX_DIST = 65535


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EncodeError("lz: truncated varint")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def _extend_match(data: bytes, a: int, b: int, limit: int) -> int:
    """Length of the common prefix of data[a:] and data[b:], b < limit."""
    n = 0
    chunk = 32
    while b + n + chunk <= limit and data[a + n : a + n + chunk] == data[b + n : b + n + chunk]:
        n += chunk
    while b + n < limit and data[a + n] == data[b + n]:
        n += 1
    return n


class _LzBase(Encoder):
    #: Snappy-style skip shift: after (1 << shift) consecutive misses the
    #: matcher starts striding, trading ratio for speed.
    skip_shift: int = 5

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        n = len(data)
        out = bytearray()
        table: dict[bytes, int] = {}
        pos = 0
        anchor = 0
        misses = 0
        while pos + _MIN_MATCH <= n:
            key = data[pos : pos + _MIN_MATCH]
            cand = table.get(key)
            table[key] = pos
            if cand is not None and pos - cand <= _MAX_DIST:
                mlen = _MIN_MATCH + _extend_match(
                    data, cand + _MIN_MATCH, pos + _MIN_MATCH, n
                )
                _write_varint(out, pos - anchor)
                out += data[anchor:pos]
                _write_varint(out, mlen)
                _write_varint(out, pos - cand)
                pos += mlen
                anchor = pos
                misses = 0
            else:
                misses += 1
                pos += 1 + (misses >> self.skip_shift)
        if anchor < n:
            _write_varint(out, n - anchor)
            out += data[anchor:]
            _write_varint(out, 0)  # terminator: no match
            _write_varint(out, 0)
        return bytes(out)

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        out = bytearray()
        pos = 0
        while len(out) < n:
            lit_len, pos = _read_varint(payload, pos)
            out += payload[pos : pos + lit_len]
            pos += lit_len
            mlen, pos = _read_varint(payload, pos)
            dist, pos = _read_varint(payload, pos)
            if mlen == 0:
                continue
            if dist == 0 or dist > len(out):
                raise EncodeError("lz: invalid match distance")
            start = len(out) - dist
            if mlen <= dist:
                out += out[start : start + mlen]
            else:
                # Overlapping copy (run): emit byte by byte.
                for i in range(mlen):
                    out.append(out[start + i])
        return bytes(out)


class Lz4LikeEncoder(_LzBase):
    """LZ4-style preset: searches harder (slower skip growth)."""

    name = "lz4"
    skip_shift = 7


class SnappyLikeEncoder(_LzBase):
    """Snappy-style preset: aggressive skipping, lower ratio, faster."""

    name = "snappy"
    skip_shift = 4
