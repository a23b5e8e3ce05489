"""Canonical Huffman coding over bytes.

Huffman is the entropy stage of SZ's lossless backend and a reference
point for the entropy-coder family in Table 2.  The implementation is
canonical (only code lengths are stored in the header) with a
length-limited rebuild so the decode table stays small.

Encoding is fully vectorised (bit matrix + mask); decoding walks the
stream with a flat ``2**L`` lookup table.  Wall-clock throughput of the
pure-Python decode loop is *not* meant to model GPU throughput — that is
``repro.gpusim``'s job — but the compressed sizes are real.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from repro.encoders.base import Encoder, EncodeError, as_u8

__all__ = ["HuffmanEncoder", "code_lengths"]

_MAX_LEN = 15  # maximum code length; decode table is 2**15 entries


def code_lengths(freq: np.ndarray) -> np.ndarray:
    """Huffman code lengths for symbol frequencies, limited to ``_MAX_LEN``.

    Uses the classic heap construction; if the resulting tree is deeper
    than ``_MAX_LEN`` the frequencies are repeatedly halved (floor at 1)
    and the tree rebuilt — a standard, slightly suboptimal limiter.
    """
    freq = np.asarray(freq, dtype=np.int64)
    lengths = np.zeros(freq.size, dtype=np.int32)
    present = np.flatnonzero(freq)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    work = freq.astype(np.float64)
    while True:
        # heap items: (weight, tiebreak, [symbols...])
        heap = [(float(work[s]), int(s), [int(s)]) for s in present]
        heapq.heapify(heap)
        lengths[:] = 0
        counter = freq.size
        while len(heap) > 1:
            w1, _, s1 = heapq.heappop(heap)
            w2, _, s2 = heapq.heappop(heap)
            for s in s1:
                lengths[s] += 1
            for s in s2:
                lengths[s] += 1
            heapq.heappush(heap, (w1 + w2, counter, s1 + s2))
            counter += 1
        if lengths.max() <= _MAX_LEN:
            return lengths
        work = np.maximum(work // 2, 1) * (freq > 0)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes (uint32) given code lengths; 0 for absent symbols."""
    codes = np.zeros(lengths.size, dtype=np.uint32)
    order = sorted((int(l), s) for s, l in enumerate(lengths) if l > 0)
    code = 0
    prev_len = 0
    for length, sym in order:
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


class HuffmanEncoder(Encoder):
    """Canonical Huffman over the byte alphabet."""

    name = "huffman"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        u8 = as_u8(data)
        freq = np.bincount(u8, minlength=256)
        lengths = code_lengths(freq)
        codes = _canonical_codes(lengths)
        sym_len = lengths[u8]
        total_bits = int(sym_len.sum())
        # Left-align every code in a 16-bit field, emit its first `len` bits.
        left = (codes[u8].astype(np.uint32) << (16 - lengths[u8])).astype(np.uint16)
        cols = np.arange(16, dtype=np.uint16)
        bits = ((left[:, None] >> (15 - cols)) & 1).astype(np.uint8)
        mask = cols < sym_len[:, None]
        stream = np.packbits(bits[mask])
        header = struct.pack("<I", total_bits) + lengths.astype(np.uint8).tobytes()
        return header + stream.tobytes()

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 4 + 256:
            raise EncodeError("huffman: truncated header")
        (total_bits,) = struct.unpack_from("<I", payload, 0)
        lengths = np.frombuffer(payload[4 : 4 + 256], dtype=np.uint8).astype(np.int32)
        # A damaged table must fail here, before it sizes the decode table.
        if int(lengths.max()) > _MAX_LEN:
            raise EncodeError(f"huffman: code length table holds {int(lengths.max())} > {_MAX_LEN}")
        if int(np.sum(1 << (_MAX_LEN - lengths[lengths > 0]))) > 1 << _MAX_LEN:
            raise EncodeError("huffman: code length table breaks the Kraft inequality")
        codes = _canonical_codes(lengths)
        max_len = int(lengths.max()) if lengths.any() else 1
        # Flat decode table: any max_len-bit window starting with a code
        # maps to (symbol, code length).
        table_sym = np.zeros(1 << max_len, dtype=np.uint8)
        table_len = np.zeros(1 << max_len, dtype=np.uint8)
        for sym in range(256):
            ln = int(lengths[sym])
            if ln == 0:
                continue
            start = int(codes[sym]) << (max_len - ln)
            end = (int(codes[sym]) + 1) << (max_len - ln)
            table_sym[start:end] = sym
            table_len[start:end] = ln
        stream = payload[4 + 256 :]
        if len(stream) * 8 < total_bits:
            raise EncodeError("huffman: bit stream shorter than declared")
        out = bytearray(n)
        buf = 0
        nbits = 0
        pos = 0
        window_mask = (1 << max_len) - 1
        tsym = table_sym.tolist()
        tlen = table_len.tolist()
        for i in range(n):
            while nbits < max_len and pos < len(stream):
                buf = (buf << 8) | stream[pos]
                pos += 1
                nbits += 8
            if nbits >= max_len:
                window = (buf >> (nbits - max_len)) & window_mask
            else:
                window = (buf << (max_len - nbits)) & window_mask
            ln = tlen[window]
            if ln == 0 or ln > nbits:
                raise EncodeError("huffman: invalid code in stream")
            out[i] = tsym[window]
            nbits -= ln
            buf &= (1 << nbits) - 1
        return bytes(out)
