"""Elias gamma coding of positive integers.

QSGD (Alistarh et al., NeurIPS'17) encodes quantised gradient magnitudes
with Elias coding, and ANS codes the alphabet and symbol counts of its
frames with it (``ans.py``); we provide gamma codes here.  A positive
integer x with N = floor(log2 x) is written as N zeros followed by the
(N+1)-bit binary of x — equivalently, x written big-endian in exactly
2N+1 bits.  Values go up to 2**32 - 1, whose prefix is 31 zeros; a longer
prefix is a damaged stream.

Encoding joins precomputed code strings.  Decoding comes in two sizes:

* :func:`elias_gamma_read` walks the stream a window at a time: every
  complete code in the next ``_WINDOW`` bits is one lookup
  (:func:`_window_table`), a longer code is read from the position of its
  leading one.  It serves short streams (an ANS frame's table: a couple of
  hundred codes, a dozen microseconds) and can stop where a run of values
  reaches a sum.
* :func:`elias_gamma_decode` of ``_BLOCKS_FROM`` values or more parses the
  stream in blocks side by side (:func:`_decode_blocks`): a code's prefix
  length is read off the leading set bit of a 64-bit window by one
  vectorised step per code of the longest block, not per code of the stream.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.encoders.base import EncodeError

__all__ = ["elias_gamma_encode", "elias_gamma_decode", "elias_gamma_read"]

# A value of at most 2**32 - 1 has a prefix of at most 31 zeros, a code of at most 63 bits.
_MAX_ZEROS = 31
_MAX_VALUE = (1 << _MAX_ZEROS + 1) - 1
# Codes of values below this come from a table (_code_strings).
_TABLED = 1 << 12
# Bits the reader looks up at a time; 14 was slower than 12 on ANS tables (a larger table, no fewer steps).
_WINDOW = 12
_WINDOW_MASK = (1 << _WINDOW) - 1
# Bytes of the stream the reader holds as one integer: shifts stay short, and
# a segment always holds one whole code past the reader's position.
_SEGMENT_BYTES = 64
# _decode_blocks from this many values on.  On a 2-vCPU x86-64 host the reader
# takes ~0.35 us a QSGD code (8 bits on average), the blocks ~0.1 us plus
# ~15 vectorised calls per code of their longest block: they meet near 2**14.
_BLOCKS_FROM = 1 << 15
# Codes one block holds on average: few enough for the longest block to set a
# short step count, many enough per vectorised call.
_BLOCK_CODES = 256
# Times the true parse may leave a block without meeting it before the whole
# stream is read sequentially instead.
_BLOCK_ROUNDS = 8
# Steps of a block's own parse before the whole stream is read sequentially instead.
_BLOCK_STEPS = 8 * _BLOCK_CODES


@cache
def _code_strings() -> list[str | None]:
    """The code of each value below ``_TABLED`` as a string of bits (``None`` for 0)."""
    return [None] + [format(v, "b").zfill(2 * v.bit_length() - 1) for v in range(1, _TABLED)]


def elias_gamma_encode(values: np.ndarray) -> bytes:
    """Encode an array of integers >= 1 as a packed Elias-gamma bit stream."""
    v = np.ascontiguousarray(values, dtype=np.uint64).ravel().tolist()
    codes = _code_strings()
    try:
        bits = "".join(map(codes.__getitem__, v))
    except (IndexError, TypeError):  # a value past the table, or 0
        if min(v) < 1:
            raise ValueError("Elias gamma requires values >= 1") from None
        if max(v) > _MAX_VALUE:
            raise ValueError("value too large for Elias gamma encoder") from None
        bits = "".join([codes[x] if x < _TABLED else format(x, "b").zfill(2 * x.bit_length() - 1) for x in v])
    if not bits:
        return b""
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


@cache
def _window_table(by_count: bool) -> list[tuple[int, tuple[int, ...], int]]:
    """For each ``_WINDOW`` bits that start with a code: the bits taken by the
    complete codes among them, their values, and how many they are
    (``by_count``) or their sum — ``(0, (), 0)`` when the first code does not fit."""
    table = []
    for window in range(1 << _WINDOW):
        used, values = 0, []
        while True:
            rest = _WINDOW - used
            tail = window & ((1 << rest) - 1)
            zeros = rest - tail.bit_length()
            if 2 * zeros + 1 > rest:
                break
            used += 2 * zeros + 1
            values.append(tail >> (_WINDOW - used))
        table.append((used, tuple(values), len(values) if by_count else sum(values)))
    return table


def elias_gamma_read(
    data: bytes, bit: int = 0, *, count: int | None = None, total: int | None = None
) -> tuple[list[int], int]:
    """The values coded from bit ``bit`` of ``data`` on, and the bit after the last.

    Reads ``count`` values or, given ``total`` instead, values up to the first
    at which their sum reaches ``total`` (or passes it: the caller checks).
    Raises :class:`EncodeError` when the data ends inside a code or a prefix
    runs past 31 zeros.
    """
    by_count = total is None
    table = _window_table(by_count)
    goal = count if by_count else total
    nbits = 8 * len(data)
    out: list[int] = []
    got = 0
    # seg holds the bits of data from byte ``start`` to bit ``end``, ``rest`` of them from the cursor on.
    start, seg, end, rest = bit >> 3, 0, bit, 0
    while got < goal:
        if rest <= 2 * _MAX_ZEROS and end < nbits:
            start = (end - rest) >> 3
            chunk = data[start : start + _SEGMENT_BYTES]
            rest += 8 * (start + len(chunk)) - end
            seg, end = int.from_bytes(chunk, "big"), 8 * (start + len(chunk))
        if rest >= _WINDOW:
            used, values, gain = table[seg >> rest - _WINDOW & _WINDOW_MASK]
            if used and got + gain <= goal:
                out += values
                got += gain
                rest -= used
                continue
        # One code: its prefix is the zeros before the leading one of what is left.
        if rest <= 0:
            raise EncodeError("elias: truncated stream")
        tail = seg & (1 << rest) - 1
        zeros = rest - tail.bit_length()
        if zeros > _MAX_ZEROS:
            raise EncodeError(f"elias: a prefix of more than {_MAX_ZEROS} zeros")
        if 2 * zeros + 1 > rest:
            raise EncodeError("elias: truncated stream")
        rest -= 2 * zeros + 1
        value = tail >> rest
        out.append(value)
        got += 1 if by_count else value
    pos = end - rest
    return out, pos


def elias_gamma_decode(blob: bytes, count: int) -> np.ndarray:
    """Decode ``count`` integers from an Elias-gamma bit stream.

    Raises :class:`EncodeError` when the stream holds fewer or a prefix runs
    past 31 zeros."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    if count >= _BLOCKS_FROM:
        values = _decode_blocks(blob, count)
        if values is not None:
            return values
    return np.array(elias_gamma_read(blob, count=count)[0], dtype=np.uint64)


def _windows(buf: np.ndarray) -> np.ndarray:
    """The 64 bits from each byte of ``buf`` on, as ``uint64``; zeros past its end,
    so any bit up to 72 past the last has a window."""
    pad = np.zeros(buf.size + 16, dtype=np.uint8)
    pad[: buf.size] = buf
    return as_strided(pad, (buf.size + 9, 8), (1, 1)).copy().view(">u8").ravel().astype(np.uint64)


def _widths(win: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``2 * zeros + 1`` of the code at each bit ``at``, ``zeros`` its prefix: the
    bit length of a window's top 32 bits is exact in a float's exponent.  65 for
    a prefix of 32 zeros or more."""
    top = (win[at >> 3] << (at & 7).astype(np.uint64)) >> np.uint64(32)
    return 65 - 2 * np.frexp(top.astype(np.float64))[1]


def _decode_blocks(blob: bytes, count: int) -> np.ndarray | None:
    """The first ``count`` values of the stream, parsed in blocks side by side;
    ``None`` when the stream is not one these blocks parse (a damaged stream,
    or one whose blocks never fall into step): the caller reads it sequentially.

    The stream is cut into blocks of about ``_BLOCK_CODES`` codes' bits, and
    every block is parsed from its first bit as if a code started there, all
    blocks one code per step.  Gamma is a prefix code, so such a parse
    usually falls into step with the true one within a few codes.  The true
    parse enters each block where the parse of the block before left it, and
    is walked, all blocks side by side, until it meets the block's own parse,
    which it follows from there.  A walk that leaves its block first moves
    where the next block is entered, and that block is walked again, for up
    to ``_BLOCK_ROUNDS`` rounds.  The result is checked code by code: each
    code starts where the one before ended.
    """
    buf = np.frombuffer(blob, dtype=np.uint8)
    nbits = 8 * buf.size
    win = _windows(buf)
    block = max(64, _BLOCK_CODES * nbits // count)
    # Bit positions and widths in as few bytes as they fit, for the matrices below.
    first = np.arange(0, nbits, block, dtype=np.int32 if nbits < 1 << 30 else np.int64)
    end = np.minimum(first + block, nbits)
    # Each block's own parse: its starts and widths, a column per step.
    cur, starts, widths = first.copy(), [], []
    for _ in range(_BLOCK_STEPS):
        live = cur < end
        if not live.any():
            break
        width = _widths(win, cur)
        starts.append(cur.copy())
        widths.append(width)
        cur += width * live
    else:  # a block far denser in codes than the stream (or a count far below it)
        return None
    if not starts:
        return None
    own = np.stack(starts, axis=1)
    own_width = np.stack(widths, axis=1, dtype=np.uint8, casting="unsafe")
    inside = own < end[:, None]
    on_own = np.zeros(nbits + 80, dtype=bool)
    on_own[own[inside]] = True
    # Where the true parse meets each block's own parse; block 0's is the true one.
    meet = np.zeros_like(first)
    walked, last = [], np.zeros(first.size, dtype=np.int64)
    entry, todo = cur[:-1].copy(), np.arange(1, first.size)
    for rounds in range(1, _BLOCK_ROUNDS + 1):
        if not todo.size:
            break
        last[todo] = rounds
        at, stop = entry[todo - 1].copy(), end[todo]
        going = np.flatnonzero((at < stop) & ~on_own[at])
        while going.size:
            width = _widths(win, at[going])
            walked.append((at[going], width, todo[going], rounds))
            at[going] += width
            going = going[(at[going] < stop[going]) & ~on_own[at[going]]]
        meet[todo] = at
        # A walk that left its block enters the next one where it left.
        left = (at >= stop) & (todo + 1 < first.size)
        entry[todo[left]] = at[left]
        todo = todo[left] + 1
    else:
        if todo.size:
            return None
    take = (own >= meet[:, None]) & inside
    starts, widths = own[take], own_width[take]
    kept = [(s[last[b] == r], w[last[b] == r]) for s, w, b, r in walked]
    if kept:
        extra = np.concatenate([s for s, _ in kept])
        order = np.argsort(extra, kind="stable")
        extra, extra_widths = extra[order], np.concatenate([w for _, w in kept])[order]
        where = np.searchsorted(starts, extra)
        starts, widths = np.insert(starts, where, extra), np.insert(widths, where, extra_widths)
    starts, widths = starts[:count], widths[:count]
    ends = starts + widths
    if starts.size < count or widths.max() > 2 * _MAX_ZEROS + 1 or ends[-1] > nbits:
        return None
    if (ends[:-1] != starts[1:]).any():
        return None
    zeros = widths >> 1
    lead = starts + zeros
    return (win[lead >> 3] << (lead & 7).astype(np.uint64)) >> (63 - zeros).astype(np.uint64)
