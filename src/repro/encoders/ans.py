"""Static byte-wise rANS (range Asymmetric Numeral System), lane-interleaved.

ANS is the paper's winning encoder (Table 2): highest combined ratio and
throughput on gradient data because it is *block-parallel* on the GPU
(Weissenberger & Schmidt, ICPP'19).  The host implementation mirrors that
choice instead of walking one state over the bytes: a frame is coded by
``K`` independent rANS states ("lanes"), symbol ``i`` belongs to lane
``i % K``, and one step of the coder is one NumPy expression over a
contiguous row of ``K`` input bytes.  Compressed sizes are real; GPU
throughput is modelled separately in ``repro.gpusim``.

Coder: 32-bit states normalised to ``[2**16, 2**32)``, 14-bit quantised
frequencies, 16-bit renormalisation words.  With those widths a symbol
moves at most one word, so emitting and refilling are masks, not loops.
The encoder walks the rows in reverse and records, per row and lane, the
low word of the state and whether it was emitted; one boolean index turns
that into the word stream, which the decoder, walking the rows forward,
consumes in exactly that order.  Every lane starts at ``2**16``, so a
decoder that does not arrive back there read a damaged stream.

``K`` is a function of the frame length alone (:func:`lane_count`): about
one lane per 2 KiB, which keeps the flushed states under 0.2 % of the
input, and a single lane — the same format, run by a plain Python loop —
for frames too short for the per-row NumPy overhead to pay off.

Payload (after the 5-byte frame of :class:`Encoder`), little-endian::

    u16      K
    32 B     presence bitmap, bit s set when byte value s occurs
    u16 * P  quantised frequency of each present symbol (sum 2**14)
    u32 * K  final lane states
    u16 * W  renormalisation words
"""

from __future__ import annotations

import numpy as np

from repro.encoders.base import Encoder, EncodeError, as_u8

__all__ = ["RansEncoder", "quantize_freqs", "lane_count"]

_PROB_BITS = 14
_PROB_SCALE = 1 << _PROB_BITS
_SLOT_MASK = _PROB_SCALE - 1
_WORD_BITS = 16
_RANS_L = 1 << 16  # lower bound of the normalised state interval; every lane starts here
# Coding a symbol of frequency f and cumulative frequency cum takes x to
#   ((x // f) << 14) + x % f + cum  ==  x + (x // f) * (2**14 - f) + cum.
# A state x must shed a word before coding a symbol of frequency f when
# x >= f << 18.  Compared as (x >> 18) >= f so that f == 2**14 (a frame
# of one repeated byte) does not overflow 32 bits.
_EMIT_SHIFT = 32 - _PROB_BITS

_TABLE_AT = 2 + 32  # payload offset of the frequency table: after K and the bitmap

_LANE_SHIFT = 11  # one lane per 2 KiB of input
_MIN_LANES = 48  # narrower rows lose to the scalar loop (measured crossover: 40-44 lanes)
_MAX_LANES = 1024


def lane_count(n: int) -> int:
    """Number of interleaved rANS lanes used for an ``n``-byte frame."""
    lanes = n >> _LANE_SHIFT
    return 1 if lanes < _MIN_LANES else min(lanes, _MAX_LANES)


def quantize_freqs(freq: np.ndarray, scale: int = _PROB_SCALE) -> np.ndarray:
    """Scale frequencies to sum exactly to ``scale``, keeping present symbols >= 1."""
    freq = np.asarray(freq, dtype=np.int64)
    total = int(freq.sum())
    if total == 0:
        raise ValueError("cannot quantise an empty frequency table")
    scaled = np.maximum((freq * scale) // total, (freq > 0).astype(np.int64))
    diff = scale - int(scaled.sum())
    if diff != 0:
        # Adjust symbols with the most headroom, one unit each per sweep
        # over the symbols in descending order, never dropping below 1.
        order = np.argsort(scaled)[::-1]
        step = 1 if diff > 0 else -1
        while diff != 0:
            movable = order[(scaled[order] + step >= 1) & (freq[order] > 0)]
            moved = movable[: abs(diff)]
            scaled[moved] += step
            diff -= step * moved.size
    return scaled.astype(np.uint32)


def _cumulative(qfreq: np.ndarray) -> np.ndarray:
    cum = np.zeros(256, dtype=np.uint32)
    np.cumsum(qfreq[:-1], out=cum[1:])
    return cum


def _encode_scalar(u8: np.ndarray, qfreq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lane, one byte at a time; returns ``(states[1], words)``."""
    f = qfreq.tolist()
    comp = (_PROB_SCALE - qfreq).tolist()
    cum = _cumulative(qfreq).tolist()
    words = []
    x = _RANS_L
    # rANS encodes in reverse so the decoder emits in forward order.
    for s in reversed(u8.tobytes()):
        fs = f[s]
        if (x >> _EMIT_SHIFT) >= fs:
            words.append(x & 0xFFFF)
            x >>= _WORD_BITS
        x += (x // fs) * comp[s] + cum[s]
    words.reverse()
    return np.array([x], dtype=np.uint32), np.array(words, dtype=np.uint16)


def _encode_lanes(u8: np.ndarray, qfreq: np.ndarray, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """``lanes`` interleaved states, one row of symbols per step; returns ``(states, words)``."""
    n = u8.size
    rows = -(-n // lanes)
    comp = _PROB_SCALE - qfreq
    cum = _cumulative(qfreq)
    low = np.zeros((rows, lanes), dtype=np.uint16)
    emitted = np.zeros((rows, lanes), dtype=bool)
    x = np.full(lanes, _RANS_L, dtype=np.uint32)
    for r in range(rows - 1, -1, -1):
        sym = u8[r * lanes : (r + 1) * lanes].astype(np.intp)  # the last row may be short
        xs = x[: sym.size]
        f = qfreq[sym]
        emit = (xs >> _EMIT_SHIFT) >= f
        low[r, : sym.size] = xs  # keeps the low 16 bits
        emitted[r, : sym.size] = emit
        xs >>= np.multiply(emit, _WORD_BITS, dtype=np.uint32)
        q = xs // f
        q *= comp[sym]
        q += cum[sym]
        xs += q
    return x, np.compress(emitted.ravel(), low.ravel())


def _decode_scalar(states: np.ndarray, words: np.ndarray, qfreq: np.ndarray, n: int) -> bytes:
    f = qfreq.tolist()
    c = _cumulative(qfreq).tolist()
    sym_of = np.repeat(np.arange(256, dtype=np.uint8), qfreq).tobytes()
    w = words.tolist()
    out = bytearray(n)
    x = int(states[0])
    pos = 0
    try:
        for i in range(n):
            slot = x & _SLOT_MASK
            s = sym_of[slot]
            out[i] = s
            x = f[s] * (x >> _PROB_BITS) + slot - c[s]
            if x < _RANS_L:
                x = (x << _WORD_BITS) | w[pos]
                pos += 1
    except IndexError:
        raise EncodeError("ans: word stream ran out") from None
    _check_end(pos, len(w), x == _RANS_L)
    return bytes(out)


def _decode_lanes(states: np.ndarray, words: np.ndarray, qfreq: np.ndarray, n: int) -> bytes:
    lanes = states.size
    sym_of = np.repeat(np.arange(256, dtype=np.uint8), qfreq)
    freq_of = qfreq[sym_of]
    bias_of = np.arange(_PROB_SCALE, dtype=np.uint32) - _cumulative(qfreq)[sym_of]
    out = np.empty(n, dtype=np.uint8)
    x = states.astype(np.uint32)
    pos = 0
    for lo in range(0, n, lanes):
        row = out[lo : lo + lanes]  # the last row may be short
        xs = x[: row.size]
        slot = (xs & _SLOT_MASK).astype(np.intp)
        row[:] = sym_of[slot]
        xs >>= _PROB_BITS
        xs *= freq_of[slot]
        xs += bias_of[slot]
        refill = np.flatnonzero(xs < _RANS_L)
        if refill.size:
            end = pos + refill.size
            if end > words.size:
                raise EncodeError("ans: word stream ran out")
            xs[refill] = (xs[refill] << _WORD_BITS) | words[pos:end]
            pos = end
    _check_end(pos, words.size, bool((x == _RANS_L).all()))
    return out.tobytes()


def _check_end(used: int, available: int, at_start_state: bool) -> None:
    if used != available:
        raise EncodeError(f"ans: {available - used} words left over")
    if not at_start_state:
        raise EncodeError("ans: a lane did not end on its start state")


class RansEncoder(Encoder):
    """Static rANS over the byte alphabet, ``lane_count(n)`` interleaved states."""

    name = "ans"

    def _encode_payload(self, data: bytes) -> bytes:
        u8 = as_u8(data)
        lanes = lane_count(u8.size)
        counts = np.bincount(u8, minlength=256)
        present = counts > 0
        head = _TABLE_AT + 2 * int(np.count_nonzero(present)) + 4 * lanes
        if u8.size <= head:
            return data  # cannot shrink: the frame stores it raw
        qfreq = quantize_freqs(counts)
        table = qfreq[present]
        bits = counts[present] * (_PROB_BITS - np.log2(table))
        if head + float(bits.sum()) / 8 >= u8.size:
            return data
        if lanes == 1:
            states, words = _encode_scalar(u8, qfreq)
        else:
            states, words = _encode_lanes(u8, qfreq, lanes)
        return b"".join(
            (
                lanes.to_bytes(2, "little"),
                np.packbits(present).tobytes(),
                table.astype("<u2").tobytes(),
                states.astype("<u4").tobytes(),
                words.astype("<u2").tobytes(),
            )
        )

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        if len(payload) < _TABLE_AT:
            raise EncodeError("ans: truncated header")
        lanes = int.from_bytes(payload[:2], "little")
        if lanes != lane_count(n):
            raise EncodeError(f"ans: {lanes} lanes declared for a {n}-byte frame")
        bitmap = np.frombuffer(payload, dtype=np.uint8, count=32, offset=2)
        present = np.unpackbits(bitmap).astype(bool)
        table_end = _TABLE_AT + 2 * int(np.count_nonzero(present))
        states_end = table_end + 4 * lanes
        if len(payload) < states_end:
            raise EncodeError("ans: truncated header")
        if (len(payload) - states_end) % 2:
            raise EncodeError("ans: odd-sized word stream")
        table = np.frombuffer(payload[_TABLE_AT:table_end], dtype="<u2")
        if int(table.sum()) != _PROB_SCALE or not table.all():
            raise EncodeError("ans: invalid frequency table")
        qfreq = np.zeros(256, dtype=np.uint32)
        qfreq[present] = table
        states = np.frombuffer(payload[table_end:states_end], dtype="<u4")
        words = np.frombuffer(payload[states_end:], dtype="<u2")
        decode = _decode_scalar if lanes == 1 else _decode_lanes
        return decode(states, words, qfreq, n)
