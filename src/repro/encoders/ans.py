"""Static rANS (range Asymmetric Numeral System), lane-interleaved.

ANS is the paper's winning encoder (Table 2): highest combined ratio and
throughput on gradient data because it is *block-parallel* on the GPU
(Weissenberger & Schmidt, ICPP'19).  The host implementation mirrors that
choice instead of walking one state over the input: a frame is coded by
``K`` independent rANS states ("lanes"), symbol ``i`` belongs to lane
``i % K``, and one step of the coder is one NumPy expression over a
contiguous row of ``K`` input symbols.  Compressed sizes are real; GPU
throughput is modelled separately in ``repro.gpusim``.

Symbols.  A symbol is a byte, or — when the caller says its bytes are
big-endian 2-byte items, as COMPSO's 16-bit quantisation codes are — one
such item.  Coding a code as its two bytes puts a near-constant high
byte and a busy low byte into one order-0 model and takes two coder
steps; coding it whole takes one step over a histogram that is the
code distribution itself.  The kernels are the same, indexed by a wider
alphabet ``[0, largest symbol]``.  Items are a hint, never an option:
the encoder codes bytes instead whenever more than ``2**12`` distinct
items occur (each holds a probability slot however rare it is) or the
size it predicts from the item histogram, table included, is not below
the frame's own (a short frame under a wide alphabet).  Items of any
other size are bytes.

Coder: 32-bit states normalised to ``[2**16, 2**32)``, 14-bit quantised
frequencies, 16-bit renormalisation words.  With those widths a symbol
moves at most one word, so emitting and refilling are masks, not loops.
The encoder walks the rows in reverse and records, per row and lane, the
low word of the state and whether it was emitted; one boolean index turns
that into the word stream, which the decoder, walking the rows forward,
consumes in exactly that order.  Every lane starts at ``2**16``, so a
decoder that does not arrive back there read a damaged stream.

``K`` is the encoder's choice, written into the frame (:func:`_lanes`).
A row of ``K`` symbols costs one round of NumPy calls whatever ``K`` is,
so rows plus lanes is least at ``K = isqrt(symbols)``; every lane also
flushes a 4-byte state, so ``K`` is capped at 1/32 of the coded size the
histogram predicts, in bytes of states (a frame that codes to little
cannot afford many lanes), and at ``_MAX_LANES``.  Where that leaves
fewer than ``_ROW_LANES`` lanes the frame has a single lane — the same
format, run by a plain Python loop, which is faster than rows that
narrow.  The budget and where exactly rows start to pay are the
encoder's business: the decoder re-derives nothing and decodes any ``K``
in range.

A frame that cannot shrink is not coded (the caller's frame stores it
raw): the size is predicted from the histogram before the coder runs,
and from the histogram's entropy before the table is built.

Payload (after the 5-byte frame of :class:`Encoder`), little-endian::

    u16      K | (item size - 1) << 12
    u16      largest symbol          -- 2-byte items only; bytes: 255 implied
    u32      zlib.crc32 of the frame's bytes
    A/8 B    presence bitmap over the alphabet A = largest symbol + 1,
             bit s set when symbol s occurs (32 B for bytes)
    u8       w, the bits of one table entry: bit_length(max frequency - 1)
    P*w/8 B  quantised frequency - 1 of each of the P present symbols,
             w bits each, most significant bit first (sum of frequencies 2**14)
    u32 * K  final lane states
    u16 * W  renormalisation words

The decoder checks every field before it uses it: item size 1 or 2 and
dividing the frame length, ``K`` equal to 1 or within ``[_ROW_LANES,
min(isqrt(symbols), _MAX_LANES)]``, the last alphabet bit set and the
bitmap padding clear, at most ``2**12`` items present, ``w`` within
``[1, 14]`` and the table's padding clear, the table's sum, the word
stream's parity and length, every lane's end state — and, last, the
checksum of what it decoded: rANS re-synchronises, so a damaged word can
garble a stretch of symbols and still bring every lane home.
"""

from __future__ import annotations

import zlib
from math import isqrt

import numpy as np

from repro.encoders.base import Encoder, EncodeError

__all__ = ["RansEncoder", "quantize_freqs"]

_PROB_BITS = 14
_PROB_SCALE = 1 << _PROB_BITS
_SLOT_MASK = _PROB_SCALE - 1
_WORD_BITS = 16
_RANS_L = 1 << 16  # lower bound of the normalised state interval; every lane starts here
# Coding a symbol of frequency f and cumulative frequency cum takes x to
#   ((x // f) << 14) + x % f + cum  ==  x + (x // f) * (2**14 - f) + cum.
# A state x must shed a word before coding a symbol of frequency f when
# x >= f << 18.  f == 2**14 (a frame of one repeated symbol) would
# overflow 32 bits there, so the loop compares (x >> 18) >= f and the row
# kernel x > (f << 18) - 1, whose right-hand side wraps to 2**32 - 1.
_EMIT_SHIFT = 32 - _PROB_BITS

_MAX_LANES = 1024
# Rows narrower than this lose to the scalar loop.  Measured here: a row
# costs the encoder 4.5 us and the decoder 7.3 us whatever it codes, a
# symbol of the loop 0.13 + 0.19 us (bytes) or 0.17 + 0.23 us (items),
# so the two meet at 37 and 30 lanes.
_ROW_LANES = 32
# 4 K bytes of lane states <= 1/32 of the predicted coded bytes.
_LANE_BUDGET_SHIFT = 2 + 5
# The encoder's row kernel gathers table entries for this many symbols at
# a time: enough rows to amortise the gather, 0.5 MB however long the frame.
_BLOCK_SYMBOLS = 1 << 15
# K <= 1024 leaves the top of its u16 field free: item size - 1 lives
# there, so a frame of 1-byte symbols starts with the bare lane count.
_ITEM_SHIFT = 12
_LANE_MASK = (1 << _ITEM_SHIFT) - 1
# Every present symbol takes at least one of the 2**14 probability slots
# whatever its count; past a quarter of the scale that floor costs more
# than a wider symbol saves.
_MAX_SYMBOLS = _PROB_SCALE >> 2


def _lanes(symbols: int, predicted: int) -> int:
    """Lanes the encoder gives a frame of ``symbols`` symbols that it predicts
    will code to ``predicted`` bytes (lane states not counted)."""
    lanes = min(isqrt(symbols), _MAX_LANES, predicted >> _LANE_BUDGET_SHIFT)
    return lanes if lanes >= _ROW_LANES else 1


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
    cum = np.zeros(qfreq.size, dtype=np.uint32)
    np.cumsum(qfreq[:-1], out=cum[1:])
    return cum


def _wire_bytes(symbols: np.ndarray) -> bytes:
    """Decoded symbols as frame bytes: 2-byte symbols are big-endian items."""
    return symbols.astype(">u2").tobytes() if symbols.itemsize == 2 else symbols.tobytes()


def _pack_table(values: np.ndarray, width: int) -> bytes:
    """``values`` (each below ``2**width``) back to back, most significant bit first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return np.packbits((values[:, None] >> shifts & 1).astype(np.uint8)).tobytes()


def _unpack_table(packed: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_table`; raises when a padding bit is set."""
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    if bits[count * width :].any():
        raise EncodeError("ans: frequency table padding bits set")
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.uint32)
    return bits[: count * width].reshape(count, width) @ weights


# The kernels take the symbols as an integer array (of either byte order)
# and the quantised frequencies of the alphabet ``[0, qfreq.size)``; the
# decoders return the frame bytes of ``n`` symbols of ``item_size`` bytes.


def _encode_scalar(symbols: np.ndarray, qfreq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lane, one symbol at a time; returns ``(states[1], words)``."""
    f = qfreq.tolist()
    comp = (_PROB_SCALE - qfreq).tolist()
    cum = _cumulative(qfreq).tolist()
    words = []
    x = _RANS_L
    # rANS encodes in reverse so the decoder emits in forward order.
    for s in reversed(symbols.tobytes() if symbols.itemsize == 1 else symbols.tolist()):
        fs = f[s]
        if (x >> _EMIT_SHIFT) >= fs:
            words.append(x & 0xFFFF)
            x >>= _WORD_BITS
        x += (x // fs) * comp[s] + cum[s]
    words.reverse()
    return np.array([x], dtype=np.uint32), np.array(words, dtype=np.uint16)


def _encode_lanes(
    symbols: np.ndarray, qfreq: np.ndarray, lanes: int
) -> tuple[np.ndarray, np.ndarray]:
    """``lanes`` interleaved states, one row of symbols per step; returns ``(states, words)``.

    The per-symbol table entries are gathered a block of rows at a time,
    so a step is eight in-place NumPy calls on row views and nothing else.
    """
    n = symbols.size
    rows = -(-n // lanes)
    cum = _cumulative(qfreq)
    low = np.empty((rows, lanes), dtype=np.uint16)
    emitted = np.empty((rows, lanes), dtype=bool)
    shift_of = emitted.view(np.uint8)  # 1 where a word leaves, so << 4 is its 16-bit shift
    x = np.full(lanes, _RANS_L, dtype=np.uint32)
    q = np.empty(lanes, dtype=np.uint32)
    shift = np.empty(lanes, dtype=np.uint8)
    block = _BLOCK_SYMBOLS // lanes  # rows; lanes <= 1024
    for top in range(rows, 0, -block):
        base = max(0, top - block)
        sym = symbols[base * lanes : top * lanes]
        # The last row may be short: its missing symbols get the whole
        # scale, which codes in no bits and leaves their lanes where they are.
        f = np.full((top - base, lanes), _PROB_SCALE, dtype=np.uint32)
        c = np.zeros((top - base, lanes), dtype=np.uint32)
        # Symbols index their own histogram: "clip" only spares take a bounds pass.
        qfreq.take(sym, out=f.ravel()[: sym.size], mode="clip")
        cum.take(sym, out=c.ravel()[: sym.size], mode="clip")
        comp = _PROB_SCALE - f
        limit = (f << _EMIT_SHIFT) - 1
        for r in range(top - 1, base - 1, -1):
            i = r - base
            np.greater(x, limit[i], out=emitted[r])
            low[r] = x  # keeps the low 16 bits
            np.left_shift(shift_of[r], 4, out=shift)
            x >>= shift
            np.floor_divide(x, f[i], out=q)
            q *= comp[i]
            q += c[i]
            x += q
    return x, np.compress(emitted.ravel(), low.ravel())


def _decode_scalar(
    states: np.ndarray, words: np.ndarray, qfreq: np.ndarray, n: int, item_size: int = 1
) -> bytes:
    f = qfreq.tolist()
    c = _cumulative(qfreq).tolist()
    w = words.tolist()
    # The slot table and the output are indexed in place, as bytes or
    # through a memoryview: a 2**14-entry list built per call would cost a
    # short frame more than decoding it.
    if item_size == 1:
        sym_of = np.repeat(np.arange(qfreq.size, dtype=np.uint8), qfreq).tobytes()
        out = bytearray(n)
    else:
        sym_of = memoryview(np.repeat(np.arange(qfreq.size, dtype=np.uint16), qfreq))
        out = memoryview(np.empty(n, dtype=np.uint16))
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
    return _wire_bytes(np.asarray(out))


def _decode_lanes(
    states: np.ndarray, words: np.ndarray, qfreq: np.ndarray, n: int, item_size: int = 1
) -> bytes:
    lanes = states.size
    sym_of = np.repeat(np.arange(qfreq.size, dtype=f"u{item_size}"), qfreq)
    freq_of = np.repeat(qfreq, qfreq)
    bias_of = np.arange(_PROB_SCALE, dtype=np.uint32) - np.repeat(_cumulative(qfreq), qfreq)
    out = np.empty(n, dtype=sym_of.dtype)
    x = state = states.astype(np.uint32)
    entry = np.empty(lanes, dtype=np.uint32)
    pos = 0
    for lo in range(0, n, lanes):
        row = out[lo : lo + lanes]
        if row.size != lanes:  # the last row may be short
            x, entry = x[: row.size], entry[: row.size]
        # Slots are below 2**14 by construction, so "clip" never clips.
        slot = (x & _SLOT_MASK).astype(np.intp)
        sym_of.take(slot, out=row, mode="clip")
        x >>= _PROB_BITS
        x *= freq_of.take(slot, out=entry, mode="clip")
        x += bias_of.take(slot, out=entry, mode="clip")
        refill = (x < _RANS_L).nonzero()[0]
        if refill.size:
            end = pos + refill.size
            if end > words.size:
                raise EncodeError("ans: word stream ran out")
            x[refill] = (x[refill] << _WORD_BITS) | words[pos:end]
            pos = end
    _check_end(pos, words.size, bool((state == _RANS_L).all()))
    return _wire_bytes(out)


def _check_end(used: int, available: int, at_start_state: bool) -> None:
    if used != available:
        raise EncodeError(f"ans: {available - used} words left over")
    if not at_start_state:
        raise EncodeError("ans: a lane did not end on its start state")


def _byte_counts(counts: np.ndarray) -> np.ndarray:
    """Byte histogram of a frame, from the histogram of its big-endian 2-byte items."""
    grid = np.zeros((-(-counts.size // 256), 256), dtype=counts.dtype)
    grid.ravel()[: counts.size] = counts
    out = grid.sum(axis=0)  # low bytes
    out[: grid.shape[0]] += grid.sum(axis=1)  # high bytes
    return out


def _table_bytes(entries: int, width: int) -> int:
    return -(-entries * width // 8)


def _code(symbols: np.ndarray, counts: np.ndarray, data: bytes) -> bytes | None:
    """Payload of the frame ``data`` coded as ``symbols`` with histogram
    ``counts``, or ``None`` when that cannot make the frame smaller.

    The size is predicted from the histogram, so a frame that will not
    shrink never reaches the coder — nor, when the entropy of the
    histogram already says so, the table builder.
    """
    n = len(data)
    item_size = symbols.itemsize
    present = counts > 0
    occurring = counts[present]
    # All of a coded frame but its table, lane states and words.
    fixed = 2 + 2 * (item_size - 1) + 4 + -(-counts.size // 8) + 1
    # The least those can take: the largest of P frequencies that sum to the
    # scale is at least scale / P, there is one lane or more, and no table
    # codes the symbols in fewer bits than their entropy.
    least_width = (-(-_PROB_SCALE // occurring.size) - 1).bit_length()
    entropy = float((occurring * np.log2(symbols.size / occurring)).sum())
    if fixed + _table_bytes(occurring.size, least_width) + 4 + entropy / 8 >= n:
        return None
    qfreq = quantize_freqs(counts)
    table = qfreq[present]
    width = int(table.max() - 1).bit_length()
    bits = float((occurring * (_PROB_BITS - np.log2(table))).sum())
    predicted = fixed + _table_bytes(table.size, width) + int(bits / 8)
    lanes = _lanes(symbols.size, predicted)
    if predicted + 4 * lanes >= n:
        return None
    if lanes == 1:
        states, words = _encode_scalar(symbols, qfreq)
    else:
        states, words = _encode_lanes(symbols, qfreq, lanes)
    return b"".join(
        (
            (lanes | (item_size - 1) << _ITEM_SHIFT).to_bytes(2, "little"),
            b"" if item_size == 1 else (counts.size - 1).to_bytes(2, "little"),
            zlib.crc32(data).to_bytes(4, "little"),
            np.packbits(present).tobytes(),
            bytes([width]),
            _pack_table(table - 1, width),
            states.astype("<u4").tobytes(),
            words.astype("<u2").tobytes(),
        )
    )


class RansEncoder(Encoder):
    """Static rANS over a frame's bytes or its 2-byte items, on interleaved states."""

    name = "ans"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        u8 = np.frombuffer(data, dtype=np.uint8)
        if item_size == 2:
            items = np.frombuffer(data, dtype=">u2")
            counts = np.bincount(items)
            few = np.count_nonzero(counts) <= _MAX_SYMBOLS
            coded = _code(items, counts, data) if few else None
            if coded is None:  # too many items, or a table that outweighs them
                coded = _code(u8, _byte_counts(counts), data)
        else:  # items of any other size are coded as the bytes they are
            coded = _code(u8, np.bincount(u8, minlength=256), data)
        return data if coded is None else coded  # cannot shrink: the frame stores it raw

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 4:
            raise EncodeError("ans: truncated header")
        field = int.from_bytes(payload[:2], "little")
        lanes = field & _LANE_MASK
        item_size = (field >> _ITEM_SHIFT) + 1
        if item_size not in (1, 2) or n % item_size:
            raise EncodeError(f"ans: item size {item_size} declared for a {n}-byte frame")
        count = n // item_size
        if lanes != 1 and not _ROW_LANES <= lanes <= min(isqrt(count), _MAX_LANES):
            raise EncodeError(f"ans: {lanes} lanes declared for {count} symbols")
        if item_size == 1:
            alphabet, check_at = 256, 2
        else:
            alphabet, check_at = int.from_bytes(payload[2:4], "little") + 1, 4
        bitmap_at = check_at + 4
        width_at = bitmap_at + -(-alphabet // 8)
        if len(payload) <= width_at:
            raise EncodeError("ans: truncated header")
        bitmap = np.frombuffer(payload, dtype=np.uint8, count=width_at - bitmap_at, offset=bitmap_at)
        bits = np.unpackbits(bitmap)
        present = bits[:alphabet].astype(bool)
        n_present = int(np.count_nonzero(present))
        if item_size == 2 and (not present[-1] or bits[alphabet:].any() or n_present > _MAX_SYMBOLS):
            # The encoder's alphabet ends on its largest symbol.
            raise EncodeError("ans: invalid alphabet")
        width = payload[width_at]
        if not 1 <= width <= _PROB_BITS:
            raise EncodeError(f"ans: frequency table of {width}-bit entries")
        table_end = width_at + 1 + _table_bytes(n_present, width)
        states_end = table_end + 4 * lanes
        if len(payload) < states_end:
            raise EncodeError("ans: truncated header")
        if (len(payload) - states_end) % 2:
            raise EncodeError("ans: odd-sized word stream")
        table = _unpack_table(payload[width_at + 1 : table_end], n_present, width) + 1
        if int(table.sum()) != _PROB_SCALE:
            raise EncodeError("ans: invalid frequency table")
        qfreq = np.zeros(alphabet, dtype=np.uint32)
        qfreq[present] = table
        states = np.frombuffer(payload[table_end:states_end], dtype="<u4")
        words = np.frombuffer(payload[states_end:], dtype="<u2")
        decode = _decode_scalar if lanes == 1 else _decode_lanes
        out = decode(states, words, qfreq, count, item_size)
        if zlib.crc32(out) != int.from_bytes(payload[check_at:bitmap_at], "little"):
            raise EncodeError("ans: decoded bytes fail the frame check")
        return out
