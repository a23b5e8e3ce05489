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

``K`` is a function of the frame length in bytes and the item size
(:func:`lane_count`): about one lane per 2 KiB, which keeps the flushed
states under 0.2 % of the input, and a single lane — the same format, run
by a plain Python loop — for frames too short for the per-row NumPy
overhead to pay off.

Payload (after the 5-byte frame of :class:`Encoder`), little-endian::

    u16      K | (item size - 1) << 12
    u16      largest symbol          -- 2-byte items only; bytes: 255 implied
    A/8 B    presence bitmap over the alphabet A = largest symbol + 1,
             bit s set when symbol s occurs (32 B for bytes)
    u16 * P  quantised frequency of each present symbol (sum 2**14)
    u32 * K  final lane states
    u16 * W  renormalisation words

A frame of bytes therefore reads exactly as it did before item sizes
existed.  The decoder checks every field before it uses it: item size 1
or 2 and dividing the frame length, ``K`` re-derived from both, the last
alphabet bit set and the bitmap padding clear, at most ``2**12`` items
present, the table's sum, the word stream's parity and length, and
every lane's end state.
"""

from __future__ import annotations

import numpy as np

from repro.encoders.base import Encoder, EncodeError

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
# of one repeated symbol) does not overflow 32 bits.
_EMIT_SHIFT = 32 - _PROB_BITS

_LANE_SHIFT = 11  # one lane per 2 KiB of input
_MAX_LANES = 1024
# Narrower rows lose to the scalar loop.  Both paths take half the steps
# on 2-byte symbols, so the crossover moves only by what a step costs: a
# row costs the same, a scalar step more (lists and memoryviews where
# bytes were).  Measured crossovers: 40-44 lanes (1-byte), 32-34 (2-byte).
_MIN_LANES = {1: 48, 2: 36}
# K <= 1024 leaves the top of its u16 field free: item size - 1 lives
# there, so a frame of 1-byte symbols starts with the bare lane count.
_ITEM_SHIFT = 12
_LANE_MASK = (1 << _ITEM_SHIFT) - 1
# Every present symbol takes at least one of the 2**14 probability slots
# whatever its count; past a quarter of the scale that floor costs more
# than a wider symbol saves.
_MAX_SYMBOLS = _PROB_SCALE >> 2


def lane_count(n: int, item_size: int = 1) -> int:
    """Number of interleaved rANS lanes used for an ``n``-byte frame."""
    lanes = n >> _LANE_SHIFT
    # Items of a size the coder has no symbols for are coded as bytes.
    return 1 if lanes < _MIN_LANES.get(item_size, _MIN_LANES[1]) else min(lanes, _MAX_LANES)


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
    """``lanes`` interleaved states, one row of symbols per step; returns ``(states, words)``."""
    n = symbols.size
    rows = -(-n // lanes)
    comp = _PROB_SCALE - qfreq
    cum = _cumulative(qfreq)
    low = np.zeros((rows, lanes), dtype=np.uint16)
    emitted = np.zeros((rows, lanes), dtype=bool)
    x = np.full(lanes, _RANS_L, dtype=np.uint32)
    for r in range(rows - 1, -1, -1):
        sym = symbols[r * lanes : (r + 1) * lanes].astype(np.intp)  # the last row may be short
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
        refill = (xs < _RANS_L).nonzero()[0]
        if refill.size:
            end = pos + refill.size
            if end > words.size:
                raise EncodeError("ans: word stream ran out")
            xs[refill] = (xs[refill] << _WORD_BITS) | words[pos:end]
            pos = end
    _check_end(pos, words.size, bool((x == _RANS_L).all()))
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


def _code(symbols: np.ndarray, counts: np.ndarray, n: int) -> bytes | None:
    """Payload of an ``n``-byte frame coded as ``symbols`` with histogram
    ``counts``, or ``None`` when that cannot make the frame smaller.

    The size is predicted from the histogram, so a frame that will not
    shrink never reaches the coder.
    """
    item_size = symbols.itemsize
    lanes = lane_count(n, item_size)
    header = (lanes | (item_size - 1) << _ITEM_SHIFT).to_bytes(2, "little")
    if item_size == 2:
        header += (counts.size - 1).to_bytes(2, "little")
    present = counts > 0
    head = len(header) + -(-counts.size // 8) + 2 * int(np.count_nonzero(present)) + 4 * lanes
    if n <= head:
        return None
    qfreq = quantize_freqs(counts)
    bits = counts[present] * (_PROB_BITS - np.log2(qfreq[present]))
    if head + float(bits.sum()) / 8 >= n:
        return None
    if lanes == 1:
        states, words = _encode_scalar(symbols, qfreq)
    else:
        states, words = _encode_lanes(symbols, qfreq, lanes)
    return b"".join(
        (
            header,
            np.packbits(present).tobytes(),
            qfreq[present].astype("<u2").tobytes(),
            states.astype("<u4").tobytes(),
            words.astype("<u2").tobytes(),
        )
    )


class RansEncoder(Encoder):
    """Static rANS over a frame's bytes or its 2-byte items, ``lane_count`` interleaved states."""

    name = "ans"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        n = len(data)
        u8 = np.frombuffer(data, dtype=np.uint8)
        if item_size == 2:
            items = np.frombuffer(data, dtype=">u2")
            counts = np.bincount(items)
            few = np.count_nonzero(counts) <= _MAX_SYMBOLS
            coded = _code(items, counts, n) if few else None
            if coded is None:  # too many items, or a table that outweighs them
                coded = _code(u8, _byte_counts(counts), n)
        else:  # items of any other size are coded as the bytes they are
            coded = _code(u8, np.bincount(u8, minlength=256), n)
        return data if coded is None else coded  # cannot shrink: the frame stores it raw

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 4:
            raise EncodeError("ans: truncated header")
        field = int.from_bytes(payload[:2], "little")
        lanes = field & _LANE_MASK
        item_size = (field >> _ITEM_SHIFT) + 1
        if item_size not in _MIN_LANES or n % item_size:
            raise EncodeError(f"ans: item size {item_size} declared for a {n}-byte frame")
        if lanes != lane_count(n, item_size):
            raise EncodeError(f"ans: {lanes} lanes declared for a {n}-byte frame")
        if item_size == 1:
            alphabet, bitmap_at = 256, 2
        else:
            alphabet, bitmap_at = int.from_bytes(payload[2:4], "little") + 1, 4
        table_at = bitmap_at + -(-alphabet // 8)
        if len(payload) < table_at:
            raise EncodeError("ans: truncated header")
        bitmap = np.frombuffer(payload, dtype=np.uint8, count=table_at - bitmap_at, offset=bitmap_at)
        bits = np.unpackbits(bitmap)
        present = bits[:alphabet].astype(bool)
        n_present = int(np.count_nonzero(present))
        if item_size == 2 and (not present[-1] or bits[alphabet:].any() or n_present > _MAX_SYMBOLS):
            # The encoder's alphabet ends on its largest symbol.
            raise EncodeError("ans: invalid alphabet")
        table_end = table_at + 2 * n_present
        states_end = table_end + 4 * lanes
        if len(payload) < states_end:
            raise EncodeError("ans: truncated header")
        if (len(payload) - states_end) % 2:
            raise EncodeError("ans: odd-sized word stream")
        table = np.frombuffer(payload[table_at:table_end], dtype="<u2")
        if int(table.sum()) != _PROB_SCALE or not table.all():
            raise EncodeError("ans: invalid frequency table")
        qfreq = np.zeros(alphabet, dtype=np.uint32)
        qfreq[present] = table
        states = np.frombuffer(payload[table_end:states_end], dtype="<u4")
        words = np.frombuffer(payload[states_end:], dtype="<u2")
        decode = _decode_scalar if lanes == 1 else _decode_lanes
        return decode(states, words, qfreq, n // item_size, item_size)
