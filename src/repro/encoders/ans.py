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
A row costs one round of NumPy calls whatever its width — about 5 us to
encode and 9 us to decode, against 10 and 9 ns per symbol, on the host
``_ROW_LANES`` names — so time
wants few rows, while bytes want few lanes: every lane flushes a 4-byte
state, about 3 bytes net of the words it saves.  :func:`_lane_cap`
settles the trade by size: ``isqrt(symbols)`` below ``2**12`` symbols,
and from there ``symbols // 64``, so a large frame keeps 64 rows and
pays about 3/64 of a byte per symbol for its lanes, up to the 4 095
lanes the 12-bit field holds.  ``K`` is also capped at 1/16 of the
coded size the histogram predicts, in bytes of states (a frame that
codes to little cannot afford many lanes), and, from ``2**12`` symbols,
at what still leaves the frame shorter than its input.  The two caps
meet: 2-byte codes at 1.03-1.05 coded bytes per symbol afford about
``symbols / 62`` lanes, so the row floor binds them, while bytes at 5.4
bits afford about ``symbols / 90`` and keep the rows the budget leaves.
Where that leaves fewer than ``_ROW_LANES`` lanes the frame has a single
lane — the same format, run by a plain Python loop, which is faster than
rows that narrow.  The budget and where exactly rows start to pay are the
encoder's business: the decoder re-derives nothing and decodes any ``K``
from 1 to ``_lane_cap(symbols)``.

The frames of one call share their rows.  ``encode_many`` /
``decode_many`` place the lanes of every multi-lane frame of the call
side by side and run one row kernel over them, so a call pays for the
rows of its longest frame rather than for the rows of each.  Lanes are
ordered by their frame's row count, descending, so the lanes still
coding at any row are a prefix and no padding symbol is ever stepped.  A
lane finds its frame's tables at a per-frame offset into the
concatenated tables; the encoder hands each frame the words of its own
columns, and the decoder keeps one word cursor per frame and splits each
row's refills at the frames' first lanes.  Lanes of one frame stay
consecutive and in order, so a frame codes to the bytes it would code to
alone on the same ``K``: ``encode`` / ``decode`` are the one-frame case.

A shared call also pools its lanes (:func:`_pool`).  Planned alone, a
frame that codes to little (a dense tensor's bitmap) keeps few lanes or
one and so sets the call's row count, or runs the loop beside rows that
are already paid for.  The call instead spends the lanes its frames
bought, in total, on the fewest rows that fit them all, each frame on
``ceil(symbols / rows)`` lanes — down to 2 — when that costs fewer rows.
Its lane states then weigh no more than its frames' own, but a frame's
``K``, and so its states and words, can differ from the frame's alone.

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
dividing the frame length, ``K`` within ``[1, _lane_cap(symbols)]``,
the last alphabet bit set and the bitmap padding clear, at most
``2**12`` items present, ``w`` within ``[1, 14]`` and the table's
padding clear, the table's sum, the word stream's parity and length,
the frame length against the most symbols its lanes and words can hold
(:func:`_most_symbols`, before the length sizes any buffer), every
lane's end state — and, last, the checksum of what it decoded: rANS
re-synchronises, so a damaged word can garble a stretch of symbols and
still bring every lane home.
"""

from __future__ import annotations

import zlib
from math import isqrt, log
from typing import NamedTuple

import numpy as np

from repro.encoders.base import _FRAME_CODED, Encoder, EncodeError

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

# Rows narrower than this lose to the scalar loop, so it is also what a
# row costs in loop symbols (_row_cost).  On the benchmark's 2-vCPU x86-64
# host (AVX-512 Xeon, NumPy 2.4) a row cost the encoder 4.5 us and the
# decoder 7.3 us whatever it codes, a symbol of the loop 0.13 + 0.19 us
# (bytes) or 0.17 + 0.23 us (items), so the two meet at 37 and 30 lanes.
# That host's speed swings twofold from minute to minute (a later best of
# five read 3.8 and 12.9 us a row, 0.19 + 0.30 and 0.20 + 0.25 us a
# symbol): the crossover holds, the absolute costs do not.
_ROW_LANES = 32
# 4 K bytes of lane states <= 1/16 of the predicted coded bytes.  It moves
# with _MIN_ROWS: under 1/32, 2-byte codes at 1.03-1.05 coded bytes per
# symbol afford only symbols / 123 lanes, so a floor of 64 rows alone would
# not move them, and 1/16 alone leaves mid-size code frames on a 128-row
# floor.  Together they halve the rows of a sparse group's bitmap and codes
# (codec_sparse: 309 -> 155 per call) for 0.3-2.3 % of the workloads' bytes.
_LANE_BUDGET_SHIFT = 2 + 4
# The encoder's row kernel gathers table entries for this many symbols at
# a time: enough rows to amortise the gather, 0.5 MB however long the frame.
_BLOCK_SYMBOLS = 1 << 15
# Byte histograms of at least this many bytes count byte pairs: on a 2-core
# x86-64 host, pairs take 0.62 ms and bytes 0.94 ms at 2**19, and they meet near 2**17.
_PAIR_HISTOGRAM_BYTES = 1 << 17
# K < 2**12 leaves the top of its u16 field free: item size - 1 lives
# there, so a frame of 1-byte symbols starts with the bare lane count.
_ITEM_SHIFT = 12
_LANE_MASK = (1 << _ITEM_SHIFT) - 1
# Rows every frame of _MIN_ROWS**2 = 2**12 symbols or more keeps (_lane_cap).
# Measured on a 2-core x86-64 host over 2**20 2-byte items: a row costs the
# encoder 5.0 us and the decoder 8.8 us, a symbol 9.8 and 9.1 ns, so at
# 1 024 lanes the rows are a third of encoding and half of decoding.  Of the
# floors 128, 256, 512 and 1 024, 128 was the fastest under a 1/32 budget
# (0.41 % of codec_dense's ratio against 256); with the budget at 1/16
# (_LANE_BUDGET_SHIFT), 64 is where it takes over: 2-byte codes at
# 1.03-1.05 coded bytes per symbol afford about symbols / 62 lanes.
_MIN_ROWS = 64
# Every present symbol takes at least one of the 2**14 probability slots
# whatever its count; past a quarter of the scale that floor costs more
# than a wider symbol saves.
_MAX_SYMBOLS = _PROB_SCALE >> 2


def _lane_cap(symbols: int) -> int:
    """The most lanes a frame of ``symbols`` symbols has: ``isqrt(symbols)``
    below ``_MIN_ROWS**2`` symbols, ``symbols // _MIN_ROWS`` from there (the
    larger of the two either side), and never more than the ``K`` field holds."""
    return min(max(isqrt(symbols), symbols // _MIN_ROWS), _LANE_MASK)


def _lanes(symbols: int, predicted: int, n: int) -> int:
    """Lanes the encoder gives a frame of ``symbols`` symbols in ``n`` bytes that
    it predicts will code to ``predicted`` bytes (lane states not counted).

    From ``_MIN_ROWS**2`` symbols, where the cap passes ``isqrt(symbols)``, the
    lanes are also held to the most whose states leave the frame shorter than
    its ``n`` bytes.  A frame that ``isqrt(symbols)`` lanes (at most 1 024, the
    cap before) left coded keeps at least those, so no frame is stored raw only
    because its lanes got wider."""
    lanes = min(_lane_cap(symbols), predicted >> _LANE_BUDGET_SHIFT)
    if symbols >= _MIN_ROWS**2:
        lanes = min(lanes, (n - predicted - 1) >> 2)
    return lanes if lanes >= _ROW_LANES else 1


def quantize_freqs(freq: np.ndarray) -> np.ndarray:
    """Scale frequencies to sum exactly to ``_PROB_SCALE``, keeping present
    symbols >= 1.

    The symbols with the most headroom absorb the rounding, one unit each
    per sweep over the descending order of ``np.argsort(scaled)``, never
    below 1.  Each sweep moves a prefix of that order: a shortfall is less
    than one unit per present symbol, so one sweep covers it, and sweep
    ``k`` of an excess takes the symbols first scaled to ``k + 2`` or more.
    """
    freq = np.asarray(freq, dtype=np.int64)
    total = int(freq.sum())
    if total == 0:
        raise ValueError("cannot quantise an empty frequency table")
    scaled = freq * _PROB_SCALE
    scaled //= total
    np.maximum(scaled, freq > 0, out=scaled)
    diff = _PROB_SCALE - int(scaled.sum())
    if diff:
        order = np.argsort(scaled)[::-1]
        if diff > 0:
            scaled[order[:diff]] += 1
        else:
            ranked, floor = scaled[order], 2
            while diff:
                moved = min(int(np.count_nonzero(ranked >= floor)), -diff)
                if not moved:
                    raise ValueError("more present symbols than probability slots")
                scaled[order[:moved]] -= 1
                diff += moved
                floor += 1
    return scaled.astype(np.uint32)


def _cumulative(qfreq: np.ndarray) -> np.ndarray:
    cum = qfreq.cumsum(dtype=np.uint32)
    cum -= qfreq
    return cum


# The bits of a ``w``-bit table entry, most significant first, at index ``w``.
_BITS = [1 << np.arange(w - 1, -1, -1, dtype=np.uint32) for w in range(_PROB_BITS + 1)]


def _pack_table(values: np.ndarray, width: int) -> bytes:
    """``values`` (each below ``2**width``) back to back, most significant bit first."""
    return np.packbits((values[:, None] & _BITS[width]) != 0).tobytes()


def _unpack_table(packed: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_table`; raises when a padding bit is set."""
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    if bits[count * width :].any():
        raise EncodeError("ans: frequency table padding bits set")
    return bits[: count * width].reshape(count, width) @ _BITS[width]


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


class _Layout:
    """The lanes of several frames side by side, one row kernel over all of them.

    Frame ``j`` of ``symbols`` symbols on ``lanes`` lanes has ``rows =
    ceil(symbols / lanes)`` rows.  Its lanes occupy the columns ``[start,
    end)``, frames in descending order of rows (ties keep the caller's
    order), so the frames still coding at row ``r`` are a prefix and so are
    their lanes: row ``r`` steps columns ``[0, width)`` and nothing beyond.
    A frame's last row may be short; the kernels make its missing symbols
    no-ops.  Attributes are in that order; ``order[t]`` is the caller's
    index of frame ``t``.
    """

    def __init__(self, shapes: list[tuple[int, int]]):
        rows = [-(-n // lanes) for n, lanes in shapes]
        self.order = sorted(range(len(shapes)), key=lambda j: -rows[j])
        self.rows = [rows[j] for j in self.order]
        self.lanes = [shapes[j][1] for j in self.order]
        # Symbols in each frame's last row when it is short, else 0.
        self.short = [shapes[j][0] % shapes[j][1] for j in self.order]
        self.end = np.cumsum(self.lanes).tolist()
        self.start = [e - k for e, k in zip(self.end, self.lanes)]
        self.width = self.end[-1]

    def spans(self, base: int, top: int):
        """``(lo, hi, t)`` over rows ``[base, top)``, highest first: frames ``0..t``
        code rows ``[lo, hi)``, which therefore step lanes ``[0, end[t])``."""
        for t, hi in enumerate(self.rows):
            lo = max(base, self.rows[t + 1] if t + 1 < len(self.rows) else 0)
            if lo < min(top, hi):
                yield lo, min(top, hi), t


def _encode_rows(
    frames: list[tuple[np.ndarray, np.ndarray, int]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(states, words)`` of each ``(symbols, qfreq, lanes)``, all frames in one row kernel.

    The per-symbol table entries are gathered a block of rows at a time,
    each frame into its own columns, so a step is eight in-place NumPy
    calls on row views of the lanes still coding and nothing else.  A
    frame's words are its columns of the emitted rows: the order its own
    kernel would have written them in.
    """
    if not frames:
        return []
    lay = _Layout([(symbols.size, lanes) for symbols, _, lanes in frames])
    ordered = [frames[j] for j in lay.order]
    cums = [_cumulative(qfreq) for _, qfreq, _ in ordered]
    low = np.empty((lay.rows[0], lay.width), dtype=np.uint16)
    emitted = np.empty((lay.rows[0], lay.width), dtype=bool)
    shift_of = emitted.view(np.uint8)  # 1 where a word leaves, so << 4 is its 16-bit shift
    x = np.full(lay.width, _RANS_L, dtype=np.uint32)
    q = np.empty(lay.width, dtype=np.uint32)
    shift = np.empty(lay.width, dtype=np.uint8)
    block = max(1, _BLOCK_SYMBOLS // lay.width)  # rows
    # Each block's frequency, 2**14 - frequency, cumulative frequency and emit
    # limit per symbol, gathered into buffers allocated once per call.
    gathered = np.empty((4, block, lay.width), dtype=np.uint32)
    for top in range(lay.rows[0], 0, -block):
        base = max(0, top - block)
        spans = list(lay.spans(base, top))
        f, comp, c, limit = gathered[:, : top - base, : lay.end[spans[-1][2]]]
        for (symbols, qfreq, lanes), cum, start, rows in zip(ordered, cums, lay.start, lay.rows):
            if rows <= base:
                break
            # Widened once here, not by each take.
            sym = symbols[base * lanes : min(top, rows) * lanes].astype(np.intp)
            whole, tail = divmod(sym.size, lanes)
            cols = slice(start, start + lanes)
            if tail:
                # A short last row's missing symbols get the whole scale, which
                # codes in no bits and leaves their lanes where they are.
                f[whole, start + tail : start + lanes] = _PROB_SCALE
                c[whole, start + tail : start + lanes] = 0
            # Symbols index their own histogram: "clip" only spares take a bounds pass.
            for table, out in ((qfreq, f), (cum, c)):
                table.take(sym[: whole * lanes].reshape(whole, lanes), out=out[:whole, cols], mode="clip")
                if tail:
                    table.take(sym[whole * lanes :], out=out[whole, start : start + tail], mode="clip")
        np.subtract(_PROB_SCALE, f, out=comp)
        np.left_shift(f, _EMIT_SHIFT, out=limit)
        limit -= 1
        for lo, hi, t in spans:
            w = lay.end[t]
            xw, qw, sw = x[:w], q[:w], shift[:w]
            fs, cs, ms, ls = (a[lo - base : hi - base, :w] for a in (f, comp, c, limit))
            es, lows, shs = (a[lo:hi, :w] for a in (emitted, low, shift_of))
            for i in range(hi - lo - 1, -1, -1):
                np.greater(xw, ls[i], out=es[i])
                lows[i] = xw  # keeps the low 16 bits
                np.left_shift(shs[i], 4, out=sw)
                xw >>= sw
                np.floor_divide(xw, fs[i], out=qw)
                qw *= cs[i]
                qw += ms[i]
                xw += qw
    out = [None] * len(frames)
    for j, start, end, rows in zip(lay.order, lay.start, lay.end, lay.rows):
        cols = (slice(0, rows), slice(start, end))
        out[j] = x[start:end].copy(), np.compress(emitted[cols].ravel(), low[cols].ravel())
    return out


class _Stream(NamedTuple):
    """A coded frame whose header has been read and checked."""

    index: int | None  # in the caller's list of blobs, for errors
    states: np.ndarray
    words: np.ndarray
    qfreq: np.ndarray
    count: int  # symbols
    item_size: int
    check: int  # crc32 of the decoded bytes


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
    return bytes(out) if item_size == 1 else np.asarray(out).astype(">u2").tobytes()


_SLOTS = np.arange(_PROB_SCALE, dtype=np.uint32)


def _decode_rows(streams: list[_Stream]) -> list[bytes]:
    """The bytes of each stream, all streams in one row kernel.

    A lane finds its frame's slot tables at that frame's offset in the
    concatenated tables.  Past them lies an identity table (the whole
    scale, every slot its own bias) that a short last row's missing
    symbols are pointed at: stepping it leaves a lane as it is, and such a
    lane is never refilled.  Each frame keeps its own word cursor, and a
    row's refills are split at the frames' first lanes: lanes of one frame
    are consecutive and in order, so each frame consumes its words exactly
    as its own kernel would.  A frame that fails raises an
    :class:`EncodeError` located at its ``index``.
    """
    if not streams:
        return []
    lay = _Layout([(s.count, s.states.size) for s in streams])
    ordered = [streams[j] for j in lay.order]
    sentinel = len(ordered) * _PROB_SCALE
    sym_of = np.concatenate(
        [np.repeat(np.arange(s.qfreq.size, dtype=np.uint16), s.qfreq) for s in ordered]
        + [np.zeros(_PROB_SCALE, dtype=np.uint16)]
    )
    freq_of = np.concatenate(
        [np.repeat(s.qfreq, s.qfreq) for s in ordered] + [np.full(_PROB_SCALE, _PROB_SCALE, np.uint32)]
    )
    bias_of = np.concatenate(
        [_SLOTS - np.repeat(_cumulative(s.qfreq), s.qfreq) for s in ordered] + [_SLOTS]
    )
    offset = np.repeat(np.arange(0, sentinel, _PROB_SCALE), lay.lanes)
    out = np.empty((lay.rows[0], lay.width), dtype=np.uint16)
    x = np.concatenate([s.states for s in ordered]).astype(np.uint32)
    slot = np.empty(lay.width, dtype=np.intp)
    entry = np.empty(lay.width, dtype=np.uint32)
    words = [s.words for s in ordered]
    pos = [0] * len(ordered)

    def ran_out(t: int) -> EncodeError:
        return EncodeError("ans: word stream ran out").at(frame=ordered[t].index)

    for lo, hi, t in reversed(list(lay.spans(0, lay.rows[0]))):
        w = lay.end[t]
        xw, sw, ew = x[:w], slot[:w], entry[:w]
        bounds = np.array(lay.start[1 : t + 1], dtype=np.intp)
        # One table offset per lane, unless every lane reads the first table.
        runs = [(lo, hi, offset[:w] if t else None, None)]
        ending = [u for u in range(t + 1) if lay.rows[u] == hi and lay.short[u]]
        if ending:
            last = offset[:w].copy()
            for u in ending:
                last[lay.start[u] + lay.short[u] : lay.end[u]] = sentinel
            runs = [(lo, hi - 1, runs[0][2], None), (hi - 1, hi, last, last != sentinel)]
        for a, b, offsets, stepped in runs:
            rows = out[a:b, :w]
            for i in range(b - a):
                # Slots are below 2**14 by construction, so "clip" never clips.
                np.bitwise_and(xw, _SLOT_MASK, out=sw)
                if offsets is not None:
                    sw |= offsets
                sym_of.take(sw, out=rows[i], mode="clip")
                xw >>= _PROB_BITS
                xw *= freq_of.take(sw, out=ew, mode="clip")
                xw += bias_of.take(sw, out=ew, mode="clip")
                low = xw < _RANS_L
                if stepped is not None:
                    low &= stepped
                refill = low.nonzero()[0]
                if not refill.size:
                    continue
                if not t:
                    end = pos[0] + refill.size
                    if end > words[0].size:
                        raise ran_out(0)
                    fresh = words[0][pos[0] : end]
                    pos[0] = end
                else:
                    pieces, first = [], 0
                    for u, cut in enumerate([*refill.searchsorted(bounds).tolist(), refill.size]):
                        end = pos[u] + cut - first
                        if end > words[u].size:
                            raise ran_out(u)
                        pieces.append(words[u][pos[u] : end])
                        pos[u], first = end, cut
                    fresh = np.concatenate(pieces)
                xw[refill] = (xw[refill] << _WORD_BITS) | fresh
    result = [b""] * len(streams)
    for u, (j, s) in enumerate(zip(lay.order, ordered)):
        lanes = slice(lay.start[u], lay.end[u])
        try:
            _check_end(pos[u], words[u].size, bool((x[lanes] == _RANS_L).all()))
        except EncodeError as exc:
            raise exc.at(frame=s.index)
        # Cast first: the cast makes the frame's columns contiguous, so ravel copies nothing.
        symbols = out[: lay.rows[u], lanes].astype(">u2" if s.item_size == 2 else np.uint8)
        result[j] = symbols.ravel()[: s.count].tobytes()
    return result


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


def _byte_histogram(u8: np.ndarray) -> np.ndarray:
    """``np.bincount(u8, minlength=256)``; from ``_PAIR_HISTOGRAM_BYTES`` on,
    counted over byte pairs: half the elements to widen to ``intp``, which is
    what ``bincount`` spends its time on, for a fixed ~0.15 ms of 2**16 bins."""
    if u8.size < _PAIR_HISTOGRAM_BYTES:
        return np.bincount(u8, minlength=256)
    even = u8.size & ~1
    counts = _byte_counts(np.bincount(u8[:even].view(np.uint16)))
    if u8.size & 1:
        counts[u8[-1]] += 1
    return counts


def _table_bytes(entries: int, width: int) -> int:
    return -(-entries * width // 8)


class _Plan(NamedTuple):
    """A frame the coder will run: its symbols, table, lanes and header."""

    symbols: np.ndarray
    qfreq: np.ndarray
    lanes: int
    predicted: int  # coded bytes, lane states not counted
    head: bytes  # the payload after its ``K`` field, up to its lane states


def _plan(symbols: np.ndarray, counts: np.ndarray, data: bytes) -> _Plan | None:
    """How to code the frame ``data`` as ``symbols`` with histogram ``counts``,
    or ``None`` when that cannot make the frame smaller.

    The size is predicted from the histogram, so a frame that will not
    shrink never reaches the coder — nor, when the entropy of the
    histogram already says so, the table builder.
    """
    n = len(data)
    item_size = symbols.itemsize
    # All of a coded frame but its table, lane states and words.
    fixed = 2 + 2 * (item_size - 1) + 4 + -(-counts.size // 8) + 1
    if fixed + 4 >= n:  # no room for even one lane state
        return None
    present = counts > 0
    occurring = counts[present]
    if occurring.size > _MAX_SYMBOLS:
        return None
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
    lanes = _lanes(symbols.size, predicted, n)
    if predicted + 4 * lanes >= n:
        return None
    head = b"".join(
        (
            b"" if item_size == 1 else (counts.size - 1).to_bytes(2, "little"),
            zlib.crc32(data).to_bytes(4, "little"),
            np.packbits(present).tobytes(),
            bytes([width]),
            _pack_table(table - 1, width),
        )
    )
    return _Plan(symbols, qfreq, lanes, predicted, head)


def _plan_frame(data: bytes, item_size: int) -> _Plan | None:
    """The plan for ``data`` as items of ``item_size`` bytes, or as bytes, or ``None``."""
    u8 = np.frombuffer(data, dtype=np.uint8)
    if item_size == 2:
        items = np.frombuffer(data, dtype=">u2")
        counts = np.bincount(items)
        # Too many items, or a table that outweighs them: the bytes.
        return _plan(items, counts, data) or _plan(u8, _byte_counts(counts), data)
    # Items of any other size are coded as the bytes they are.
    return _plan(u8, _byte_histogram(u8), data)


def _payload(plan: _Plan, states: np.ndarray, words: np.ndarray) -> bytes:
    """A plan's payload, once its states and words are coded."""
    field = plan.lanes | (plan.symbols.itemsize - 1) << _ITEM_SHIFT
    return b"".join(
        (
            field.to_bytes(2, "little"),
            plan.head,
            states.astype("<u4", copy=False).tobytes(),
            words.astype("<u2", copy=False).tobytes(),
        )
    )


def _row_cost(sizes: list[int], lanes: list[int]) -> int:
    """What coding frames of ``sizes`` symbols on ``lanes`` lanes costs, in
    loop symbols: the rows of the one row-kernel call, at ``_ROW_LANES`` loop
    symbols each, and every symbol of a single-lane frame."""
    rows = max((-(-n // k) for n, k in zip(sizes, lanes) if k > 1), default=0)
    return _ROW_LANES * rows + sum(n for n, k in zip(sizes, lanes) if k == 1)


def _pool(plans: list[_Plan]) -> list[_Plan]:
    """The plans of one shared call, their lanes spread so that no frame sets
    the call's row count alone.

    The call keeps the lanes its frames bought (``sum(K)``, a loop frame
    counting one) and spends them on the fewest rows ``R`` that fit every
    frame at ``ceil(symbols / R)`` lanes, none past :func:`_lane_cap` (so a
    call with a frame of ``2**12`` symbols or more keeps 64 rows or more).
    A frame those lanes would leave no shorter than its raw bytes keeps its
    own.  The call takes that layout only when it costs less than the
    frames' own lanes (:func:`_row_cost`); otherwise every plan is returned
    as it was.
    """
    if len(plans) < 2:
        return plans
    sizes = [p.symbols.size for p in plans]
    own = [p.lanes for p in plans]
    budget = sum(own)
    # The frames' own lanes fit in ``hi`` rows; no frame fits in fewer than ``lo``.
    lo = max(-(-n // _lane_cap(n)) for n in sizes)
    hi = max(-(-n // k) for n, k in zip(sizes, own))
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(-(-n // mid) for n in sizes) <= budget:
            hi = mid
        else:
            lo = mid + 1
    pooled = (-(-n // lo) for n in sizes)
    lanes = [p.lanes if p.predicted + 4 * k >= p.symbols.nbytes else k for p, k in zip(plans, pooled)]
    if _row_cost(sizes, lanes) >= _row_cost(sizes, own):
        return plans
    return [p._replace(lanes=k) for p, k in zip(plans, lanes)]


def _payloads(plans: list[_Plan]) -> list[bytes]:
    """The payload of each plan: single-lane frames in the loop, every other
    frame in one call of the row kernel."""
    rows = iter(_encode_rows([(p.symbols, p.qfreq, p.lanes) for p in plans if p.lanes > 1]))
    return [
        _payload(p, *(next(rows) if p.lanes > 1 else _encode_scalar(p.symbols, p.qfreq))) for p in plans
    ]


def _read(payload: bytes, n: int, index: int | None) -> _Stream:
    """The header of a coded payload of an ``n``-byte frame, every field checked."""
    if len(payload) < 4:
        raise EncodeError("ans: truncated header")
    field = int.from_bytes(payload[:2], "little")
    lanes = field & _LANE_MASK
    item_size = (field >> _ITEM_SHIFT) + 1
    if item_size not in (1, 2) or n % item_size:
        raise EncodeError(f"ans: item size {item_size} declared for a {n}-byte frame")
    count = n // item_size
    if not 1 <= lanes <= _lane_cap(count):
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
    words = (len(payload) - states_end) // 2
    if count > _most_symbols(int(table.max()), lanes + words):
        # Checked before the decoder reserves its output: a damaged length would size it.
        raise EncodeError(f"ans: {count} symbols declared for {words} words")
    qfreq = np.zeros(alphabet, dtype=np.uint32)
    qfreq[present] = table
    return _Stream(
        index,
        np.frombuffer(payload[table_end:states_end], dtype="<u4"),
        np.frombuffer(payload[states_end:], dtype="<u2"),
        qfreq,
        count,
        item_size,
        int.from_bytes(payload[check_at:bitmap_at], "little"),
    )


def _most_symbols(largest: int, segments: int) -> float:
    """The most symbols a frame whose largest frequency is ``largest`` can code
    in ``segments`` runs: one per lane, and one more per word.

    Each word a lane emits starts a new run of its symbols.  Within a run,
    every symbol after the first multiplies ``x - largest + 1`` (at least
    ``3 * 2**14`` once one is coded) by at least ``2**14 / largest``, and
    ``x`` stays below ``2**32``; the ``2 +`` counts the first symbol and
    rounds the rest up.  A frame of one symbol (``largest == 2**14``)
    codes any length without a word."""
    if largest == _PROB_SCALE:
        return float("inf")
    return segments * (2 + int(log((1 << 32) / (3 << _PROB_BITS)) / log(_PROB_SCALE / largest)))


def _checked(stream: _Stream, data: bytes) -> bytes:
    """``data``, the decoded bytes of ``stream``, once they pass the frame check."""
    if zlib.crc32(data) != stream.check:
        raise EncodeError("ans: decoded bytes fail the frame check")
    return data


def _decode_payloads(frames: list[tuple[int | None, bytes, int]]) -> list[bytes]:
    """The bytes of each ``(index, payload, n)``: single-lane frames in the loop,
    every other frame in one call of the row kernel.  Raises an
    :class:`EncodeError` located at the ``index`` of the frame that failed."""
    streams = []
    for index, payload, n in frames:
        try:
            streams.append(_read(payload, n, index))
        except EncodeError as exc:
            raise exc.at(frame=index)
    rows = iter(_decode_rows([s for s in streams if s.states.size > 1]))
    out = []
    for s in streams:
        try:
            if s.states.size > 1:
                out.append(_checked(s, next(rows)))
            else:
                out.append(_checked(s, _decode_scalar(s.states, s.words, s.qfreq, s.count, s.item_size)))
        except EncodeError as exc:
            raise exc.at(frame=s.index)
    return out


def _rows_possible(raw: bytes) -> bool:
    """Whether a frame of these bytes could be coded on rows alone: ``K >= _ROW_LANES``
    needs a predicted ``_ROW_LANES << _LANE_BUDGET_SHIFT`` bytes, and a coded
    frame is shorter than its input."""
    return len(raw) > _ROW_LANES << _LANE_BUDGET_SHIFT


def _on_rows(blob: bytes) -> bool:
    """Whether a blob declares a coded frame of more than one lane."""
    return len(blob) >= 7 and blob[0] == _FRAME_CODED and int.from_bytes(blob[5:7], "little") & _LANE_MASK > 1


class RansEncoder(Encoder):
    """Static rANS over a frame's bytes or its 2-byte items, on interleaved states.

    ``encode_many`` / ``decode_many`` run the lanes of all their frames
    through one call of the row kernel, pooled across the frames where that
    saves rows; every blob decodes alone.  A call in which fewer than two
    frames can have rows alone shares nothing, and is the per-frame
    ``encode`` / ``decode`` loop it would be for any other encoder.
    """

    name = "ans"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        plan = _plan_frame(data, item_size)
        return data if plan is None else _payloads([plan])[0]

    def encode_many(self, frames: list[tuple[bytes | np.ndarray, int]]) -> list[bytes]:
        raws = [(self._items(data, item_size), item_size) for data, item_size in frames]
        if sum(_rows_possible(raw) for raw, _ in raws) < 2:
            return super().encode_many(raws)
        coded = iter(self._encode_payloads([frame for frame in raws if frame[0]]))
        return [self._frame(raw, next(coded) if raw else raw) for raw, _ in raws]

    @staticmethod
    def _encode_payloads(frames: list[tuple[bytes, int]]) -> list[bytes]:
        plans = [_plan_frame(data, item_size) for data, item_size in frames]
        coded = iter(_payloads(_pool([p for p in plans if p is not None])))
        # A frame that cannot shrink is returned as it is: its blob stores it raw.
        return [data if p is None else next(coded) for (data, _), p in zip(frames, plans)]

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        return _decode_payloads([(None, payload, n)])[0]

    def decode_many(self, blobs: list[bytes]) -> list[bytes]:
        if sum(_on_rows(blob) for blob in blobs) < 2:
            return super().decode_many(blobs)
        out, coded = [], []
        for index, blob in enumerate(blobs):
            try:
                n, payload, is_coded = self._unframe(blob)
            except EncodeError as exc:
                raise exc.at(frame=index)
            out.append(payload)
            if is_coded:
                coded.append((index, payload, n))
        for (index, _, _), data in zip(coded, _decode_payloads(coded)):
            out[index] = data
        return out
