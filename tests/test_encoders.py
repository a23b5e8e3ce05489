"""Lossless encoder round trips, frame behaviour, and CR ordering."""

import hashlib
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.encoders import (
    EncodeError,
    HuffmanEncoder,
    RansEncoder,
    elias_gamma_decode,
    elias_gamma_encode,
    get_encoder,
    list_encoders,
)
from repro.encoders import ans
from repro.encoders.ans import (
    _decode_rows,
    _decode_scalar,
    _encode_rows,
    _encode_scalar,
    _lane_cap,
    _lanes,
    _Stream,
    quantize_freqs,
)
from repro.encoders.huffman import code_lengths

ALL = list_encoders()


def _decode_lanes(states, words, qfreq, n, item_size=1):
    """One frame on ``states.size`` lanes: the row decoder on that frame alone."""
    return _decode_rows([_Stream(None, states, words, qfreq, n, item_size, 0)])[0]


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("payload", ["zeros", "skewed", "uniform", "runs", "short", "empty"])
def test_roundtrip_every_encoder_every_payload(name, payload, byte_payloads):
    enc = get_encoder(name)
    data = byte_payloads[payload]
    assert enc.decode(enc.encode(data)) == data


@pytest.mark.parametrize("name", ALL)
def test_never_expands_beyond_frame_header(name, byte_payloads):
    enc = get_encoder(name)
    data = byte_payloads["uniform"]  # incompressible
    assert len(enc.encode(data)) <= len(data) + 5


@pytest.mark.parametrize("name", ALL)
def test_truncated_frame_rejected(name):
    with pytest.raises(EncodeError):
        get_encoder(name).decode(b"\x01\x00")


def test_entropy_coders_beat_dictionary_coders_on_gradient_bytes(byte_payloads):
    """Paper Table 2: entropy coding wins on non-uniform gradient data."""
    data = byte_payloads["skewed"]
    entropy = min(get_encoder(n).ratio(data) for n in ("ans", "huffman", "deflate", "zstd"))
    dictionary = max(get_encoder(n).ratio(data) for n in ("lz4", "snappy"))
    assert entropy > dictionary


def test_cascaded_wins_on_long_runs(byte_payloads):
    data = byte_payloads["runs"]
    assert get_encoder("cascaded").ratio(data) > get_encoder("bitcomp").ratio(data)
    assert get_encoder("cascaded").ratio(data) > 10


def test_unknown_encoder_rejected():
    with pytest.raises(KeyError):
        get_encoder("nope")


@given(st.binary(max_size=4000))
@settings(max_examples=30, deadline=None)
def test_ans_roundtrip_property(data):
    enc = RansEncoder()
    assert enc.decode(enc.encode(data)) == data


@given(st.binary(max_size=4000))
@settings(max_examples=30, deadline=None)
def test_huffman_roundtrip_property(data):
    enc = HuffmanEncoder()
    assert enc.decode(enc.encode(data)) == data


class TestAnsInternals:
    def test_quantized_freqs_sum_to_scale(self, rng):
        freq = rng.integers(0, 1000, 256)
        freq[0] = 0
        q = quantize_freqs(freq)
        assert q.sum() == 1 << 14

    def test_present_symbols_stay_nonzero(self):
        freq = np.zeros(256, dtype=np.int64)
        freq[7] = 1
        freq[8] = 10**9
        q = quantize_freqs(freq)
        assert q[7] >= 1
        assert q[freq == 0].sum() == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantize_freqs(np.zeros(256, dtype=np.int64))

    @staticmethod
    def _sweeps(freq):
        """``quantize_freqs`` in plain Python, one sweep per unit step over the present
        symbols in descending order of their scaled frequency, ties to the smaller
        symbol: the reference for the rule and for the prefixes the function moves at
        once.  Returns ``(frequencies, sweeps)``."""
        freq = [int(f) for f in freq]
        total = sum(freq)
        scaled = [max(f * (1 << 14) // total, 1) if f else 0 for f in freq]
        diff = (1 << 14) - sum(scaled)
        order = sorted((s for s, f in enumerate(freq) if f), key=lambda s: (-scaled[s], s))
        step = 1 if diff > 0 else -1
        sweeps = 0
        while diff:
            for s in order:
                if diff and scaled[s] + step >= 1:
                    scaled[s] += step
                    diff -= step
            sweeps += 1
        return np.array(scaled, dtype=np.uint32), sweeps

    def test_quantize_matches_the_sweep_loop(self):
        rng = np.random.default_rng(41)
        one = np.zeros(256, dtype=np.int64)
        one[200] = 7
        wide = rng.integers(1, 40, 1 << 12)  # every one of 2**12 symbols present
        few = np.array([3, 0, 1, 1, 0, 9, 1, 2])  # a total far below 2**14
        many = rng.integers(0, 10**6, 300)  # far above it
        # 300 singletons each take a slot they are not owed, and only two
        # symbols can give slots back: one slot each per sweep.
        singletons = np.array([1] * 300 + [10**6, 10**6])
        tied = np.array([5] * 40 + [3] * 40 + [0] * 10 + [1] * 7)  # the rounding cuts through ties
        cases = [one, wide, few, many, singletons, tied]
        for _ in range(200):
            size = int(rng.integers(1, 600))
            counts = rng.geometric(float(rng.uniform(0.01, 0.9)), size) - 1
            counts[rng.random(size) < rng.uniform(0, 0.8)] = 0
            counts[int(rng.integers(size))] += 1
            cases.append(counts * int(rng.choice([1, 3, 1000])))
        sweeps = []
        for counts in cases:
            want, n = self._sweeps(counts)
            sweeps.append(n)
            assert np.array_equal(quantize_freqs(counts), want), counts
        # The cases reach a rounding that needs many sweeps, and one that needs none.
        assert self._sweeps(singletons)[1] > 100 and 0 in sweeps

    def test_ties_go_to_the_smaller_symbol(self):
        """Small int64 tables full of ties, most of them cut by the rounding: the order
        is the rule, not a sort kernel's.  NumPy's default ``argsort`` is unstable and
        picked by CPU, and an AVX-512 kernel orders five-element ties otherwise; a
        decoder that derives a count table's frequencies must land on the encoder's."""
        assert quantize_freqs(np.array([1, 1, 1])).tolist() == [5462, 5461, 5461]
        assert quantize_freqs(np.array([0, 3, 0, 3, 3])).tolist() == [0, 5462, 0, 5461, 5461]
        rng = np.random.default_rng(47)
        cut = 0
        for _ in range(2_000):
            counts = rng.integers(0, 4, int(rng.integers(3, 17))).astype(np.int64)
            counts[int(rng.integers(counts.size))] += 1
            want, _ = self._sweeps(counts)
            assert quantize_freqs(counts).tolist() == want.tolist(), counts
            cut += len(set(want[counts == counts.max()].tolist())) > 1
        assert cut >= 100  # the rounding split a tie, and the rule chose

    def test_more_present_symbols_than_slots_are_refused(self):
        with pytest.raises(ValueError, match="more present symbols"):
            quantize_freqs(np.ones((1 << 14) + 1, dtype=np.int64))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_byte_histogram_is_bincount(self, rng, offset):
        """Counted over byte pairs from ``_PAIR_HISTOGRAM_BYTES`` on, bytes below."""
        gate = ans._PAIR_HISTOGRAM_BYTES
        for n in (0, 1, 2, 255, gate - 1, gate, gate + 1, 3 * gate + 7):
            u8 = np.frombuffer(rng.integers(0, 256, n + offset, dtype=np.uint8).tobytes(), np.uint8)[offset:]
            expected = np.bincount(u8, minlength=256)
            got = ans._byte_histogram(u8)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), n


def _gradient_bytes(rng, n, spread=12.0):
    """Bell-shaped byte stream like a quantised-gradient code plane."""
    return np.clip(rng.normal(128, spread, n), 0, 255).astype(np.uint8)


class _Fields:
    """Where the fields of a coded ANS frame lie, read off the layout in ``ans.py``'s docstring."""

    def __init__(self, blob):
        assert blob[0] == 1
        field = int.from_bytes(blob[5:7], "little")
        self.lanes = field & 0xFFF
        self.item_size = (field >> 12) + 1
        self.symbols = int.from_bytes(blob[1:5], "little") // self.item_size
        self.alphabet = int.from_bytes(blob[7:9], "little") + 1 if self.item_size == 2 else 256
        self.check_at = 7 + 2 * (self.item_size - 1)
        self.bitmap_at = self.check_at + 4
        self.width_at = self.bitmap_at + -(-self.alphabet // 8)
        bitmap = np.frombuffer(blob[self.bitmap_at : self.width_at], np.uint8)
        self.present = int(np.unpackbits(bitmap).sum())
        self.width = blob[self.width_at]
        self.table_at = self.width_at + 1
        self.states_at = self.table_at + -(-self.present * self.width // 8)
        self.words_at = self.states_at + 4 * self.lanes


def _with_bytes(blob, at, new):
    return blob[:at] + bytes(new) + blob[at + len(new) :]


def _encode_recording_lanes(data, item_size=1, forced=None):
    """``(blob, calls)``: the frame and every ``(symbols, predicted, n)`` the encoder
    asked :func:`_lanes` about; ``forced`` (a lane count, or a rule called with those
    arguments) answers in its place."""
    calls = []

    def spy(symbols, predicted, n):
        calls.append((symbols, predicted, n))
        if forced is None:
            return _lanes(symbols, predicted, n)
        return forced(symbols, predicted, n) if callable(forced) else forced

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ans, "_lanes", spy)
        return RansEncoder().encode(data, item_size), calls


def _old_lanes(symbols, predicted, n):
    """The lane rule before frames of 2**16 symbols or more could pass ``isqrt``
    (f847707): ``isqrt(symbols)`` lanes, at most 1024, states at most 1/32 of
    the predicted bytes, one lane under 32.  Oracle for what a wider ``K`` costs."""
    lanes = min(isqrt(symbols), 1024, predicted >> 7)
    return lanes if lanes >= 32 else 1


def _cap(symbols, rows=64):
    """The lane cap spelled out: ``isqrt`` below ``rows**2`` symbols, ``rows`` rows from
    there, at most the 4 095 lanes of the 12-bit ``K`` field.  ``rows=256`` is 994cad6's,
    ``rows=128`` f3f76be's."""
    return min(max(isqrt(symbols), symbols // rows), 4095)


def _lanes_at_128_rows(symbols, predicted, n):
    """The lane rule of f3f76be, before frames of 2**12 symbols or more kept 64 rows:
    ``_cap(symbols, 128)``, states at most 1/32 of the predicted bytes, from 2**14
    symbols short of storing the frame raw, one lane under 32.  Oracle for what the
    lower floor and the 1/16 budget cost."""
    lanes = min(_cap(symbols, 128), predicted >> 7)
    if symbols >= 1 << 14:
        lanes = min(lanes, (n - predicted - 1) >> 2)
    return lanes if lanes >= 32 else 1


def _encode_lanes_per_row(symbols, qfreq, lanes):
    """The row kernel as it was before the table gathers moved out of the loop
    (8654adf): three fancy indexes and a cast per row.  Oracle for ``_encode_rows`` on one frame."""
    n = symbols.size
    rows = -(-n // lanes)
    comp = (1 << 14) - qfreq
    cum = np.zeros(qfreq.size, dtype=np.uint32)
    np.cumsum(qfreq[:-1], out=cum[1:])
    low = np.zeros((rows, lanes), dtype=np.uint16)
    emitted = np.zeros((rows, lanes), dtype=bool)
    x = np.full(lanes, 1 << 16, dtype=np.uint32)
    for r in range(rows - 1, -1, -1):
        sym = symbols[r * lanes : (r + 1) * lanes].astype(np.intp)
        xs = x[: sym.size]
        f = qfreq[sym]
        emit = (xs >> 18) >= f
        low[r, : sym.size] = xs
        emitted[r, : sym.size] = emit
        xs >>= np.multiply(emit, 16, dtype=np.uint32)
        q = xs // f
        q *= comp[sym]
        q += cum[sym]
        xs += q
    return x, np.compress(emitted.ravel(), low.ravel())


def _assert_damage_raises(enc, blob, rng, flips, every_cut):
    """Every one of ``flips`` seeded single-bit flips and every cut raises: none decodes."""
    for bit in rng.choice(len(blob) * 8, size=flips, replace=False):
        damaged = bytearray(blob)
        damaged[bit >> 3] ^= 1 << (bit & 7)
        with pytest.raises(EncodeError):
            enc.decode(bytes(damaged))
    for cut in range(1, len(blob)) if every_cut else (1, 2, 3, 10, 1000, len(blob) - 8):
        with pytest.raises(EncodeError):
            enc.decode(blob[:-cut])
    for cut in (1, 2, 3, 10, 1000):
        with pytest.raises(EncodeError):
            enc.decode(blob[:100] + blob[100 + cut :])
    with pytest.raises(EncodeError):
        enc.decode(blob + b"\x00\x00")  # words left over


class TestAnsLanes:
    """The lane-interleaved kernel: frames past ``test_ans_roundtrip_property``'s 4 KB."""

    # Large frames (where the 2 KiB-per-lane policy once changed its mind; now
    # interior points of the 64-row rule), the old 1024-lane cap at 1024**2
    # symbols, 2**16 and 4095 * 256 symbols (where 994cad6's 256 rows overtook
    # isqrt and met the K field), 16 512 and 4095 * 128 symbols (f3f76be's turns
    # at 128 rows), 2**12 symbols (where the cap switches to 64 rows), 4 160
    # symbols (where 64 rows overtake isqrt) and 4095 * 64 symbols (where the
    # 12-bit K field caps the lanes).
    BOUNDARIES = [
        *(48 << 11, 49 << 11, 1024 << 11, 1024**2, 1 << 16, 4095 * 256, 16_512, 4095 * 128),
        *(1 << 12, 4_160, 4095 * 64),
    ]

    def test_lane_policy(self):
        big = 1 << 40  # frame bytes: nowhere near storing raw
        # sqrt(symbols) lanes below 2**12 symbols ...
        assert _lanes(1024, 1 << 20, big) == 32 and _lanes(4_000, 1 << 30, big) == 63
        assert _lane_cap(4_095) == _lanes(4_095, 1 << 30, big) == 63
        # ... then symbols // 64: every frame keeps at least 64 rows ...
        assert _lane_cap(4_096) == _lanes(4_096, 1 << 30, big) == 64 == _lane_cap(4_159)
        assert _lane_cap(4_160) == 65 and _lanes(15_000, 1 << 30, big) == 234
        assert _lanes(60_000, 1 << 30, big) == 937
        # (f3f76be's turns at 128 rows are interior points now)
        assert _lane_cap(16_383) == 255 and _lane_cap(16_384) == 256 and _lane_cap(16_512) == 258
        assert _lanes(97_791, 1 << 20, big) == 1527 and _lanes(97_792, 1 << 20, big) == 1528
        assert _lanes(250_000, 1 << 30, big) == 3906
        # ... at most 4095, all the 12-bit K field holds ...
        assert _lanes(4095 * 64 - 1, 1 << 30, big) == 4094
        assert _lanes(4095 * 64, 1 << 30, big) == _lanes(4095 * 128, 1 << 30, big) == 4095
        assert _lanes(1 << 40, 1 << 39, big) == 4095
        # ... whose 4-byte states take at most 1/16 of the predicted coded bytes ...
        assert _lanes(1 << 22, 1 << 14, big) == 256 and _lanes(1 << 22, (1 << 14) - 1, big) == 255
        assert _lanes(10**6, 448, big) == 1  # a bitmap that codes to nearly nothing
        # ... and, past isqrt, leave the frame shorter than its n bytes: never fewer
        # than the old rule's lanes where those did (1024 at 4 097 bytes to spare) ...
        n = 1 << 20
        assert _lanes(n, n - 20_001, n) == 4095 and _lanes(n, n - 8_001, n) == 2000
        assert _lanes(n, n - 4_097, n) == 1024 == _old_lanes(n, n - 4_097, n)
        assert _lanes(n, n - 4_096, n) == 1023  # the old rule's 1024 stored it raw
        # ... from 2**12 symbols on: below, the budget alone (raw at 3 900 + 4 * 60 bytes).
        assert _lanes(4_095, 3_900, 4_095) == 60 and _lanes(4_096, 3_901, 4_096) == 48
        # ... and one scalar lane where rows would be narrower than the loop is fast.
        assert _lanes(1023, 1 << 20, big) == 1  # isqrt is 31
        assert _lanes(1 << 20, 2047, big) == 1 and _lanes(1 << 20, 2048, big) == 32
        assert _lanes(n, n - 100, n) == 1  # 24 lanes would fit
        assert _lanes(0, 0, 0) == _lanes(1, 1, 1) == 1
        # The cap never falls below the old ones, so every frame they wrote decodes.
        for m in (*range(1, 70_000, 7), *range(1 << 20, (1 << 20) + 300), 1 << 30):
            assert min(isqrt(m), 1024) <= _cap(m, 256) <= _cap(m, 128) <= _lane_cap(m) == _cap(m)

    @pytest.mark.parametrize("n", [b + d for b in BOUNDARIES for d in (-1, 0, 1)])
    def test_roundtrip_at_policy_boundaries(self, rng, n):
        """Bytes at 5.4 bits each leave the 1/16 budget about ``n / 90`` lanes: under
        ``n // 64`` the budget binds until the K field takes over, and below 2**12
        symbols the budget or ``isqrt``.  (A byte frame that codes at all never reaches
        ``n // 64`` lanes: that needs ``predicted >= n``.)  So ``K`` is the rule spelled
        out on the size the encoder predicted; the fit to ``n`` bytes is far off at
        70 % of them."""
        data = _gradient_bytes(rng, n).tobytes()
        blob, calls = _encode_recording_lanes(data)
        assert blob[0] == 1 and len(blob) < 0.8 * n  # coded, not the raw fallback
        assert _Fields(blob).lanes == min(_cap(n), calls[-1][1] >> 6)
        assert RansEncoder().decode(blob) == data

    @pytest.mark.parametrize(
        "n", [(1 << 16) + 777, 1 << 20, (1 << 21) + 3, 20_000, 40_000, 10_000, 5_000]
    )
    def test_frames_on_the_old_lane_count_still_decode(self, rng, n):
        """A frame written under any old cap, ``min(isqrt(n), 1024)`` lanes, 994cad6's
        ``_cap(n, 256)`` or f3f76be's ``_cap(n, 128)``, through the row kernel, decodes:
        its ``K`` is within the new cap."""
        data = _gradient_bytes(rng, n).tobytes()
        for old in (min(isqrt(n), 1024), _cap(n, 256), _cap(n, 128)):
            blob, _ = _encode_recording_lanes(data, forced=old)
            assert _Fields(blob).lanes == old <= _lane_cap(n)
            assert RansEncoder().decode(blob) == data

    @pytest.mark.parametrize(
        "n", [4_095, 4_160, (1 << 14) - 1, 16_512, (1 << 16) - 1, 1 << 16, 4095 * 64 - 1]
    )
    def test_one_lane_past_the_cap_is_rejected(self, rng, n):
        """``_lane_cap(n) + 1`` lanes, on a frame coded at the cap itself (forced: from
        2**12 symbols the budget holds a byte frame under it): an error that names the
        field, before anything is decoded."""
        blob, _ = _encode_recording_lanes(_gradient_bytes(rng, n).tobytes(), forced=_lane_cap(n))
        assert _Fields(blob).lanes == _lane_cap(n)
        lie = _with_bytes(blob, 5, (_lane_cap(n) + 1).to_bytes(2, "little"))
        with pytest.raises(EncodeError, match=f"{_lane_cap(n) + 1} lanes declared for {n} symbols"):
            RansEncoder().decode(lie)

    @given(
        st.integers(min_value=1 << 12, max_value=1 << 21),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 4.0, 30.0, 90.0, "near-uniform"]),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=12, deadline=None)
    @example(1 << 12, 0, "near-uniform", 1)
    @example(1 << 12, 0, "near-uniform", 2)
    def test_wider_lanes_never_store_a_frame_raw(self, symbols, seed, spread, item_size):
        """Against f3f76be's rule as oracle, from 2**12 to 2**21 symbols: a frame is stored
        raw only if that rule stored it raw, a frame that gains no lane is the old
        frame, and one that does grows by the 4 bytes of each lane it gained, give or
        take its word count.  Each lane's last state holds a fraction of a word, close to
        uniform over its 16 bits, so dealing the symbols out over other lanes moves the
        words by about ``sqrt(lanes / 12)`` either way (and by half a word per gained lane
        down, on average): one gained lane at 2**16 symbols can cost 30 bytes, not 4.
        The slack is six of those standard deviations."""
        rng = np.random.default_rng(seed)
        if spread == "near-uniform":  # bytes that code within a few lane states of their length
            items = max((symbols * item_size + 1) // 2, 4097)  # room for every symbol to occur
            data = _spread_symbols(rng, 4097, items)[: symbols * item_size]
        elif item_size == 2:
            data = _code_items(rng, symbols, 20 * spread, 2000)
        else:
            data = _gradient_bytes(rng, symbols, spread).tobytes()
        new, _ = _encode_recording_lanes(data, item_size)
        old, _ = _encode_recording_lanes(data, item_size, forced=_lanes_at_128_rows)
        assert RansEncoder().decode(new) == data
        if new[0] == 0:
            assert old[0] == 0
        elif old[0] == 1:
            lanes, old_lanes = _Fields(new).lanes, _Fields(old).lanes
            assert lanes >= old_lanes
            if lanes == old_lanes:
                assert new == old
            words = 6 * np.sqrt((lanes + old_lanes) / 12)
            assert len(new) - len(old) <= 4 * (lanes - old_lanes) + 2 * words

    def test_roundtrip_across_the_loop_row_boundary(self, rng):
        enc = RansEncoder()
        lanes = []
        for n in range(2_000, 4_500, 125):
            data = _gradient_bytes(rng, n).tobytes()
            blob, calls = _encode_recording_lanes(data)
            assert enc.decode(blob) == data
            lanes.append(_Fields(blob).lanes)
            assert (lanes[-1] == 1) == (calls[-1][1] < 32 << 6)
        assert lanes[0] == 1 and lanes[-1] >= 32 and lanes == sorted(lanes)
        assert not set(lanes) & set(range(2, 32))

    @given(
        st.one_of(st.integers(1, 4_000), st.integers(4_000, 12_000), st.integers(12_000, 60_000)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 4.0, 30.0, 90.0]),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stored_lanes_are_the_rule(self, n, seed, spread, item_size):
        """The frame's ``K`` is ``_lanes`` of the size the encoder predicted, the prediction is
        honest, and so the lane states stay under 1/16 of it — on both sides of the loop/row
        boundary, for bytes and items."""
        rng = np.random.default_rng(seed)
        if item_size == 2:
            data = _code_items(rng, n, 20 * spread, 2000)
        else:
            data = _gradient_bytes(rng, n, spread).tobytes()
        blob, calls = _encode_recording_lanes(data, item_size)
        assert RansEncoder().decode(blob) == data
        if blob[0] == 0:
            return  # stored raw
        fields = _Fields(blob)
        symbols, predicted, n_bytes = calls[-1]
        assert symbols == fields.symbols and n_bytes == len(data)
        expected = min(_cap(symbols), predicted >> 6)
        if symbols >= 1 << 12:  # and short of storing the frame raw
            expected = min(expected, (n_bytes - predicted - 1) >> 2)
        assert fields.lanes == _lanes(*calls[-1]) == (expected if expected >= 32 else 1)
        if fields.lanes > 1:
            assert 16 * 4 * fields.lanes <= predicted
        # All of the frame but its header and lane states is what was predicted.
        assert abs(len(blob) - 5 - 4 * fields.lanes - predicted) <= 0.03 * predicted + 16

    @pytest.mark.parametrize("forced", [2, 31, 32, 37, 61, 70])
    def test_any_lane_count_in_range_decodes(self, rng, forced):
        """The decoder reads ``K`` from the frame: it need not be the count this
        encoder's rule would pick for the frame alone (70 = isqrt(5000), 37 and 61
        leave a short last row, 2 and 31 are what a shared call can give a frame)."""
        data = _gradient_bytes(rng, 5000).tobytes()
        blob, calls = _encode_recording_lanes(data, forced=forced)
        assert _Fields(blob).lanes == forced != _lanes(*calls[-1])
        assert RansEncoder().decode(blob) == data

    @pytest.mark.parametrize("forced", [0, 2, 31, 71, 1025])
    def test_lying_lane_count_is_rejected(self, rng, forced):
        """No lane at all, more than the cap (``symbols // 64`` from 2**12 symbols): 71 and
        1025 for the frame's 4 500 symbols, whose cap is 70, and 2 and 31 for a length
        rewritten to the most symbols that are still too few for them (``isqrt`` below
        2**12 symbols; at 4 500 both are in range)."""
        n = forced**2 - 1 if forced in (2, 31) else 4500
        blob = RansEncoder().encode(_gradient_bytes(rng, 4500).tobytes())
        lie = _with_bytes(_with_bytes(blob, 1, n.to_bytes(4, "little")), 5, forced.to_bytes(2, "little"))
        with pytest.raises(EncodeError, match=f"{forced} lanes declared for {n} symbols"):
            RansEncoder().decode(lie)

    @pytest.mark.parametrize(
        "n,lanes",
        [(1000, 64), (64, 64), (65, 64), (63, 64), (1, 8), (5000, 7), (4096, 1024)],
    )
    @pytest.mark.parametrize("stream", ["bell", "two_symbol", "uniform", "constant"])
    def test_kernel_roundtrip_forced_lanes(self, rng, n, lanes, stream):
        u8 = {
            "bell": lambda: _gradient_bytes(rng, n),
            "two_symbol": lambda: np.where(rng.random(n) < 0.9, 3, 200).astype(np.uint8),
            "uniform": lambda: rng.integers(0, 256, n, dtype=np.uint8),
            "constant": lambda: np.full(n, 77, dtype=np.uint8),
        }[stream]()
        qfreq = quantize_freqs(np.bincount(u8, minlength=256))
        states, words = _encode_rows([(u8, qfreq, lanes)])[0]
        assert states.dtype == np.uint32 and states.size == lanes
        assert _decode_lanes(states, words, qfreq, n) == u8.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @pytest.mark.parametrize(
        "n,lanes", [(9078, 95), (5000, 7), (4096, 64), (63, 64), (1, 8), (20_000, 141)]
    )
    def test_block_gathered_kernel_is_the_per_row_kernel(self, rng, monkeypatch, n, lanes, block_rows):
        """Words and states, bit for bit, however the rows fall into blocks."""
        if block_rows:
            monkeypatch.setattr(ans, "_BLOCK_SYMBOLS", block_rows * lanes)
        for sym in (
            _gradient_bytes(rng, n),
            np.frombuffer(_code_items(rng, n), ">u2"),
            np.full(n, 9, dtype=np.uint8),
        ):
            qfreq = quantize_freqs(np.bincount(sym))
            states, words = _encode_rows([(sym, qfreq, lanes)])[0]
            oracle_states, oracle_words = _encode_lanes_per_row(sym, qfreq, lanes)
            assert states.tobytes() == oracle_states.tobytes()
            assert words.tobytes() == oracle_words.tobytes()

    def test_single_repeated_byte_multilane(self):
        # Its frequency equals the scale: freq << 18 would overflow 32 bits.
        sym = np.full(200_000, 0x2A, dtype=np.uint8)
        qfreq = quantize_freqs(np.bincount(sym, minlength=256))
        states, words = _encode_rows([(sym, qfreq, 97)])[0]
        assert words.size == 0 and _decode_lanes(states, words, qfreq, sym.size) == sym.tobytes()
        # As a frame it codes to a header: too little to pay for a second lane.
        enc = RansEncoder()
        blob = enc.encode(sym.tobytes())
        assert _Fields(blob).lanes == 1 and len(blob) < 100
        assert enc.decode(blob) == sym.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 300, 3000])
    def test_scalar_loop_and_numpy_kernel_agree_on_one_lane(self, rng, n):
        u8 = _gradient_bytes(rng, n, spread=3.0)
        qfreq = quantize_freqs(np.bincount(u8, minlength=256))
        s_state, s_words = _encode_scalar(u8, qfreq)
        k_state, k_words = _encode_rows([(u8, qfreq, 1)])[0]
        assert s_state.tobytes() == k_state.tobytes()
        assert s_words.tobytes() == k_words.tobytes()
        assert _decode_scalar(s_state, s_words, qfreq, n) == u8.tobytes()
        assert _decode_lanes(k_state, k_words, qfreq, n) == u8.tobytes()

    @given(
        st.integers(min_value=100_000, max_value=300_000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 4.0, 30.0]),
    )
    @settings(max_examples=6, deadline=None)
    def test_roundtrip_property_large(self, n, seed, spread):
        enc = RansEncoder()
        data = _gradient_bytes(np.random.default_rng(seed), n, spread).tobytes()
        assert enc.decode(enc.encode(data)) == data

    # scalar loop and narrow rows: 3 000 flips and every cut; wide rows: a sample
    @pytest.mark.parametrize("n", [2_500, 3_000, 6_500, 200_000])
    def test_damaged_frames_raise(self, n):
        """No damaged frame decodes.  rANS re-synchronises, so before the frame
        carried a checksum a few flips in a thousand returned wrong bytes."""
        rng = np.random.default_rng(2025)
        enc = RansEncoder()
        blob = enc.encode(_gradient_bytes(rng, n).tobytes())
        assert (_Fields(blob).lanes > 1) == (n > 2_500)
        small = n < 10_000
        _assert_damage_raises(enc, blob, rng, 3_000 if small else 200, every_cut=small)


def _code_items(rng, n, spread=60.0, span=500):
    """Bell-shaped 16-bit codes like SR quantisation at ``eb_q = 2 / span``, as frame bytes."""
    return np.clip(rng.normal(span / 2, spread, n), 0, span - 1).astype(">u2").tobytes()


def _item_size_of(blob):
    """Item size a coded ANS frame declares (the bits of its ``K`` field above the lane count)."""
    assert blob[0] == 1
    return (int.from_bytes(blob[5:7], "little") >> 12) + 1


def _spread_symbols(rng, n_present, n):
    """``n`` 2-byte items over exactly ``n_present`` symbols scattered over the 16-bit range:
    bell-shaped as symbols, close to uniform as bytes."""
    values = rng.permutation(1 << 16)[:n_present].astype(np.uint16)
    ranks = np.clip(rng.normal(n_present / 2, n_present / 12, n), 0, n_present - 1).astype(np.intp)
    ranks[:n_present] = np.arange(n_present)  # every symbol occurs
    return values[ranks].astype(">u2").tobytes()


class TestAnsItems:
    """2-byte items as symbols: same kernels, wider alphabet, one more header field."""

    def test_lane_policy(self):
        """The rule counts symbols, not bytes: as items a frame has half the symbols
        of its bytes; any other item size is coded, and counted, as bytes."""
        rng = np.random.default_rng(2203)
        for n_items in (900, 1_024, 5_000, 20_000, 300_000):
            data = _code_items(rng, n_items)
            for item_size in (1, 2, 4):
                blob, calls = _encode_recording_lanes(data, item_size)
                fields = _Fields(blob)
                assert fields.item_size == (2 if item_size == 2 else 1)
                assert calls[-1][0] == fields.symbols == len(data) // fields.item_size
                assert fields.lanes == _lanes(*calls[-1])
        # Items at 7.9 bits each: the loop under 32**2 of them or 2 KiB coded, then sqrt
        # or the budget, then from 2**12 of them 64 rows.  (3 000 items had 52 lanes while
        # they carried a quantised table; their count table leaves a budget of 50.)
        enc = RansEncoder()
        sizes = (1_023, 3_000, 5_000, 40_000)
        assert [_Fields(enc.encode(_code_items(rng, n), 2)).lanes for n in sizes] == [1, 50, 78, 625]

    # Large frames (boundaries of the old 2 KiB-per-lane policy, now interior points),
    # the old 1024-lane cap at 1024**2 items, 2**16 and 4095 * 256 items (994cad6's
    # turns), 16 512 and 4095 * 128 items (f3f76be's), 2**12 items (where the cap
    # switches to 64 rows), 4 160 items (where 64 rows overtake isqrt) and 4095 * 64
    # items (where the K field caps the lanes); +-1 item around each.
    @pytest.mark.parametrize(
        "n",
        [
            b + d
            for b in (
                *(36 << 11, 37 << 11, 1024 << 11, 1 << 17, 4095 << 9, 16_512 << 1, 4095 << 8),
                *(1 << 13, 4_160 << 1, 4095 << 7),
            )
            for d in (-2, 0, 2)
        ],
    )
    def test_roundtrip_at_policy_boundaries(self, rng, n):
        """Items at 7.9 bits each, plus their table, leave the 1/16 budget within a few
        lanes of the cap's ``items // 64``, either side: ``K`` is the rule spelled out on
        the size the encoder predicted."""
        enc = RansEncoder()
        data = _code_items(rng, n // 2)
        blob, calls = _encode_recording_lanes(data, 2)
        assert _item_size_of(blob) == 2 and len(blob) < 0.6 * n
        items = n // 2
        assert int.from_bytes(blob[5:7], "little") & 0xFFF == min(_cap(items), calls[-1][1] >> 6)
        assert int.from_bytes(blob[7:9], "little") == max(np.frombuffer(data, ">u2"))
        assert enc.decode(blob) == data

    @pytest.mark.parametrize(
        "n,lanes",
        [(1000, 64), (64, 64), (65, 64), (63, 64), (1, 8), (5000, 7), (4096, 1024)],
    )
    @pytest.mark.parametrize("stream", ["bell", "two_symbol", "full_span", "constant"])
    def test_kernel_roundtrip_forced_lanes(self, rng, n, lanes, stream):
        sym = {
            "bell": lambda: np.frombuffer(_code_items(rng, n), ">u2").astype(np.uint16),
            "two_symbol": lambda: np.where(rng.random(n) < 0.9, 3, 40_000).astype(np.uint16),
            "full_span": lambda: rng.integers(0, 1 << 16, n).astype(np.uint16),
            "constant": lambda: np.full(n, 65_535, dtype=np.uint16),
        }[stream]()
        qfreq = quantize_freqs(np.bincount(sym))
        wire = sym.astype(">u2").tobytes()
        for symbols in (sym, np.frombuffer(wire, ">u2")):  # either byte order in
            states, words = _encode_rows([(symbols, qfreq, lanes)])[0]
            assert states.dtype == np.uint32 and states.size == lanes
            assert _decode_lanes(states, words, qfreq, n, 2) == wire

    @pytest.mark.parametrize("n", [1, 2, 300, 3000])
    def test_scalar_loop_and_numpy_kernel_agree_on_one_lane(self, rng, n):
        wire = _code_items(rng, n, spread=9.0)
        sym = np.frombuffer(wire, ">u2")
        qfreq = quantize_freqs(np.bincount(sym))
        s_state, s_words = _encode_scalar(sym, qfreq)
        k_state, k_words = _encode_rows([(sym, qfreq, 1)])[0]
        assert s_state.tobytes() == k_state.tobytes()
        assert s_words.tobytes() == k_words.tobytes()
        assert _decode_scalar(s_state, s_words, qfreq, n, 2) == wire
        assert _decode_lanes(k_state, k_words, qfreq, n, 2) == wire

    def test_items_below_256_keep_their_width(self, rng):
        # An alphabet that would fit a byte is still decoded to 2-byte items.
        wire = rng.integers(0, 9, 5000).astype(">u2").tobytes()
        enc = RansEncoder()
        blob = enc.encode(wire, 2)
        assert _item_size_of(blob) == 2 and enc.decode(blob) == wire

    @given(
        st.integers(min_value=1, max_value=150_000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 60.0, 3000.0]),
        st.sampled_from([2, 500, 1 << 16]),
    )
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, n_items, seed, spread, span):
        enc = RansEncoder()
        data = _code_items(np.random.default_rng(seed), n_items, spread, span)
        assert enc.decode(enc.encode(data, 2)) == data

    @pytest.mark.parametrize("n_present,item_size", [(4095, 2), (4096, 2), (4097, 1)])
    def test_alphabet_at_the_fallback_limit(self, rng, n_present, item_size):
        data = _spread_symbols(rng, n_present, 200_000)
        enc = RansEncoder()
        blob = enc.encode(data, 2)
        assert _item_size_of(blob) == item_size
        assert enc.decode(blob) == data
        if item_size == 1:
            assert blob == enc.encode(data)

    def test_more_symbols_than_probability_slots_falls_back(self, rng):
        data = _spread_symbols(rng, (1 << 14) + 1, 300_000)
        enc = RansEncoder()
        blob = enc.encode(data, 2)
        assert blob == enc.encode(data)
        assert enc.decode(blob) == data

    def test_falls_back_when_the_table_outweighs_the_items(self, rng):
        # Independent bytes in a short frame: the items' table alone is
        # longer than the frame, the bytes' is not.
        data = np.clip(rng.normal(128, 6, 6000), 0, 255).astype(np.uint8).tobytes()
        enc = RansEncoder()
        blob = enc.encode(data, 2)
        assert blob[0] == 1 and _item_size_of(blob) == 1 and blob == enc.encode(data)

    def test_item_size_must_divide_the_input(self):
        enc = RansEncoder()
        with pytest.raises(ValueError):
            enc.encode(b"\x00\x01\x02", 2)
        with pytest.raises(ValueError):
            enc.encode(b"\x00\x01", 0)
        assert enc.decode(enc.encode(b"", 2)) == b""

    def test_other_item_sizes_are_coded_as_bytes(self, rng):
        data = _gradient_bytes(rng, 6000).tobytes()
        enc = RansEncoder()
        assert enc.encode(data, 4) == enc.encode(data, 3) == enc.encode(data)

    # scalar loop and narrowest rows: 3 000 flips and every cut; wide rows: a sample
    @pytest.mark.parametrize("n_items", [1_500, 4_500, 100_000])
    def test_damaged_frames_raise(self, n_items):
        rng = np.random.default_rng(2026)
        enc = RansEncoder()
        blob = enc.encode(_code_items(rng, n_items), 2)
        fields = _Fields(blob)
        assert fields.item_size == 2 and (fields.lanes > 1) == (n_items > 1_500)
        small = n_items < 10_000
        _assert_damage_raises(enc, blob, rng, 3_000 if small else 200, every_cut=small)

    def test_lying_header_fields_raise(self):
        rng = np.random.default_rng(2027)
        enc = RansEncoder()
        data = _code_items(rng, 4000)
        blob = enc.encode(data, 2)
        at = _Fields(blob)
        field = int.from_bytes(blob[5:7], "little")
        assert at.lanes == isqrt(4000) == 63 and at.symbols == 4000 and 2 <= at.width <= 14

        def lie(where, new, error):
            with pytest.raises(EncodeError, match=error):
                enc.decode(_with_bytes(blob, where, new))

        for size in (3, 16):
            lie(5, (at.lanes | size - 1 << 12).to_bytes(2, "little"), f"item size {size}")
        lie(5, at.lanes.to_bytes(2, "little"), "ans: ")  # items read as bytes
        for lanes in (0, isqrt(4000) + 1, 1024, 1025, 4095):
            lie(5, (lanes | field & 0xF000).to_bytes(2, "little"), "lanes declared")
        for lanes in (1, 2, 31, isqrt(4000) - 1):  # in range, not this frame's
            lie(5, (lanes | field & 0xF000).to_bytes(2, "little"), "ans: ")
        for d in (-9, -8, -1, 1, 8, 9, 300, -at.alphabet + 1):
            lie(7, (at.alphabet - 1 + d).to_bytes(2, "little"), "ans: ")
        lie(at.bitmap_at, [blob[at.bitmap_at] ^ 0x80], "ans: ")  # a present symbol goes missing
        lie(at.check_at, [blob[at.check_at] ^ 1], "fail the frame check")
        for width in (0, 15, 255):
            lie(at.width_at, [width], f"table of {width}-bit entries")
        lie(at.width_at, [at.width - 1], "ans: ")  # a short table: the states are read from its end
        lie(at.width_at, [at.width + 1], "ans: ")
        # The table's padding bits are clear, and checked (on a table that has some).
        frames = (enc.encode(_code_items(rng, 4000, spread), 2) for spread in range(20, 60))
        padded, end = next((b, f.states_at) for b in frames if (f := _Fields(b)).present * f.width % 8)
        with pytest.raises(EncodeError, match="padding bits set"):
            enc.decode(_with_bytes(padded, end - 1, [padded[end - 1] | 1]))
        # A valid table that is not this frame's: two entries swapped, so the sum holds.
        table = ans._unpack_table(blob[at.table_at : at.states_at], at.present, at.width)
        swap = int(np.flatnonzero(table != table[0])[0])
        table[[0, swap]] = table[[swap, 0]]
        lie(at.table_at, ans._pack_table(table, at.width), "ans: ")
        table[0] += 1
        lie(at.table_at, ans._pack_table(table, at.width), "invalid count table: entries sum to 4001")
        for end in (at.width_at, at.width_at + 1, at.states_at - 1, at.words_at - 1):
            with pytest.raises(EncodeError, match="truncated"):
                enc.decode(blob[:end])
        byte_blob = enc.encode(_gradient_bytes(rng, 4000).tobytes())
        with pytest.raises(EncodeError, match="ans: "):  # bytes read as items
            enc.decode(_with_bytes(byte_blob, 6, [byte_blob[6] | 0x10]))
        odd = enc.encode(_code_items(rng, 4000) + b"\x00")
        with pytest.raises(EncodeError, match="item size"):  # 2-byte items in an odd-length frame
            enc.decode(blob[:1] + odd[1:5] + blob[5:])

    def test_the_checksum_catches_what_the_lanes_forgive(self):
        """A flipped renormalisation word garbles a stretch of symbols and the lane
        re-synchronises, arriving home on ``2**16`` with every word used: about one
        flip in a hundred, and until the frame carried a checksum those decoded to
        wrong bytes without raising.  Searched for, not pinned, over the first 64 words."""
        enc = RansEncoder()
        silent = 0
        for data, item_size in (
            (_code_items(np.random.default_rng(7), 1500), 2),
            (_gradient_bytes(np.random.default_rng(7), 3000).tobytes(), 1),
        ):
            blob = enc.encode(data, item_size)
            at = _Fields(blob)
            states = np.frombuffer(blob[at.states_at : at.words_at], "<u4")
            words = np.frombuffer(blob[at.words_at :], "<u2").copy()
            counts = np.zeros(at.alphabet, dtype=np.int64)
            bitmap = np.frombuffer(blob[at.bitmap_at : at.width_at], np.uint8)
            table = ans._unpack_table(blob[at.table_at : at.states_at], at.present, at.width)
            counts[np.unpackbits(bitmap)[: at.alphabet].astype(bool)] = table + 1
            qfreq = quantize_freqs(counts)  # both frames are short enough to carry counts
            for i in range(64):
                for bit in range(16):
                    words[i] ^= 1 << bit
                    try:  # the kernel alone: every structural check, no checksum
                        out = _decode_scalar(states, words, qfreq, at.symbols, item_size)
                    except EncodeError:
                        out = data
                    words[i] ^= 1 << bit
                    if out != data:
                        silent += 1
                        damaged = blob[: at.words_at] + _with_bytes(
                            words.tobytes(), 2 * i, (int(words[i]) ^ 1 << bit).to_bytes(2, "little")
                        )
                        with pytest.raises(EncodeError, match="fail the frame check"):
                            enc.decode(damaged)
        assert silent >= 10

    @staticmethod
    def _pinned_frames():
        """``(n, data, item_size)`` of the frames whose blobs are pinned: the byte frames of
        8654adf's digest test and the same sizes as items, ``n`` ascending."""
        rng = np.random.default_rng(1509)
        for n in (1, 2, 39, 40, 270, 3000, 98_303, 98_304, 200_001, 2_100_000):
            frames = [
                (np.clip(rng.normal(128, spread, n), 0, 255).astype(np.uint8).tobytes(), 1)
                for spread in (0.5, 4.0, 30.0)
            ]
            frames.append((rng.integers(0, 256, n, dtype=np.uint8).tobytes(), 1))
            frames.append((bytes([7]) * n, 1))
            shapes = ((0.5, 500), (60.0, 500), (3000.0, 1 << 16))
            frames += [(_code_items(rng, n, spread, span), 2) for spread, span in shapes]
            yield from ((n, data, item_size) for data, item_size in frames)

    def test_byte_frames_are_the_parents(self):
        """They no longer are: the frame of 8654adf had no checksum, a ``u16`` table and a lane
        count derived from its length, and the frames of up to 2**14 symbols now carry their
        symbol counts in place of quantised frequencies.  What is pinned is the format that
        replaced them, on the frames of fewer than 1 024 symbols: ``isqrt`` gives them under
        32 lanes, so they run the loop under every lane rule, and their digest moves only
        with the table."""
        enc = RansEncoder()
        digest = hashlib.sha256()
        for n, data, item_size in self._pinned_frames():
            if n >= 1024:
                break
            blob = enc.encode(data, item_size)
            assert enc.decode(blob) == data
            digest.update(blob)
        assert digest.hexdigest() == "364fc3c95bddc8174ad17ea59f6f6e90e9777bbaa0f6f2062d7d9ab40a8ba60d"

    def test_larger_frames_are_pinned(self):
        """The same format on the frames of 1 024 symbols or more, whose lanes follow
        ``_MIN_ROWS`` and ``_LANE_BUDGET_SHIFT``: every one decodes, and the digest moves
        only with the lane rule and the table.  (When the frames of up to 2**14 symbols
        took count tables, 5 of the 32 frames above 2**14 symbols moved too: the tie rule
        of ``quantize_freqs`` cut their rounding elsewhere.)"""
        enc = RansEncoder()
        digest = hashlib.sha256()
        for n, data, item_size in self._pinned_frames():
            if n >= 1024:
                blob = enc.encode(data, item_size)
                assert enc.decode(blob) == data
                digest.update(blob)
        assert digest.hexdigest() == "dfb9db914071cd5cfa4fbb544815a52cf4544098b9d69872117fabcacbb04fcd"

    def test_entropy_floor_skips_only_frames_the_full_prediction_rejects(self):
        """``_plan`` gives up on the entropy of the histogram, before it builds a table.
        Cross-entropy under any table is at least the entropy, so the frames it skips are
        frames the prediction from the table (written out here from the payload layout:
        counts up to 2**14 symbols, quantised frequencies above) rejects too — and the
        prediction still rejects frames the floor lets through."""
        rng = np.random.default_rng(2204)
        frames = [(rng.integers(0, 256, n, dtype=np.uint8).tobytes(), 1) for n in (40, 300, 5000, 20_000)]
        for spread in (2, 12, 40, 70):
            frames += [(_gradient_bytes(rng, n, spread).tobytes(), 1) for n in (60, 272, 1100, 20_000)]
        for spread in (2, 20, 60, 150):
            frames += [(_code_items(rng, n, spread), 2) for n in (41, 136, 578, 1100)]
        frames += [(_spread_symbols(rng, 3000, 6000), 2), (_spread_symbols(rng, 3000, 20_000), 2)]
        skipped = late = coded = 0
        for data, item_size in frames:
            symbols = np.frombuffer(data, ">u2" if item_size == 2 else np.uint8)
            counts = np.bincount(symbols)
            built = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ans, "quantize_freqs", lambda c: built.append(1) or quantize_freqs(c))
                plan = ans._plan(symbols, counts, data)
                # on one lane, as the layout below counts it
                payload = None if plan is None else ans._payloads([plan._replace(lanes=1)])[0]
            present = counts > 0
            freqs = quantize_freqs(counts)[present]
            table = counts[present] if symbols.size <= 1 << 14 else freqs
            width = max(1, int(table.max() - 1).bit_length())
            bits = float((counts[present] * (14 - np.log2(freqs))).sum())
            # K, [largest symbol], checksum, bitmap, width, table, one lane, words
            predicted = 2 + 2 * (item_size - 1) + 4 + -(-counts.size // 8) + 1
            predicted += -(-table.size * width // 8) + 4 + int(bits / 8)
            if payload is None:
                assert predicted >= len(data)
                skipped += not built
                late += bool(built)
            else:
                assert built and predicted < len(data) and abs(len(payload) - predicted) < 16
                coded += 1
        assert skipped >= 10 and late >= 1 and coded >= 10

    @pytest.mark.parametrize("name", [n for n in ALL if n != "ans"])
    def test_byte_coders_ignore_the_item_size(self, name, rng):
        enc = get_encoder(name)
        data = _code_items(rng, 3000)
        assert enc.encode(data, 2) == enc.encode(data)
        with pytest.raises(ValueError):
            enc.encode(data[:-1], 2)


class TestAnsCountTable:
    """Up to 2**14 symbols a frame's table holds its symbol counts, from which the decoder
    derives the quantised frequencies as the encoder did; above, the frequencies.  The
    frame length says which, so nothing in the header does."""

    @staticmethod
    def _table(blob):
        at = _Fields(blob)
        return ans._unpack_table(blob[at.table_at : at.states_at], at.present, at.width) + 1

    @pytest.mark.parametrize("n", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1])
    @pytest.mark.parametrize("item_size", [1, 2])
    @pytest.mark.parametrize("lanes", [1, 64], ids=["loop", "rows"])
    def test_roundtrip_either_side_of_the_switch(self, rng, n, item_size, lanes):
        data = _gradient_bytes(rng, n).tobytes() if item_size == 1 else _code_items(rng, n)
        blob, _ = _encode_recording_lanes(data, item_size, forced=lanes)
        at = _Fields(blob)
        assert (at.item_size, at.symbols, at.lanes) == (item_size, n, lanes)
        counts = np.bincount(np.frombuffer(data, ">u2" if item_size == 2 else np.uint8))
        freqs = quantize_freqs(counts)[counts > 0]
        table = self._table(blob)
        assert table.tolist() == (counts[counts > 0] if n <= 1 << 14 else freqs).tolist()
        assert at.width == max(1, int(table.max() - 1).bit_length())
        if n == 1 << 14:  # the two meanings coincide
            assert np.array_equal(counts[counts > 0], freqs)
        assert RansEncoder().decode(blob) == data

    @pytest.mark.parametrize("n", [1_000, 1 << 14, (1 << 14) + 1, 100_000])
    @pytest.mark.parametrize("item_size", [1, 2])
    def test_a_one_symbol_frame(self, n, item_size):
        """Counts ``[n]`` up to 2**14 symbols, the whole scale above: no word on any lane."""
        data = np.full(n, 7 if item_size == 1 else 300, dtype=">u2" if item_size == 2 else np.uint8).tobytes()
        enc = RansEncoder()
        blob = enc.encode(data, item_size)
        at = _Fields(blob)
        assert at.item_size == item_size and at.present == 1
        assert self._table(blob).tolist() == [min(n, 1 << 14)]
        assert at.width == (min(n, 1 << 14) - 1).bit_length()
        assert at.words_at == len(blob)
        assert enc.decode(blob) == data

    @pytest.mark.parametrize("n,item_size", [(3_000, 1), (3_000, 2), (1 << 14, 1), (20_000, 1), (20_000, 2)])
    def test_a_table_that_does_not_sum_to_its_total_is_rejected(self, rng, n, item_size):
        """Counts must sum to the frame's symbols, frequencies to 2**14: one entry short
        of either is an error that names the table, before anything is decoded."""
        data = _gradient_bytes(rng, n).tobytes() if item_size == 1 else _code_items(rng, n)
        enc = RansEncoder()
        blob = enc.encode(data, item_size)
        at = _Fields(blob)
        table = self._table(blob)
        table[int(table.argmax())] -= 1
        total = min(n, 1 << 14)
        kind = "count" if n <= 1 << 14 else "frequency"
        error = f"invalid {kind} table: entries sum to {total - 1}, not {total}"
        with pytest.raises(EncodeError, match=error):
            enc.decode(_with_bytes(blob, at.table_at, ans._pack_table(table - 1, at.width)))
        if n <= 1 << 14:  # a length that stays at or below 2**14 symbols: the counts catch it
            shorter = _with_bytes(blob, 1, ((n - 1) * item_size).to_bytes(4, "little"))
            with pytest.raises(EncodeError, match=f"invalid count table: entries sum to {n}, not {n - 1}"):
                enc.decode(shorter)


def _frame_of(kind, n, seed):
    """``(data, item_size)`` of one kind of frame a compressor call codes: the first four
    kinds are at most the 2 048 bytes below which a frame cannot have rows, the other
    three longer."""
    rng = np.random.default_rng(seed)
    return {
        "empty": lambda: (b"", 1 + seed % 2),
        "raw": lambda: (rng.integers(0, 256, n % 2000, dtype=np.uint8).tobytes(), 1),
        "scalar": lambda: (_gradient_bytes(rng, 200 + n % 1800).tobytes(), 1),
        "scalar_items": lambda: (_code_items(rng, 100 + n % 900, 9.0), 2),
        "rows": lambda: (_gradient_bytes(rng, 3_500 + n).tobytes(), 1),
        "row_items": lambda: (_code_items(rng, 2_500 + n // 2), 2),
        # A dense tensor's filter bitmap: 1 % of the bits set, too little coded for rows alone.
        "bitmap": lambda: (np.packbits(rng.random(8 * (2_100 + n % 14_000)) < 0.011).tobytes(), 1),
    }[kind]()


def _frames_of(specs):
    """The frames of ``(kind, n, seed)`` specs; a "twin" is the previous frame permuted."""
    frames = []
    for kind, n, seed in specs:
        if kind == "twin":  # another frame of the previous one's size: equal row counts
            data, item_size = frames[-1] if frames else (b"", 1)
            items = np.frombuffer(data, ">u2" if item_size == 2 else np.uint8)
            frames.append((np.random.default_rng(seed).permutation(items.copy()).tobytes(), item_size))
        else:
            frames.append(_frame_of(kind, n, seed))
    return frames


def _specs(kinds, min_size, max_size):
    return st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 40_000), st.integers(0, 2**32 - 1)),
        min_size=min_size,
        max_size=max_size,
    )


_SHORT = ["empty", "raw", "scalar", "scalar_items"]
_LONG = ["rows", "row_items", "bitmap"]


def _lane_count(blob):
    """Lane states a blob carries: none when its frame is stored raw."""
    return _Fields(blob).lanes if blob[0] == 1 else 0


def _frame_rows(blob):
    """Steps coding a blob's frame takes alone: its rows, or one per symbol in the loop."""
    return -(-_Fields(blob).symbols // _Fields(blob).lanes) if blob[0] == 1 else 0


def _call_rows(blobs):
    """Rows of the row-kernel call that codes ``blobs`` together."""
    return max((_frame_rows(b) for b in blobs if _lane_count(b) > 1), default=0)


class TestAnsMany:
    """The frames of one call as lanes of one row kernel."""

    @given(_specs(_SHORT, 0, 4), st.one_of(st.none(), _specs(_LONG, 1, 1)), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_many_is_one_call_per_frame(self, short, long, at):
        """A call in which fewer than two frames can have rows shares nothing: its
        blobs are the ones ``encode`` writes for each frame."""
        specs = short[:at] + (long or []) + short[at:]
        frames = _frames_of(specs)
        enc = RansEncoder()
        blobs = enc.encode_many(frames)
        assert blobs == [enc.encode(data, item_size) for data, item_size in frames]
        assert enc.decode_many(blobs) == [data for data, _ in frames]
        assert enc.encode_many([]) == enc.decode_many([]) == []
        # A call shares rows only when two frames can have them; no shorter frame does.
        for (data, _), blob in zip(frames, blobs):
            assert ans._rows_possible(data) or not ans._on_rows(blob)

    @given(
        # Long frames weigh double and come at least twice: every call shares its rows.
        _specs(_SHORT + 2 * (_LONG + ["twin"]), 0, 3),
        _specs(_LONG, 2, 2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_shared_call_spends_the_lanes_its_frames_bought(self, extra, long, order):
        """Every blob decodes alone through ``decode`` and together through ``decode_many``;
        the call carries no more lane states than its frames coded one by one, and
        steps no more rows than the longest of them alone.  Only ``K`` and what it
        shapes (states and words) differ from a frame's own blob."""
        specs = long + extra
        order.shuffle(specs)
        frames = _frames_of(specs)
        enc = RansEncoder()
        blobs = enc.encode_many(frames)
        alone = [enc.encode(data, item_size) for data, item_size in frames]
        assert enc.decode_many(blobs) == [data for data, _ in frames]
        assert [enc.decode(blob) for blob in blobs] == [data for data, _ in frames]
        assert sum(map(_lane_count, blobs)) <= sum(map(_lane_count, alone))
        assert _call_rows(blobs) <= max(map(_frame_rows, alone))
        for blob, own in zip(blobs, alone):
            if blob[0] == own[0] == 1:
                shared, solo = _Fields(blob), _Fields(own)
                assert blob[:5] == own[:5] and shared.item_size == solo.item_size
                assert blob[7 : shared.states_at] == own[7 : solo.states_at]

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, 20_000), st.integers(60_000, 1 << 21)),
                st.integers(0, 2**16),
                st.integers(1, 64),
            ),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_pooled_rows_are_the_fewest_the_lanes_buy(self, shapes):
        """``_pool`` against the rule spelled out, with the row count found by search:
        the fewest rows ``R`` at which ``ceil(n / R)`` lanes per frame, none past
        the cap (``isqrt(n)``, 64 rows from 2**12 symbols, 4095), total at most the
        frames' own lanes; a frame whose
        payload on those lanes would not stay under its raw bytes keeps its own ``K``;
        and the layout only if it costs fewer rows, a loop symbol counting 1/32 of one."""
        plans = []
        for n, draw, slack in shapes:
            top = _cap(n)
            own = 1 if top < 32 or draw % 3 == 0 else 32 + draw % (top - 31)
            predicted = max(0, n - 4 * own - slack)
            plans.append(ans._Plan(np.zeros(n, np.uint8), None, own, predicted, b""))
        sizes = [n for n, _, _ in shapes]
        own = [p.lanes for p in plans]
        # Every row count up to the frames' own, which fits: the first that fits.
        r = np.arange(1, max(-(-n // k) for n, k in zip(sizes, own)) + 1)
        lanes_at = [-(-n // r) for n in sizes]
        fits = (sum(lanes_at) <= sum(own)) & np.all([k <= _cap(n) for k, n in zip(lanes_at, sizes)], axis=0)
        rows = int(r[fits.argmax()])
        spread = [
            p.lanes if p.predicted + 4 * -(-n // rows) >= n else -(-n // rows) for p, n in zip(plans, sizes)
        ]

        def cost(lanes):
            call_rows = max((-(-n // k) for n, k in zip(sizes, lanes) if k > 1), default=0)
            return 32 * call_rows + sum(n for n, k in zip(sizes, lanes) if k == 1)

        expected = spread if cost(spread) < cost(own) else own
        assert [p.lanes for p in ans._pool(plans)] == expected

    @staticmethod
    def _steps(frames, monkeypatch, old=False):
        """``(blobs, rows, loops)`` of ``encode_many(frames)``: the rows of its one row-kernel
        call and the sizes of the frames it ran through the loop.  ``old`` codes under
        f3f76be's lane rule (:func:`_lanes_at_128_rows`, its cap and its 1/32 sharing gate)."""
        rows, loops = [], []
        encode_rows, encode_scalar = ans._encode_rows, ans._encode_scalar

        def spy_rows(coded):
            if coded:  # a call of single-lane frames only runs no kernel
                rows.append(max(-(-symbols.size // lanes) for symbols, _, lanes in coded))
            return encode_rows(coded)

        def spy_scalar(symbols, qfreq):
            loops.append(symbols.size)
            return encode_scalar(symbols, qfreq)

        with monkeypatch.context() as mp:
            mp.setattr(ans, "_encode_rows", spy_rows)
            mp.setattr(ans, "_encode_scalar", spy_scalar)
            if old:
                mp.setattr(ans, "_lanes", _lanes_at_128_rows)
                mp.setattr(ans, "_lane_cap", lambda symbols: _cap(symbols, 128))
                mp.setattr(ans, "_LANE_BUDGET_SHIFT", 7)
            blobs = RansEncoder().encode_many(frames)
        assert len(rows) == 1
        return blobs, rows[0], loops

    def test_the_lane_rule_halves_the_rows_of_a_shared_call(self, monkeypatch):
        """Row steps, which are deterministic where times are not, of the two calls the
        lane rule was moved for, each a filter bitmap and its 2-byte codes: a sparse
        group (0.5 MB of bitmap at 6 % density, 240 K codes) steps at most half the rows
        f3f76be's rule gives it, rounded up, and a K-FAC layer's call (a 2 312-byte
        bitmap, 18 K codes) no longer runs its bitmap through the loop beside rows
        already paid for."""
        rng = np.random.default_rng(2034)
        sparse = [
            (np.packbits(rng.random(8 << 19) < 0.06).tobytes(), 1),
            (_code_items(rng, 240_000, 9.0), 2),  # 0.65 bytes each: budget-bound, like the bitmap
        ]
        layer = [
            (np.packbits(rng.random(8 * 2_312) < 0.97).tobytes(), 1),
            (_code_items(rng, 18_000), 2),
        ]
        blobs, rows, loops = self._steps(sparse, monkeypatch)
        _, old_rows, _ = self._steps(sparse, monkeypatch, old=True)
        assert not loops and rows <= -(-old_rows // 2)
        assert RansEncoder().decode_many(blobs) == [data for data, _ in sparse]
        blobs, rows, loops = self._steps(layer, monkeypatch)
        _, _, old_loops = self._steps(layer, monkeypatch, old=True)
        assert not loops and old_loops == [2_312]
        assert RansEncoder().decode_many(blobs) == [data for data, _ in layer]
        assert [RansEncoder().decode(blob) for blob in blobs] == [data for data, _ in layer]

    def test_pooled_lanes_stay_under_the_cap(self):
        """A shared call of frames past 2**16 symbols, in which a dense tensor's bitmap
        alone would set the row count: pooling re-lanes every frame, the bitmap onto
        more lanes and the codes onto fewer, past the old 1024-lane cap.  No blob
        declares more lanes than the cap allows, and the call decodes."""
        rng = np.random.default_rng(2032)
        frames = [
            (_code_items(rng, 1_040_000), 2),
            (np.packbits(rng.random(8 * 130_000) < 0.011).tobytes(), 1),
            (_gradient_bytes(rng, 70_000).tobytes(), 1),
            (_code_items(rng, 300_000), 2),
        ]
        enc = RansEncoder()
        blobs = enc.encode_many(frames)
        alone = [enc.encode(data, item_size) for data, item_size in frames]
        fields = [_Fields(b) for b in blobs]
        assert _call_rows(blobs) < max(map(_frame_rows, alone))  # pooled
        assert fields[1].lanes > _Fields(alone[1]).lanes and fields[0].lanes > 1024
        assert all(f.lanes <= _lane_cap(f.symbols) for f in fields)
        assert enc.decode_many(blobs) == [data for data, _ in frames]

    @pytest.mark.parametrize(
        "shapes",
        [
            [(5000, 70), (5000, 70)],  # equal rows, full
            [(9078, 95), (1000, 64), (63, 64)],  # unequal rows, short last rows
            [(1000, 64), (9078, 95), (4096, 1024), (1, 8)],  # the caller's order is not the rows'
            [(5000, 37), (4999, 37), (5000, 61)],  # equal rows, one short
            [(6200, 24), (5500, 22), (300, 2)],  # the narrow lanes of a pooled call
        ],
    )
    def test_shared_rows_are_each_frames_per_row_kernel(self, rng, monkeypatch, shapes):
        """States and words of every frame, bit for bit, through the block boundaries too."""
        monkeypatch.setattr(ans, "_BLOCK_SYMBOLS", 3 * sum(lanes for _, lanes in shapes))
        frames = []
        for u, (n, lanes) in enumerate(shapes):
            sym = _gradient_bytes(rng, n) if u % 2 else np.frombuffer(_code_items(rng, n), ">u2")
            frames.append((sym, quantize_freqs(np.bincount(sym)), lanes))
        coded = ans._encode_rows(frames)
        streams = []
        for u, ((sym, qfreq, lanes), (states, words)) in enumerate(zip(frames, coded)):
            oracle_states, oracle_words = _encode_lanes_per_row(sym, qfreq, lanes)
            assert states.tobytes() == oracle_states.tobytes()
            assert words.tobytes() == oracle_words.tobytes()
            streams.append(ans._Stream(u, states, words, qfreq, sym.size, sym.itemsize, 0))
        decoded = ans._decode_rows(streams)
        assert decoded == [sym.astype(f">u{sym.itemsize}").tobytes() for sym, _, _ in frames]

    @pytest.mark.parametrize("kinds", [("bitmap", "row_items"), ("row_items", "bitmap")])
    @pytest.mark.parametrize("damaged", [0, 1])
    def test_damage_to_one_frame_names_it(self, kinds, damaged):
        """Every cut and 500 flips of one frame, its sibling intact: an error located at the
        damaged frame, never bytes — neither wrong ones nor the sibling's alone.  The call
        pools its lanes, so both frames run on rows narrower than a frame alone may have."""
        enc = RansEncoder()
        frames = [_frame_of(kind, 1_000, 2028 + u) for u, kind in enumerate(kinds)]
        blobs = enc.encode_many(frames)
        assert all(2 <= _Fields(b).lanes < 32 for b in blobs)  # one shared kernel call
        blob = blobs[damaged]
        rng = np.random.default_rng(2029)
        flips = []
        for bit in rng.choice(len(blob) * 8, size=500, replace=False):
            flipped = bytearray(blob)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            flips.append(bytes(flipped))
        for bad in flips + [blob[:cut] for cut in range(len(blob))] + [blob + b"\x00\x00"]:
            pair = list(blobs)
            pair[damaged] = bad
            with pytest.raises(EncodeError) as caught:
                enc.decode_many(pair)
            assert caught.value.frame == damaged
            assert f"frame: {damaged}" in caught.value.__notes__

    @pytest.mark.parametrize("bit", [24, 28, 30, 31])
    def test_a_length_no_payload_can_hold_is_rejected_before_decoding(self, bit):
        """A flipped high bit of a blob's ``u32`` length asks for 2**24 to 2**31 more
        symbols than its words can code: an error, alone and in a shared call, before any
        output is reserved for it.  A frame of more than 2**14 symbols carries quantised
        frequencies, which sum to 2**14 at any length, so the length bound is what names
        the count; a shorter frame carries its counts, and the lie takes the table past
        2**14 symbols, where its entries read as frequencies that do not sum to 2**14."""
        enc = RansEncoder()
        shapes = (("bitmap", 1_000), ("row_items", 1_000), ("rows", 40_000))
        pooled = enc.encode_many([_frame_of(kind, n, 2030) for kind, n in shapes])
        blobs = [enc.encode(*_frame_of("scalar", 1_000, 2030)), *pooled]
        assert [_Fields(b).lanes > 1 for b in blobs] == [False, True, True, True]
        assert [_Fields(b).symbols > 1 << 14 for b in blobs] == [False, False, False, True]
        for damaged, blob in enumerate(blobs):
            long = _Fields(blob).symbols > 1 << 14
            error = "symbols declared for" if long else "invalid frequency table"
            n = int.from_bytes(blob[1:5], "little") ^ 1 << bit
            bad = _with_bytes(blob, 1, n.to_bytes(4, "little"))
            tracemalloc.start()
            try:
                with pytest.raises(EncodeError, match=error):
                    enc.decode(bad)
                with pytest.raises(EncodeError, match=error) as caught:
                    enc.decode_many([bad if u == damaged else b for u, b in enumerate(blobs)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert caught.value.frame == damaged
            assert peak < 1 << 20

    @pytest.mark.parametrize("kind", ["one rare byte", "64 bytes", "1 024 items"])
    @pytest.mark.parametrize("n", [3_000, 200_000])
    def test_the_length_bound_holds_for_every_frame_coded(self, kind, n):
        """The bound rejects no frame the encoder writes, from the loosest largest
        frequency (2**14 - 1) to uniform frames, where it comes closest."""
        rng = np.random.default_rng(2031)
        data, item_size = {
            "one rare byte": lambda: (bytes(n - 1) + b"\x01", 1),
            "64 bytes": lambda: (rng.integers(0, 64, n, dtype=np.uint8).tobytes(), 1),
            "1 024 items": lambda: (rng.integers(0, 1024, n // 2).astype(">u2").tobytes(), 2),
        }[kind]()
        enc = RansEncoder()
        blob = enc.encode(data, item_size)
        s = ans._read(blob[5:], n, None)
        assert blob[0] == 1 and s.count * s.item_size == n
        assert s.count <= ans._most_symbols(int(s.qfreq.max()), s.states.size + s.words.size)
        assert enc.decode(blob) == data

    def test_the_message_is_the_frames_own(self, rng):
        """A located error says what ``decode`` of the frame alone says: guard verdicts
        record the message, and it must not depend on how the frame was decoded."""
        enc = RansEncoder()
        blobs = enc.encode_many([_frame_of("rows", 0, 1), _frame_of("row_items", 0, 2)])
        for damaged in (blobs[1][:-2], _with_bytes(blobs[1], 5, b"\x02\x10"), blobs[1][:3]):
            with pytest.raises(EncodeError) as alone:
                enc.decode(damaged)
            with pytest.raises(EncodeError) as located:
                enc.decode_many([blobs[0], damaged])
            assert str(located.value) == str(alone.value)
            assert alone.value.frame is None and located.value.frame == 1

    @pytest.mark.parametrize("name", [n for n in ALL if n != "ans"])
    def test_other_encoders_inherit_the_loop(self, name, rng):
        enc = get_encoder(name)
        frames = [(_gradient_bytes(rng, 3000).tobytes(), 1), (b"", 1), (_code_items(rng, 900), 2)]
        blobs = enc.encode_many(frames)
        assert blobs == [enc.encode(data, item_size) for data, item_size in frames]
        assert enc.decode_many(blobs) == [data for data, _ in frames]
        with pytest.raises(EncodeError) as caught:
            enc.decode_many([blobs[0], blobs[2][:3]])
        assert caught.value.frame == 1

    def test_perfbench_targets_still_resolve(self):
        """perfbench books encoder and compressor time by patching names given as strings;
        a renamed one would only show as ``tracing.unwrapped_targets > 0``."""
        layers = pytest.importorskip("perfbench.layers")
        tracing = pytest.importorskip("perfbench.tracing")
        tracer = tracing.Tracer()
        for target, layer, measure in layers._TARGETS:
            tracer.patch(target, layer, measure)
        assert "repro.encoders.base:Encoder.encode" in [t for t, _, _ in layers._TARGETS]
        assert tracer.missing == []


class TestHuffmanInternals:
    def test_code_lengths_kraft_inequality(self, rng):
        freq = rng.integers(0, 500, 256)
        lengths = code_lengths(freq)
        present = lengths[lengths > 0]
        assert np.sum(2.0 ** (-present.astype(float))) <= 1.0 + 1e-9

    def test_single_symbol(self):
        freq = np.zeros(256, dtype=np.int64)
        freq[65] = 100
        lengths = code_lengths(freq)
        assert lengths[65] == 1
        assert lengths.sum() == 1

    def test_length_limit_respected(self, rng):
        # Fibonacci-like frequencies force deep trees without limiting.
        freq = np.zeros(256, dtype=np.int64)
        a, b = 1, 1
        for i in range(40):
            freq[i] = a
            a, b = b, a + b
        assert code_lengths(freq).max() <= 15

    def test_more_frequent_symbols_get_shorter_codes(self, rng):
        freq = np.ones(256, dtype=np.int64)
        freq[0] = 10**6
        lengths = code_lengths(freq)
        assert lengths[0] == lengths[lengths > 0].min()

    def test_every_flip_of_the_length_table_is_an_encode_error(self):
        """A damaged length table used to raise ``OverflowError`` building
        codes, or size a ``1 << length`` decode table; it is now checked
        first.  A flip that leaves a valid table may still decode to wrong
        bytes: that is the frame checksum's job (ROADMAP item 3)."""
        rng = np.random.default_rng(0)
        zeros, rest = np.zeros(700, np.uint8), np.arange(1, 201, dtype=np.uint8)
        data = rng.permutation(np.concatenate([zeros, rest])).tobytes()
        enc = HuffmanEncoder()
        blob = enc.encode(data)
        assert blob[0] == 1  # coded: the payload opens with its table
        table = 5 + 4  # after the frame header and the payload's bit count
        for pos in range(table, table + 256):
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[pos] ^= 1 << bit
                for decode in (enc.decode, lambda b: enc.decode_many([b])):
                    try:
                        decode(bytes(damaged))
                    except EncodeError:
                        pass


class TestEliasGamma:
    def test_roundtrip(self, rng):
        v = rng.integers(1, 10_000, 2000).astype(np.uint64)
        assert np.array_equal(elias_gamma_decode(elias_gamma_encode(v), 2000), v)

    def test_one_is_single_bit(self):
        blob = elias_gamma_encode(np.array([1], dtype=np.uint64))
        assert len(blob) == 1  # one bit, padded to a byte

    def test_small_values_cheap(self):
        small = elias_gamma_encode(np.ones(1000, dtype=np.uint64))
        big = elias_gamma_encode(np.full(1000, 1000, dtype=np.uint64))
        assert len(small) < len(big)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            elias_gamma_encode(np.array([0], dtype=np.uint64))

    def test_truncated_rejected(self):
        blob = elias_gamma_encode(np.array([500, 600], dtype=np.uint64))
        with pytest.raises(EncodeError):
            elias_gamma_decode(blob[:1], 2)

    @given(st.lists(st.integers(min_value=1, max_value=2**20), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.uint64)
        assert np.array_equal(elias_gamma_decode(elias_gamma_encode(arr), len(values)), arr)
