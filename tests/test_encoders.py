"""Lossless encoder round trips, frame behaviour, and CR ordering."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
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
from repro.encoders.ans import (
    _decode_lanes,
    _decode_scalar,
    _encode_lanes,
    _encode_scalar,
    lane_count,
    quantize_freqs,
)
from repro.encoders.huffman import code_lengths

ALL = list_encoders()


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


def _gradient_bytes(rng, n, spread=12.0):
    """Bell-shaped byte stream like a quantised-gradient code plane."""
    return np.clip(rng.normal(128, spread, n), 0, 255).astype(np.uint8)


class TestAnsLanes:
    """The lane-interleaved kernel: frames past ``test_ans_roundtrip_property``'s 4 KB."""

    # 1 -> 48 lanes, 48 -> 49 lanes, and the 1024-lane cap.
    BOUNDARIES = [48 << 11, 49 << 11, 1024 << 11]

    def test_lane_policy(self):
        assert lane_count(0) == lane_count((48 << 11) - 1) == 1
        assert lane_count(48 << 11) == 48
        assert lane_count((49 << 11) - 1) == 48
        assert lane_count(1024 << 11) == lane_count(1 << 30) == 1024

    @pytest.mark.parametrize("n", [b + d for b in BOUNDARIES for d in (-1, 0, 1)])
    def test_roundtrip_at_policy_boundaries(self, rng, n):
        enc = RansEncoder()
        data = _gradient_bytes(rng, n).tobytes()
        blob = enc.encode(data)
        assert blob[0] == 1 and len(blob) < 0.8 * n  # coded, not the raw fallback
        assert int.from_bytes(blob[5:7], "little") == lane_count(n)
        assert enc.decode(blob) == data

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
        states, words = _encode_lanes(u8, qfreq, lanes)
        assert states.dtype == np.uint32 and states.size == lanes
        assert _decode_lanes(states, words, qfreq, n) == u8.tobytes()

    def test_single_repeated_byte_multilane(self):
        # Its frequency equals the scale: freq << 18 would overflow 32 bits.
        enc = RansEncoder()
        data = b"\x2a" * 200_000
        blob = enc.encode(data)
        assert lane_count(len(data)) > 1 and len(blob) < 1000
        assert enc.decode(blob) == data

    @pytest.mark.parametrize("n", [1, 2, 300, 3000])
    def test_scalar_loop_and_numpy_kernel_agree_on_one_lane(self, rng, n):
        u8 = _gradient_bytes(rng, n, spread=3.0)
        qfreq = quantize_freqs(np.bincount(u8, minlength=256))
        s_state, s_words = _encode_scalar(u8, qfreq)
        k_state, k_words = _encode_lanes(u8, qfreq, 1)
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

    @pytest.mark.parametrize("n", [3_000, 200_000])  # scalar loop, NumPy kernel
    def test_damaged_frames_raise(self, n):
        rng = np.random.default_rng(2025)
        enc = RansEncoder()
        blob = enc.encode(_gradient_bytes(rng, n).tobytes())
        assert blob[0] == 1
        for bit in rng.choice(len(blob) * 8, size=200, replace=False):
            damaged = bytearray(blob)
            damaged[bit >> 3] ^= 1 << (bit & 7)
            with pytest.raises(EncodeError):
                enc.decode(bytes(damaged))
        for cut in (1, 2, 3, 10, 1000):
            with pytest.raises(EncodeError):
                enc.decode(blob[:-cut])
            with pytest.raises(EncodeError):
                enc.decode(blob[:40] + blob[40 + cut :])
        with pytest.raises(EncodeError):
            enc.decode(blob + b"\x00\x00")  # words left over


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
        assert lane_count((36 << 11) - 1, 2) == 1
        assert lane_count(36 << 11, 2) == 36 and lane_count(36 << 11) == 1
        assert lane_count(48 << 11, 2) == lane_count(48 << 11) == 48
        assert lane_count(1 << 30, 2) == 1024
        # Any other item size is coded as bytes, and counted as bytes.
        assert [lane_count(n, 3) for n in (47 << 11, 48 << 11)] == [1, 48]

    # 1 -> 36 lanes, 36 -> 37 lanes, the 1024-lane cap; +-1 item around each.
    @pytest.mark.parametrize("n", [b + d for b in (36 << 11, 37 << 11, 1024 << 11) for d in (-2, 0, 2)])
    def test_roundtrip_at_policy_boundaries(self, rng, n):
        enc = RansEncoder()
        data = _code_items(rng, n // 2)
        blob = enc.encode(data, 2)
        assert _item_size_of(blob) == 2 and len(blob) < 0.6 * n
        assert int.from_bytes(blob[5:7], "little") & 0xFFF == lane_count(n, 2)
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
            states, words = _encode_lanes(symbols, qfreq, lanes)
            assert states.dtype == np.uint32 and states.size == lanes
            assert _decode_lanes(states, words, qfreq, n, 2) == wire

    @pytest.mark.parametrize("n", [1, 2, 300, 3000])
    def test_scalar_loop_and_numpy_kernel_agree_on_one_lane(self, rng, n):
        wire = _code_items(rng, n, spread=9.0)
        sym = np.frombuffer(wire, ">u2")
        qfreq = quantize_freqs(np.bincount(sym))
        s_state, s_words = _encode_scalar(sym, qfreq)
        k_state, k_words = _encode_lanes(sym, qfreq, 1)
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

    @pytest.mark.parametrize("n_items", [1_500, 100_000])  # scalar loop, NumPy kernel
    def test_damaged_frames_raise(self, n_items):
        rng = np.random.default_rng(2026)
        enc = RansEncoder()
        blob = enc.encode(_code_items(rng, n_items), 2)
        assert _item_size_of(blob) == 2
        for bit in rng.choice(len(blob) * 8, size=200, replace=False):
            damaged = bytearray(blob)
            damaged[bit >> 3] ^= 1 << (bit & 7)
            with pytest.raises(EncodeError):
                enc.decode(bytes(damaged))
        cuts = range(1, len(blob)) if n_items < 10_000 else (1, 2, 3, 10, 1000, len(blob) - 8)
        for cut in cuts:
            with pytest.raises(EncodeError):
                enc.decode(blob[:-cut])
        for cut in (1, 2, 3, 10, 1000):
            with pytest.raises(EncodeError):
                enc.decode(blob[:100] + blob[100 + cut :])
        with pytest.raises(EncodeError):
            enc.decode(blob + b"\x00\x00")  # words left over

    def test_lying_header_fields_raise(self):
        rng = np.random.default_rng(2027)
        enc = RansEncoder()
        data = _code_items(rng, 4000)
        blob = enc.encode(data, 2)
        field = int.from_bytes(blob[5:7], "little")
        alphabet = int.from_bytes(blob[7:9], "little") + 1
        table_at = 9 + -(-alphabet // 8)

        def with_bytes(at, new):
            return blob[:at] + new + blob[at + len(new) :]

        lies = [with_bytes(5, (field & 0xFFF | size << 12).to_bytes(2, "little")) for size in (0, 2, 15)]
        lies += [
            with_bytes(7, (alphabet - 1 + d).to_bytes(2, "little"))
            for d in (-9, -8, -1, 1, 8, 9, 300, -alphabet + 1)
        ]
        first, second = blob[table_at : table_at + 2], blob[table_at + 2 : table_at + 4]
        assert first != second
        lies.append(with_bytes(table_at, second + first))  # a valid table, not this frame's
        lies.append(with_bytes(table_at, b"\x00\x00"))
        lies.append(with_bytes(9, bytes([blob[9] ^ 0x80])))  # a present symbol goes missing
        byte_blob = enc.encode(_gradient_bytes(rng, 4000).tobytes())
        lies.append(byte_blob[:6] + bytes([byte_blob[6] | 0x10]) + byte_blob[7:])  # bytes as items
        odd = enc.encode(_code_items(rng, 4000) + b"\x00")
        lies.append(blob[:1] + odd[1:5] + blob[5:])  # 2-byte items in an odd-length frame
        for lie in lies:
            with pytest.raises(EncodeError):
                enc.decode(lie)

    def test_byte_frames_are_the_parents(self):
        """1-byte frames are byte-identical to the coder before item sizes existed
        (digest captured at b5a6b53): every bitmap and 8-bit code stream is untouched."""
        rng = np.random.default_rng(1509)
        enc = RansEncoder()
        digest = hashlib.sha256()
        for n in (1, 2, 39, 40, 270, 3000, 98_303, 98_304, 200_001, 2_100_000):
            frames = [
                np.clip(rng.normal(128, spread, n), 0, 255).astype(np.uint8).tobytes()
                for spread in (0.5, 4.0, 30.0)
            ]
            frames.append(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
            frames.append(bytes([7]) * n)
            for data in frames:
                digest.update(enc.encode(data))
        assert digest.hexdigest() == (
            "a8471d29dca57c084087d023c7c41c39311940cbff23c2e6df87d449b39b4868"
        )

    @pytest.mark.parametrize("name", [n for n in ALL if n != "ans"])
    def test_byte_coders_ignore_the_item_size(self, name, rng):
        enc = get_encoder(name)
        data = _code_items(rng, 3000)
        assert enc.encode(data, 2) == enc.encode(data)
        with pytest.raises(ValueError):
            enc.encode(data[:-1], 2)


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
        assert code_lengths(freq, max_len=15).max() <= 15

    def test_more_frequent_symbols_get_shorter_codes(self, rng):
        freq = np.ones(256, dtype=np.int64)
        freq[0] = 10**6
        lengths = code_lengths(freq)
        assert lengths[0] == lengths[lengths > 0].min()


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
