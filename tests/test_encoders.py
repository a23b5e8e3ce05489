"""Lossless encoder round trips, frame behaviour, and CR ordering."""

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
