"""API edge cases not covered by the feature-focused suites."""

import numpy as np
import pytest

from repro.compression import CompressedTensor, SzCompressor
from repro.core import CompsoCompressor, PerformanceModel
from repro.core.perf_model import ProfiledStats
from repro.distributed import SLINGSHOT10, SimCluster
from repro.encoders import get_encoder
from repro.gpusim import H100, A100, PIPELINES
from repro.kfac_dist.timing import CompressionSpec
from tests.conftest import absolute


class TestAbsoluteModeCompressors:
    def test_compso_absolute_bounds(self, rng):
        x = (rng.standard_normal(5000) * 100).astype(np.float32)
        c = absolute(CompsoCompressor)(0.0, 0.5)
        assert np.abs(c.roundtrip(x) - x).max() <= 0.5 * 1.0001

    def test_compso_absolute_filter(self, rng):
        x = rng.standard_normal(5000).astype(np.float32)
        c = absolute(CompsoCompressor)(0.5, 0.1)
        out = c.roundtrip(x)
        assert np.all(out[np.abs(x) < 0.5] == 0)

    def test_sz_absolute_bound(self, rng):
        x = (rng.standard_normal(5000) * 7).astype(np.float32)
        c = absolute(SzCompressor)(0.25)
        assert np.abs(c.roundtrip(x) - x).max() <= 0.25 * 1.0001


class TestTinyAndDegenerateInputs:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9])
    def test_compso_tiny_tensors(self, n, rng):
        x = rng.standard_normal(n).astype(np.float32)
        c = CompsoCompressor(4e-3, 4e-3)
        assert c.roundtrip(x).shape == (n,)

    def test_single_element_encoders(self):
        for name in ("ans", "huffman", "bitcomp", "cascaded"):
            enc = get_encoder(name)
            assert enc.decode(enc.encode(b"\x42")) == b"\x42"

    def test_all_identical_bytes(self):
        data = b"\x07" * 5000
        for name in ("ans", "huffman", "cascaded"):
            enc = get_encoder(name)
            assert enc.decode(enc.encode(data)) == data
            # Entropy coders pay their code-table headers; RLE crushes it.
            assert enc.ratio(data) > 5
        assert get_encoder("cascaded").ratio(data) > 100

    def test_negative_only_gradient(self, rng):
        x = -np.abs(rng.standard_normal(2000)).astype(np.float32) - 0.1
        out = CompsoCompressor(0.0, 4e-3).roundtrip(x)
        assert np.all(out < 0)

    def test_choose_encoder_restores_the_encoder_when_a_probe_raises(self, rng):
        grads = [rng.standard_normal(4000).astype(np.float32) for _ in range(3)]
        grads[1][17] = np.nan
        c = CompsoCompressor(4e-3, 4e-3, encoder="bitcomp")
        with pytest.raises(ValueError):
            PerformanceModel(SLINGSHOT10, 16).choose_encoder(grads, c)
        assert c.encoder_name == "bitcomp"

    def test_compressed_tensor_scalar_shape(self):
        ct = CompressedTensor({"raw": b"1234"}, ())
        assert ct.n_elements == 1


class TestHundredGpuDevice:
    def test_h100_faster_than_a100(self):
        p = PIPELINES["compso-cuda"]
        assert p.throughput(60e6, H100) > p.throughput(60e6, A100)

    def test_h100_specs_ordered(self):
        assert H100.mem_bw > A100.mem_bw
        assert H100.tensor_flops > A100.tensor_flops
        assert H100.eig_time(2048) < A100.eig_time(2048)


class TestMiscApi:
    def test_profiled_stats_ratio_guard(self):
        assert ProfiledStats(100, 0, 1, 1, 0.5).ratio == 1.0

    def test_compression_spec_factory(self):
        spec = CompressionSpec.compso(20.0)
        assert spec.pipeline.name == "compso-cuda"
        assert spec.aggregation == 4

    def test_cluster_single_rank_collectives(self):
        cl = SimCluster(1, 1)
        out = cl.allreduce([np.arange(4.0)])
        assert np.array_equal(out[0], np.arange(4.0))
        assert cl.time == 0.0  # p=1 collectives are free

    def test_compressor_repr(self):
        assert "compso" in repr(CompsoCompressor())
