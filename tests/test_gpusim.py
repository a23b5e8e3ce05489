"""GPU execution model: device, encoder perf calibration, kernel pipelines."""

import pytest

from repro.gpusim import (
    A100,
    ENCODER_PERF,
    PIPELINES,
    TABLE2_CALIBRATION,
    DeviceModel,
)
from repro.gpusim.encoder_perf import BERT_CHUNK_BYTES, RESNET_CHUNK_BYTES


class TestDeviceModel:
    def test_mem_time_linear(self):
        assert A100.mem_time(2e9) == pytest.approx(2 * A100.mem_time(1e9))

    def test_eig_time_cubic(self):
        t1, t2 = A100.eig_time(1000), A100.eig_time(2000)
        assert t2 / t1 == pytest.approx(8.0, rel=0.05)

    def test_eig_time_realistic_at_4608(self):
        # cuSOLVER syevd at dim 4608 on A100 is O(0.5-1s).
        assert 0.1 < A100.eig_time(4608) < 3.0

    def test_inverse_cheaper_than_eig(self):
        assert A100.inverse_time(4096) < A100.eig_time(4096)


class TestEncoderPerfCalibration:
    """The two-point fits must reproduce Table 2 at the calibration sizes."""

    @pytest.mark.parametrize("name", sorted(TABLE2_CALIBRATION))
    def test_small_payload_point(self, name):
        target = TABLE2_CALIBRATION[name]["C"][0]
        got = ENCODER_PERF[name].compress_throughput(RESNET_CHUNK_BYTES)
        assert got == pytest.approx(target, rel=0.15)

    @pytest.mark.parametrize(
        "name", [n for n in sorted(TABLE2_CALIBRATION) if n != "bitcomp"]
    )
    def test_large_payload_point(self, name):
        # bitcomp's Table 2 pair is unfittable with a 2-parameter model
        # (documented in EXPERIMENTS.md); all others must match.
        target = TABLE2_CALIBRATION[name]["C"][1]
        got = ENCODER_PERF[name].compress_throughput(BERT_CHUNK_BYTES)
        assert got == pytest.approx(target, rel=0.15)

    def test_throughput_monotone_in_size(self):
        ep = ENCODER_PERF["ans"]
        tps = [ep.compress_throughput(s) for s in (1e5, 1e6, 1e7, 1e8)]
        assert all(a <= b for a, b in zip(tps, tps[1:]))

    def test_ans_fastest_entropy_coder_at_scale(self):
        at = 50e6
        ans = ENCODER_PERF["ans"].compress_throughput(at)
        for other in ("deflate", "gdeflate", "zstd", "huffman"):
            assert ans > ENCODER_PERF[other].compress_throughput(at)

    def test_zero_payload_free(self):
        assert ENCODER_PERF["ans"].compress_time(0) == 0.0


class TestKernelPipelines:
    """Fig. 8's ordering and scale."""

    def test_throughput_rises_and_saturates(self):
        p = PIPELINES["compso-cuda"]
        tps = [p.throughput(s) for s in (1e6, 1e7, 5e7, 1.2e8)]
        assert all(a < b for a, b in zip(tps, tps[1:]))
        # Saturation: the last doubling gains little.
        assert tps[-1] / tps[-2] < 1.5

    def test_fig8_ordering_at_large_size(self):
        at = 100e6
        t = {n: p.throughput(at) for n, p in PIPELINES.items()}
        assert t["qsgd-cuda"] > t["compso-cuda"]  # QSGD omits the filter
        assert t["compso-cuda"] > t["sz-cuda"]
        assert t["compso-cuda"] > t["qsgd-pytorch"]
        assert t["compso-cuda"] > t["cocktail-pytorch"]

    def test_compso_17x_over_cocktail(self):
        """Paper section 5.3: COMPSO is ~1.7x CocktailSGD."""
        ratio = PIPELINES["compso-cuda"].throughput(120e6) / PIPELINES[
            "cocktail-pytorch"
        ].throughput(120e6)
        assert 1.4 < ratio < 2.1

    def test_cuda_beats_pytorch_qsgd(self):
        for size in (5e6, 50e6, 120e6):
            assert PIPELINES["qsgd-cuda"].throughput(size) > PIPELINES[
                "qsgd-pytorch"
            ].throughput(size)

    def test_fusion_ablation_slower(self):
        p = PIPELINES["compso-cuda"]
        nf = p.without_fusion()
        assert nf.compress_time(50e6) > p.compress_time(50e6)
        assert "nofusion" in nf.name

    def test_warp_shuffle_ablation_slower(self):
        p = PIPELINES["compso-cuda"]
        ns = p.without_warp_shuffle()
        assert ns.compress_time(50e6) > p.compress_time(50e6)

    def test_decompress_cheaper_than_compress(self):
        p = PIPELINES["compso-cuda"]
        assert p.decompress_time(50e6) < p.compress_time(50e6)

    def test_zero_bytes_free(self):
        assert PIPELINES["compso-cuda"].compress_time(0) == 0.0

    def test_slower_device_slower_pipeline(self):
        slow = DeviceModel("half-a100", mem_bw=A100.mem_bw / 2, launch_overhead=8e-6, fp32_flops=A100.fp32_flops / 2)
        p = PIPELINES["compso-cuda"]
        assert p.compress_time(50e6, slow) > p.compress_time(50e6, A100)
