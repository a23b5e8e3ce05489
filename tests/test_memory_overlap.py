"""Memory model (the PipeFisher argument) and communication overlap."""

from dataclasses import fields

import pytest

from repro.distributed import PLATFORM1
from repro.kfac_dist import KfacIterationModel, MODEL_TIMING_PROFILES
from repro.kfac_dist.memory import GPU_MEMORY, estimate_kfac_memory, fits_on
from repro.models.catalogs import MODEL_CATALOGS, bert_large_catalog, resnet50_catalog


class TestMemoryModel:
    def test_bert_kfac_fits_a100_not_p100(self):
        """Paper section 6: modern 40 GB GPUs fit K-FAC-effective models,
        so PipeFisher-style pipeline parallelism is unnecessary; the
        16 GB GPUs PipeFisher assumed do not fit them."""
        est = estimate_kfac_memory(bert_large_catalog(), per_gpu_batch=16)
        assert fits_on(est, "a100-40gb")
        assert not fits_on(est, "p100-16gb")

    def test_all_paper_models_fit_the_paper_gpu(self):
        for name, fn in MODEL_CATALOGS.items():
            b = MODEL_TIMING_PROFILES[name].per_gpu_batch
            est = estimate_kfac_memory(fn(), per_gpu_batch=b)
            assert fits_on(est, "a100-40gb"), (name, est)

    def test_memory_scales_with_batch(self):
        small = estimate_kfac_memory(resnet50_catalog(), per_gpu_batch=8)
        big = estimate_kfac_memory(resnet50_catalog(), per_gpu_batch=64)
        assert big.total > small.total
        assert big.activations == pytest.approx(8 * small.activations)
        assert big.kfac_factors == small.kfac_factors  # batch-independent

    def test_kfac_state_is_significant_for_transformers(self):
        est = estimate_kfac_memory(bert_large_catalog(), per_gpu_batch=16)
        assert est.kfac_factors + est.kfac_eigen > est.weights

    def test_breakdown_sums(self):
        est = estimate_kfac_memory(resnet50_catalog(), per_gpu_batch=32)
        parts = sum(getattr(est, f.name) for f in fields(est))
        assert parts == pytest.approx(est.total)

    def test_unknown_gpu_rejected(self):
        est = estimate_kfac_memory(resnet50_catalog(), per_gpu_batch=8)
        with pytest.raises(KeyError):
            fits_on(est, "tpu-v9")

    def test_gpu_capacity_table(self):
        assert GPU_MEMORY["a100-40gb"] == 40e9
        assert GPU_MEMORY["h200-141gb"] > GPU_MEMORY["a100-80gb"]


class TestOverlap:
    @pytest.fixture
    def breakdown(self):
        m = KfacIterationModel(
            resnet50_catalog(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES["resnet50"]
        )
        return m.breakdown()

    def test_overlap_reduces_total(self, breakdown):
        assert breakdown.overlapped_total(assumed_overlap=0.5) < breakdown.total

    def test_zero_overlap_is_additive(self, breakdown):
        assert breakdown.overlapped_total(assumed_overlap=0.0) == pytest.approx(breakdown.total)

    def test_full_overlap_floors_at_compute(self, breakdown):
        t = breakdown.overlapped_total(assumed_overlap=1.0)
        floor = breakdown.fwd_bwd + breakdown.kfac_compute + breakdown.others
        assert t >= floor
        assert t <= breakdown.total

    def test_monotone_in_overlap(self, breakdown):
        ts = [breakdown.overlapped_total(assumed_overlap=f) for f in (0.0, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(ts, ts[1:]))

    def test_invalid_fraction(self, breakdown):
        with pytest.raises(ValueError):
            breakdown.overlapped_total(assumed_overlap=1.5)
        with pytest.raises(ValueError):
            breakdown.overlapped_total(assumed_overlap=-0.1)

    def test_positional_fraction_rejected(self, breakdown):
        """The hand-waved constant must now be named explicitly."""
        with pytest.raises(TypeError):
            breakdown.overlapped_total(0.5)

    def test_exactly_one_mode_required(self, breakdown):
        """The assumed overlap is the one mode, and it must be named."""
        with pytest.raises(TypeError):
            breakdown.overlapped_total()

    def test_compression_still_wins_under_overlap(self):
        """Even with generous overlap, compression shortens the exposed
        communication and the iteration."""
        from repro.kfac_dist import CompressionSpec

        m = KfacIterationModel(
            bert_large_catalog(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES["bert-large"]
        )
        base = m.breakdown().overlapped_total(assumed_overlap=0.5)
        comp = m.breakdown(CompressionSpec.compso(22.0)).overlapped_total(assumed_overlap=0.5)
        assert comp < base
