"""Distributed K-FAC: work assignment, trainer, timing model."""

import numpy as np
import pytest

from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.core.layer_aggregation import LayerAggregator
from repro.data import make_image_data
from repro.distributed import PLATFORM1, PLATFORM2, SimCluster
from repro.gpusim import PIPELINES
from repro.kfac_dist import (
    MODEL_TIMING_PROFILES,
    CompressionSpec,
    DistributedKfacTrainer,
    KfacIterationModel,
    assign_layers,
    eig_cost,
)
from repro.models import resnet_proxy
from repro.models.catalogs import MODEL_CATALOGS, resnet50_catalog
from repro.train import ClassificationTask


class TestAssignment:
    def test_all_layers_assigned(self):
        owners = assign_layers([1.0] * 10, 4)
        assert len(owners) == 10
        assert set(owners) <= set(range(4))

    def test_balanced_loads(self, rng):
        costs = list(rng.uniform(1, 100, 64))
        owners = assign_layers(costs, 8)
        loads = np.zeros(8)
        for c, o in zip(costs, owners):
            loads[o] += c
        assert loads.max() / loads.min() < 1.5

    def test_more_ranks_than_layers(self):
        owners = assign_layers([5.0, 3.0], 8)
        assert owners[0] != owners[1]

    def test_eig_cost_cubic(self):
        assert eig_cost(200, 100) == pytest.approx(200**3 + 100**3)

    def test_invalid_world(self):
        with pytest.raises(ValueError):
            assign_layers([1.0], 0)


@pytest.fixture(scope="module")
def trained_pair():
    """Train the same proxy with and without COMPSO on a 4-rank cluster."""

    def run(compressor):
        data = make_image_data(400, n_classes=5, size=8, noise=0.4, seed=0)
        task = ClassificationTask(data)
        cluster = SimCluster(1, 4, seed=0)
        model = resnet_proxy(n_classes=5, channels=8, rng=3)
        tr = DistributedKfacTrainer(
            model, task, cluster, lr=0.05, inv_update_freq=5, compressor=compressor
        )
        h = tr.train(iterations=20, batch_size=64, eval_every=20)
        return tr, h

    base_tr, base_h = run(None)
    comp_tr, comp_h = run(CompsoCompressor(4e-3, 4e-3))
    return base_tr, base_h, comp_tr, comp_h


class TestDistributedTrainer:
    def test_baseline_converges(self, trained_pair):
        _, base_h, _, _ = trained_pair
        assert base_h.losses[-1] < base_h.losses[0] * 0.5
        assert base_h.final_metric() > 60.0

    def test_compression_preserves_convergence(self, trained_pair):
        """The paper's core claim: COMPSO does not hurt K-FAC accuracy."""
        _, base_h, _, comp_h = trained_pair
        assert comp_h.final_metric() >= base_h.final_metric() - 5.0

    def test_compression_ratio_recorded(self, trained_pair):
        _, _, comp_tr, _ = trained_pair
        assert comp_tr.mean_compression_ratio() > 1.5
        assert len(comp_tr.bytes_on_wire) == 20

    def test_wire_bytes_shrink_with_compression(self, trained_pair):
        base_tr, _, comp_tr, _ = trained_pair
        assert sum(comp_tr.bytes_on_wire) < sum(base_tr.bytes_on_wire)
        assert comp_tr.bytes_original == base_tr.bytes_original

    def test_clock_categories_populated(self, trained_pair):
        base_tr = trained_pair[0]
        bd = base_tr.cluster.breakdown()
        assert bd["kfac_allgather"] > 0
        assert bd["kfac_allreduce"] > 0
        assert bd["grad_allreduce"] > 0

    def test_adaptive_compressor_steps(self):
        data = make_image_data(200, n_classes=4, size=8, noise=0.4, seed=1)
        task = ClassificationTask(data)
        cluster = SimCluster(1, 2, seed=0)
        model = resnet_proxy(n_classes=4, channels=8, rng=3)
        ac = AdaptiveCompso(StepLrSchedule(3))
        tr = DistributedKfacTrainer(model, task, cluster, lr=0.05, compressor=ac)
        tr.train(iterations=6, batch_size=32)
        assert ac.iteration == 6
        assert ac.bounds.eb_f == 0  # switched to conservative

    def test_owners_cover_all_layers(self, trained_pair):
        tr = trained_pair[0]
        assert len(tr.owners) == len(tr.kfac.layers)


class TestTimingModel:
    @pytest.mark.parametrize(
        "name,targets",
        [
            ("resnet50", (35.1, 10.3, 13.7, 27.3, 13.6)),
            ("maskrcnn", (35.5, 10.1, 13.5, 26.8, 14.1)),
            ("bert-large", (36.0, 12.6, 12.5, 25.4, 13.5)),
            ("gpt-neo-125m", (41.6, 11.4, 12.0, 22.9, 12.1)),
        ],
    )
    def test_fig1_fractions_reproduced(self, name, targets):
        """Calibrated model must match Fig. 1's 16-node columns closely."""
        m = KfacIterationModel(
            MODEL_CATALOGS[name](), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES[name]
        )
        fr = m.breakdown().fractions()
        got = (
            fr["kfac_allgather"],
            fr["kfac_allreduce"],
            fr["kfac_compute"],
            fr["fwd_bwd"],
            fr["others"],
        )
        for g, t in zip(got, targets):
            assert abs(g * 100 - t) < 5.0, (name, got)

    def test_comm_fraction_grows_with_nodes(self):
        """Fig. 1: communication share increases with GPU count."""
        cat = MODEL_CATALOGS["bert-large"]()
        prof = MODEL_TIMING_PROFILES["bert-large"]
        fr = [
            KfacIterationModel(cat, PLATFORM1, n, profile=prof).breakdown().fractions()[
                "kfac_allgather"
            ]
            for n in (4, 8, 16)
        ]
        assert fr[0] < fr[1] < fr[2]

    def test_comm_exceeds_30_percent(self):
        """The paper's motivating observation."""
        for name in MODEL_CATALOGS:
            m = KfacIterationModel(
                MODEL_CATALOGS[name](), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES[name]
            )
            fr = m.breakdown().fractions()
            comm = fr["kfac_allgather"] + fr["kfac_allreduce"]
            assert comm > 0.30, name

    def test_compression_shrinks_allgather(self):
        m = KfacIterationModel(
            resnet50_catalog(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES["resnet50"]
        )
        spec = CompressionSpec.compso(ratio=20.0)
        assert m.breakdown(spec).kfac_allgather < m.breakdown().kfac_allgather / 5

    def test_end_to_end_speedup_in_paper_range(self):
        """Fig. 9: up to ~1.9x, average ~1.3x."""
        speedups = []
        for name in MODEL_CATALOGS:
            for plat in (PLATFORM1, PLATFORM2):
                m = KfacIterationModel(
                    MODEL_CATALOGS[name](), plat, 16, profile=MODEL_TIMING_PROFILES[name]
                )
                speedups.append(m.end_to_end_speedup(CompressionSpec.compso(22.0)))
        assert 1.0 < min(speedups)
        assert max(speedups) < 2.0
        assert 1.2 < float(np.mean(speedups)) < 1.6

    def test_slower_platform_bigger_speedup(self):
        """Fig. 7/9: Slingshot-10 benefits more than Slingshot-11."""
        cat = resnet50_catalog()
        prof = MODEL_TIMING_PROFILES["resnet50"]
        spec = CompressionSpec.compso(22.0)
        s1 = KfacIterationModel(cat, PLATFORM1, 16, profile=prof).comm_speedup(spec)
        s2 = KfacIterationModel(cat, PLATFORM2, 16, profile=prof).comm_speedup(spec)
        assert s1 > s2

    def test_aggregation_improves_comm_speedup(self):
        """The layer-aggregation mechanism's raison d'etre."""
        m = KfacIterationModel(
            resnet50_catalog(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES["resnet50"]
        )
        s1 = m.comm_speedup(CompressionSpec.compso(22.0, aggregation=1))
        s4 = m.comm_speedup(CompressionSpec.compso(22.0, aggregation=4))
        assert s4 > s1

    def test_comm_speedup_in_paper_range(self):
        """Fig. 7: up to 14.5x on Platform 1, 11.2x on Platform 2."""
        spec = CompressionSpec.compso(22.0)
        for name in MODEL_CATALOGS:
            m = KfacIterationModel(
                MODEL_CATALOGS[name](), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES[name]
            )
            s = m.comm_speedup(spec)
            assert 6.0 < s < 22.0, (name, s)

    @pytest.mark.parametrize("name", sorted(MODEL_CATALOGS))
    def test_codec_term_charges_the_most_loaded_rank(self, name):
        """Each rank compresses the groups of its own layers; the step waits
        for the slowest, as ``kfac_compute_time`` waits for the slowest solve."""
        m = KfacIterationModel(
            MODEL_CATALOGS[name](), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES[name]
        )
        spec = CompressionSpec.compso(22.0, aggregation=4)
        agg = LayerAggregator(4)

        def compress(sizes):
            return sum(spec.pipeline.compress_time(b, m.device) for b in agg.group_bytes(sizes))

        per_rank = [
            compress([l.grad_elems for l, o in zip(m.catalog, m.owners) if o == rank])
            for rank in range(m.world)
        ]
        decompress = sum(
            spec.pipeline.decompress_time(b, m.device)
            for b in agg.group_bytes([l.grad_elems for l in m.catalog])
        )
        assert m.breakdown(spec).compression == max(per_rank) + decompress
        if name == "bert-large":
            # LPT hands rank 0 the costliest layer, not the costliest groups.
            assert max(per_rank) > 1.8 * per_rank[0]

    def test_pytorch_pipeline_worse_end_to_end(self):
        """GPU optimisation matters: a slow compressor erodes the gain."""
        m = KfacIterationModel(
            resnet50_catalog(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES["resnet50"]
        )
        fast = CompressionSpec(20.0, PIPELINES["compso-cuda"], 4)
        slow = CompressionSpec(20.0, PIPELINES["cocktail-pytorch"], 4)
        assert m.end_to_end_speedup(fast) > m.end_to_end_speedup(slow)
