"""Infrastructure extensions: new collectives, checkpointing, CLI."""

import io
from contextlib import redirect_stdout
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import make_image_data
from repro.distributed import (
    SLINGSHOT10,
    SimCluster,
    allreduce_time,
    alltoall_time,
    hierarchical_allreduce_time,
)
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.optim import Kfac
from repro.train import ClassificationTask
from repro.util import load_checkpoint, save_checkpoint
from tests.archives import rewrite_archive


class TestNewCollectives:
    def test_alltoall_scales_with_pairs(self):
        t8 = alltoall_time(SLINGSHOT10, 8, 1e6, 4)
        t16 = alltoall_time(SLINGSHOT10, 16, 1e6, 4)
        assert t16 > t8 * 1.8

    def test_alltoall_single_rank_free(self):
        assert alltoall_time(SLINGSHOT10, 1, 1e6, 4) == 0.0

    def test_hierarchical_beats_flat_ring_at_scale(self):
        """Two-level allreduce exploits NVLink + undivided NICs."""
        flat = allreduce_time(SLINGSHOT10, 64, 1e9, 4)
        hier = hierarchical_allreduce_time(SLINGSHOT10, 64, 1e9, 4)
        assert hier < flat

    def test_hierarchical_intra_node_only(self):
        t = hierarchical_allreduce_time(SLINGSHOT10, 4, 1e8, 4)
        assert 0 < t < allreduce_time(SLINGSHOT10, 64, 1e8, 4)

    def test_hierarchical_zero_cases(self):
        assert hierarchical_allreduce_time(SLINGSHOT10, 1, 1e6, 4) == 0.0
        assert hierarchical_allreduce_time(SLINGSHOT10, 8, 0, 4) == 0.0


class TestCheckpoint:
    def test_roundtrip_parameters(self, tmp_path, rng):
        model = resnet_proxy(n_classes=4, channels=8, rng=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"param": model}, world_size=1, step=0, hooks=None)
        reference = [p.data.copy() for p in model.parameters()]
        for p in model.parameters():
            p.data += 1.0
        load_checkpoint(path, {"param": model})
        for p, ref in zip(model.parameters(), reference):
            assert np.array_equal(p.data, ref)

    def test_kfac_factors_restored(self, tmp_path):
        data = make_image_data(100, n_classes=3, size=8, seed=0)
        task = ClassificationTask(data)
        model = resnet_proxy(n_classes=3, channels=8, rng=1)
        trainer = DistributedKfacTrainer(model, task, SimCluster(1, 1, seed=0), inv_update_freq=2)
        trainer.train(iterations=4, batch_size=16)
        kfac = trainer.kfac
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"param": model, "kfac": kfac}, world_size=1, step=4, hooks=None)
        model2 = resnet_proxy(n_classes=3, channels=8, rng=99)
        kfac2 = Kfac(model2, lr=0.05)
        load_checkpoint(path, {"param": model2, "kfac": kfac2})
        assert kfac2.state[0].n_updates == kfac.state[0].n_updates
        assert np.allclose(kfac2.state[0].A, kfac.state[0].A)
        assert np.array_equal(kfac2.state[0].QA, kfac.state[0].QA)  # restored, not recomputed

    def test_shape_mismatch_raises(self, tmp_path):
        model = resnet_proxy(n_classes=4, channels=8, rng=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"param": model}, world_size=1, step=0, hooks=None)
        other = resnet_proxy(n_classes=5, channels=8, rng=1)
        with pytest.raises(ValueError):
            load_checkpoint(path, {"param": other})

    def test_missing_param_raises(self, tmp_path):
        model = resnet_proxy(rng=1)
        path = save_checkpoint(
            tmp_path / "ckpt.npz", {"param": model}, world_size=1, step=0, hooks=None
        )
        name = next(model.named_parameters())[0]
        rewrite_archive(path, mutate=lambda arrays: arrays.pop(f"param/{name}"))
        with pytest.raises(KeyError, match=name):
            load_checkpoint(path, {"param": resnet_proxy(rng=1)})


class TestCli:
    def _run(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    def test_info(self):
        code, out = self._run(["info"])
        assert code == 0
        assert "encoders" in out

    def test_compress_synthetic(self):
        code, out = self._run(["compress", "--size", "50000", "--compressor", "compso"])
        assert code == 0
        assert "ratio" in out

    def test_compress_npy_file(self, tmp_path, rng):
        f = tmp_path / "g.npy"
        np.save(f, rng.standard_normal(10_000).astype(np.float32))
        code, out = self._run(["compress", "--input", str(f), "--compressor", "qsgd8"])
        assert code == 0
        assert "qsgd" in out

    def test_unknown_compressor_exits(self):
        with pytest.raises(SystemExit):
            self._run(["compress", "--compressor", "nope"])

    def test_experiments_list(self):
        code, out = self._run(["experiments"])
        assert code == 0
        assert "Fig. 9" in out
        # Every bench on disk is listed (a row may be a glob, as the
        # ablations' is), and every row names a bench that exists.
        benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
        rows = [line.split()[-1] for line in out.splitlines() if "benchmarks/bench_" in line]
        for bench in sorted(p.name for p in benchmarks.glob("bench_*.py")):
            assert any(fnmatch(f"benchmarks/{bench}", row) for row in rows), f"{bench} is not listed"
        for row in rows:
            assert list(benchmarks.parent.glob(row)), f"{row} matches no bench"

    def test_demo_train(self):
        code, out = self._run(["demo-train", "--ranks", "2", "--iterations", "6"])
        assert code == 0
        assert "compression ratio" in out
