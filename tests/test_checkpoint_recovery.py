"""Atomic checkpointing and exact-trajectory resume.

Archive-level behaviour (atomic writes, the ``.npz`` suffix) is exercised
through ``save_checkpoint`` / ``load_checkpoint``;
a trainer's own checkpoints are ``CheckpointStore`` generations, resumed
with ``restore_latest()``."""

import numpy as np
import pytest

from repro.compression import ErrorFeedback
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.data import make_image_data
from repro.data.loaders import batch_indices
from repro.distributed import SimCluster
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.store import CheckpointStore
from repro.train import ClassificationTask
from repro.util.checkpoint import _read_all, load_checkpoint, save_checkpoint


def _make_trainer(seed=0, compressor=None, store=None, **kw):
    data = make_image_data(200, n_classes=4, size=8, noise=0.6, seed=seed)
    task = ClassificationTask(data)
    cluster = SimCluster(1, 2, seed=seed)
    model = resnet_proxy(n_classes=4, channels=8, rng=seed + 3)
    if compressor is None:
        compressor = AdaptiveCompso(StepLrSchedule(4), seed=seed)
    return (
        DistributedKfacTrainer(
            model, task, cluster, lr=0.05, inv_update_freq=3, compressor=compressor,
            checkpoint_store=store, **kw,
        ),
        task,
    )


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


class TestAtomicSave:
    def test_interrupted_save_preserves_previous_checkpoint(self, tmp_path):
        """A crash mid-write must leave the old checkpoint intact."""
        tr, _ = _make_trainer()
        path = tmp_path / "ckpt.npz"
        tr.train(iterations=2, batch_size=16)
        save_checkpoint(path, tr.model, tr.kfac, compressor=tr.compressor, step=tr.t)
        good = path.read_bytes()

        def torn_write(point, target):
            # Leave a truncated fragment, then die — a torn write.
            if point == "save:tmp_written":
                with open(target, "r+b") as f:
                    f.truncate(10)
                raise OSError("simulated crash mid-save")

        tr.train(iterations=1, batch_size=16)
        with pytest.raises(OSError, match="simulated crash"):
            save_checkpoint(path, tr.model, tr.kfac, compressor=tr.compressor, hooks=torn_write)

        assert path.read_bytes() == good  # previous checkpoint untouched
        assert not list(tmp_path.glob(".*.tmp.*"))  # temp file cleaned up
        tr2, _ = _make_trainer()
        load_checkpoint(path, tr2.model, tr2.kfac, compressor=tr2.compressor)  # still loads
        assert tr2.kfac.t == 2

    def test_npz_suffix_appended_once(self, tmp_path):
        tr, _ = _make_trainer()
        tr.train(iterations=1, batch_size=16)
        save_checkpoint(tmp_path / "a", tr.model, tr.kfac)
        save_checkpoint(tmp_path / "b.npz", tr.model, tr.kfac)
        assert (tmp_path / "a.npz").exists()
        assert (tmp_path / "b.npz").exists() and not (tmp_path / "b.npz.npz").exists()


class TestExactResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        """train(2N) == train(N) -> checkpoint -> restore -> train(N).

        Bit-exact equivalence is the whole point: a post-fault restore
        must continue the same trajectory, including K-FAC eigendecomps,
        momentum, the adaptive bound schedule, and the SR RNG stream.
        """
        N = 4
        tr_a, task = _make_trainer()
        batches = list(batch_indices(task.n, 32, iterations=2 * N, seed=7))

        for idx in batches:
            tr_a.step(idx)

        tr_b, _ = _make_trainer(store=CheckpointStore(tmp_path))
        for idx in batches[:N]:
            tr_b.step(idx)
        tr_b.save_state()

        tr_c, _ = _make_trainer(seed=0, store=CheckpointStore(tmp_path))
        # Scramble the fresh trainer so the test can't pass by accident.
        for p in tr_c.model.parameters():
            p.data = p.data + 1.0
        assert tr_c.restore_latest().step == N
        assert tr_c.t == N
        for idx in batches[N:]:
            tr_c.step(idx)

        assert np.array_equal(_params(tr_a.model), _params(tr_c.model))
        assert tr_a.history.losses[N:] == tr_c.history.losses
        assert tr_a.compressor.iteration == tr_c.compressor.iteration
        assert tr_a.compressor.bounds == tr_c.compressor.bounds

    def test_error_feedback_resume_matches_uninterrupted_run(self, tmp_path):
        """The wrapper's residuals and the generator behind it are state too:
        ``ErrorFeedback(CompsoCompressor)`` resumes bit for bit."""

        def make():
            return _make_trainer(
                compressor=ErrorFeedback(CompsoCompressor(4e-3, 4e-3, seed=0)),
                store=CheckpointStore(tmp_path),
            )

        N = 3
        tr_a, task = make()
        batches = list(batch_indices(task.n, 32, iterations=2 * N, seed=7))
        for idx in batches:
            tr_a.step(idx)
        tr_b, _ = make()
        for idx in batches[:N]:
            tr_b.step(idx)
        gen = tr_b.save_state()
        assert {"compressor/rng", "compressor/residual_keys", "compressor/residual/0"} <= set(
            _read_all(tmp_path / gen.file)
        )

        tr_c, _ = make()
        assert tr_c.restore_latest() == gen
        for idx in batches[N:]:
            tr_c.step(idx)
        assert tr_a.history.losses[N:] == tr_c.history.losses
        assert np.array_equal(_params(tr_a.model), _params(tr_c.model))
        assert tr_a.compressor.residual_norm() == tr_c.compressor.residual_norm()

    def test_adaptive_degradation_state_round_trips(self, tmp_path):
        tr, _ = _make_trainer(store=CheckpointStore(tmp_path))
        tr.train(iterations=2, batch_size=16)
        tr.compressor.degrade(iterations=5)
        tr.save_state()
        tr2, _ = _make_trainer(store=CheckpointStore(tmp_path))
        tr2.restore_latest()
        assert tr2.compressor.degraded
        assert tr2.compressor._degraded_until == tr.compressor._degraded_until
        assert tr2.compressor.bounds == tr.compressor.bounds

    def test_periodic_checkpoint_written_by_train(self, tmp_path):
        """One store generation per ``checkpoint_every`` steps, at that step."""
        store = CheckpointStore(tmp_path / "ckpts")
        tr, _ = _make_trainer(store=store, checkpoint_every=2)
        tr.train(iterations=5, batch_size=16)
        assert [(g.gen, g.step) for g in store.generations()] == [(1, 2), (2, 4)]
        assert all((store.root / g.file).exists() for g in store.generations())
