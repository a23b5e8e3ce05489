"""Atomic checkpointing, exact-trajectory resume, all-or-nothing restores.

Archive-level behaviour (atomic writes, the ``.npz`` suffix, a refused
restore) is exercised through ``save_checkpoint`` / ``load_checkpoint``
with the trainer's owners; a trainer's own checkpoints are
``CheckpointStore`` generations, resumed with ``restore_latest()``."""

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
from repro.util.checkpoint import CheckpointError, _read_all, load_checkpoint, save_checkpoint
from tests.archives import rewrite_archive, vouch_for
from tests.conftest import tiny_kfac_trainer


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


def _owners(tr) -> dict:
    return {"param": tr.model, "kfac": tr.kfac, "compressor": tr.compressor}


def _state(tr) -> dict[str, np.ndarray]:
    """A copy of everything a checkpoint of ``tr`` would hold."""
    return {
        f"{name}/{key}": np.array(value, copy=True)
        for name, owner in _owners(tr).items()
        for key, value in owner.state_dict().items()
    }


def _tiny(**kw):
    return tiny_kfac_trainer(compressor=AdaptiveCompso(StepLrSchedule(4), seed=0), **kw)


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _drop_a_factor(arrays):
    """Layer 3's ``G`` goes; the archive is resealed, so only K-FAC can tell."""
    del arrays["kfac/3/G"]


class TestAtomicSave:
    def test_interrupted_save_preserves_previous_checkpoint(self, tmp_path):
        """A crash mid-write must leave the old checkpoint intact."""
        tr, _ = _make_trainer()
        path = tmp_path / "ckpt.npz"
        tr.train(iterations=2, batch_size=16)
        save_checkpoint(path, _owners(tr), world_size=2, step=tr.t, hooks=None)
        good = path.read_bytes()

        def torn_write(point, target):
            # Leave a truncated fragment, then die — a torn write.
            if point == "save:tmp_written":
                with open(target, "r+b") as f:
                    f.truncate(10)
                raise OSError("simulated crash mid-save")

        tr.train(iterations=1, batch_size=16)
        with pytest.raises(OSError, match="simulated crash"):
            save_checkpoint(path, _owners(tr), world_size=2, step=tr.t, hooks=torn_write)

        assert path.read_bytes() == good  # previous checkpoint untouched
        assert not list(tmp_path.glob(".*.tmp.*"))  # temp file cleaned up
        tr2, _ = _make_trainer()
        load_checkpoint(path, _owners(tr2))  # still loads
        assert tr2.kfac.t == 2

    def test_npz_suffix_appended_once(self, tmp_path):
        tr, _ = _make_trainer()
        tr.train(iterations=1, batch_size=16)
        for name in ("a", "b.npz"):
            save_checkpoint(tmp_path / name, _owners(tr), world_size=2, step=tr.t, hooks=None)
        assert (tmp_path / "a.npz").exists()
        assert (tmp_path / "b.npz").exists() and not (tmp_path / "b.npz.npz").exists()


class TestAllOrNothingRestore:
    """A refused restore leaves every owner as it was, and an accepted one
    replaces K-FAC's state instead of merging into it."""

    @pytest.mark.parametrize(
        "mutate, why",
        [
            (_drop_a_factor, "'3/A' present but '3/G' missing"),
            (lambda arrays: arrays.pop("kfac/1/vG"), "'1/QA' present but '1/vG' missing"),
            (lambda arrays: arrays.update({"kfac/2/A": arrays["kfac/2/A"][:-1]}), "'2/A' has shape"),
            (lambda arrays: arrays.update({"kfac/9/A": arrays["kfac/0/A"]}), "'9/A' names no"),
        ],
    )
    def test_a_refused_archive_changes_no_owner(self, tmp_path, mutate, why):
        tr = _tiny()
        tr.train(iterations=3, batch_size=8)
        path = save_checkpoint(tmp_path / "c", _owners(tr), world_size=2, step=tr.t, hooks=None)
        rewrite_archive(path, mutate=mutate)
        fresh = _tiny()
        before = _state(fresh)
        with pytest.raises(CheckpointError, match=why):
            load_checkpoint(path, _owners(fresh))
        assert _same(_state(fresh), before)

    def test_a_fallback_restores_the_older_generation_whole(self, tmp_path):
        store = CheckpointStore(tmp_path)
        tr = _tiny(checkpoint_store=store)
        clean = _state(tr)
        tr.save_state()
        tr.train(iterations=3, batch_size=8)
        newest = tr.save_state()
        rewrite_archive(tmp_path / newest.file, mutate=_drop_a_factor)
        vouch_for(store, newest)
        assert tr.restore_latest().step == 0
        assert [ev.kind for ev in store.abnormal_events()] == ["fallback", "quarantine"]
        assert tr.t == 0 and _same(_state(tr), clean)


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
