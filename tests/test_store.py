"""Durable state: sealed store, corruption fallback, crash sweep, fsck."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.plan import BitRot, FaultPlan
from repro.faults.storage import StorageCrash, StorageFaultController
from repro.models import resnet_proxy
from repro.cli import main as cli_main
from repro.obsv.ledger import SCHEMA_VERSION, LedgerConfig, LedgerError, fsck_ledger, load_ledger
from repro.store import (
    MANIFEST_NAME,
    STORE_SAVE_POINTS,
    CheckpointStore,
    Generation,
    StoreError,
    fsck_ledger_file,
    fsck_store,
    is_store,
)
from repro.store.store import file_crc32, manifest_text, parse_manifest
from repro.util.checkpoint import save_checkpoint, verify_checkpoint
from tests.archives import rewrite_archive, vouch_for
from tests.conftest import tiny_kfac_trainer


def _model(seed=0):
    return resnet_proxy(n_classes=4, channels=8, rng=seed)


def _owners(model) -> dict:
    return {"param": model}


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _nudge(model, delta=0.01):
    for p in model.parameters():
        p.data += delta


def _fill(store, steps):
    """One generation per step, nudging the model between saves.

    Returns the model and a ``{step: params}`` snapshot map.
    """
    model = _model()
    snaps = {}
    for step in steps:
        _nudge(model)
        store.save(_owners(model), world_size=1, step=step)
        snaps[step] = _params(model).copy()
    return model, snaps


def _flip_byte(path, offset=200):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestManifestSeal:
    def test_round_trip(self):
        gens = [Generation(gen=1, file="gen-00000001.npz", step=3, nbytes=10, crc32=7)]
        assert parse_manifest(manifest_text(gens)) == gens

    def test_tampered_body_fails_the_seal(self):
        gens = [Generation(gen=1, file="gen-00000001.npz", step=3, nbytes=10, crc32=7)]
        doc = json.loads(manifest_text(gens))
        doc["body"]["generations"][0]["step"] = 99  # lie about the step
        with pytest.raises(StoreError, match="seal mismatch"):
            parse_manifest(json.dumps(doc))

    def test_garbage_is_a_store_error(self):
        with pytest.raises(StoreError, match="unreadable"):
            parse_manifest("not json at all {")

    def test_wrong_schema_version_rejected(self):
        doc = {"body": {"schema_version": 99, "generations": []}}
        body = json.dumps(doc["body"], sort_keys=True, separators=(",", ":"))
        import zlib

        doc["seal"] = zlib.crc32(body.encode()) & 0xFFFFFFFF
        with pytest.raises(StoreError, match="schema version"):
            parse_manifest(json.dumps(doc))


class TestStoreLifecycle:
    def test_saves_commit_monotone_generations(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        gens = store.generations()
        assert [g.gen for g in gens] == [1, 2]
        assert [g.step for g in gens] == [1, 2]
        assert store.generations(quiet=True)[-1].gen == 2
        assert (tmp_path / "gen-00000001.npz").exists()
        assert (tmp_path / MANIFEST_NAME).exists()
        assert is_store(tmp_path)

    def test_retention_trims_manifest_before_deleting_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.keep == 3
        _fill(store, [1, 2, 3, 4])
        assert [g.gen for g in store.generations()] == [2, 3, 4]
        assert not (tmp_path / "gen-00000001.npz").exists()
        assert any(ev.kind == "retention" for ev in store.events)
        # Retention is normal operation, not damage.
        assert store.abnormal_events() == []

    def test_load_latest_restores_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _, snaps = _fill(store, [1, 2])
        fresh = _model(seed=5)
        gen = CheckpointStore(tmp_path).load_latest(_owners(fresh))
        assert gen.step == 2
        assert np.array_equal(_params(fresh), snaps[2])

    def test_empty_store_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest(_owners(_model())) is None

    def test_next_gen_number_skips_orphans(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1])
        # A crash between archive replace and manifest replace leaves an
        # orphan the manifest doesn't know about; its number must not be
        # reused by the next save.
        save_checkpoint(
            tmp_path / "gen-00000007.npz", _owners(_model()), world_size=1, step=9, hooks=None
        )
        model = _model()
        entry = store.save(_owners(model), world_size=1, step=2)
        assert entry.gen == 8


class TestCorruptionFallback:
    def test_truncated_newest_falls_back_one_generation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _, snaps = _fill(store, [1, 2])
        path = tmp_path / store.generations(quiet=True)[-1].file
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size // 2)

        reader = CheckpointStore(tmp_path)
        fresh = _model(seed=5)
        gen = reader.load_latest(_owners(fresh))
        assert gen.step == 1
        assert np.array_equal(_params(fresh), snaps[1])
        kinds = [ev.kind for ev in reader.events]
        assert "fallback" in kinds and "quarantine" in kinds
        assert (tmp_path / "quarantine" / "gen-00000002.npz").exists()
        # The pruned manifest is persisted: the next reader never
        # re-walks the known-bad generation.
        assert [g.gen for g in CheckpointStore(tmp_path).generations()] == [1]

    def test_flipped_byte_fails_the_file_seal(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _, snaps = _fill(store, [1, 2])
        _flip_byte(tmp_path / store.generations(quiet=True)[-1].file)

        reader = CheckpointStore(tmp_path)
        fresh = _model(seed=5)
        assert reader.load_latest(_owners(fresh)).step == 1
        assert np.array_equal(_params(fresh), snaps[1])

    def test_content_seal_catches_what_a_lying_manifest_misses(self, tmp_path):
        """Even a manifest that vouches for the damaged bytes can't pass it."""
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        newest = store.generations(quiet=True)[-1]
        path = tmp_path / newest.file
        # Tamper with decoded content while keeping the stale seal, then
        # re-seal the *manifest* over the damaged file: the file CRC now
        # matches, so only the archive's own content seal can object.

        def bump_first_param(arrays):
            key = next(k for k in arrays if k.startswith("param/"))
            arrays[key] = arrays[key] + 1.0

        rewrite_archive(path, mutate=bump_first_param, reseal=False)
        vouch_for(store, newest)

        reader = CheckpointStore(tmp_path)
        assert reader.load_latest(_owners(_model(seed=5))).step == 1
        assert any(ev.kind == "fallback" for ev in reader.events)

    def test_all_generations_damaged_raises_store_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        for gen in store.generations():
            _flip_byte(tmp_path / gen.file)
        with pytest.raises(StoreError, match="no generation passed"):
            CheckpointStore(tmp_path).load_latest(_owners(_model(seed=5)))

    def test_missing_generation_file_is_an_event_not_a_crash(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _, snaps = _fill(store, [1, 2])
        (tmp_path / store.generations(quiet=True)[-1].file).unlink()
        reader = CheckpointStore(tmp_path)
        fresh = _model(seed=5)
        assert reader.load_latest(_owners(fresh)).step == 1
        assert np.array_equal(_params(fresh), snaps[1])
        assert any(ev.kind == "missing" for ev in reader.events)

    def test_garbage_manifest_rebuilt_from_verified_archives(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _, snaps = _fill(store, [1, 2])
        (tmp_path / MANIFEST_NAME).write_text("{torn garbage")
        reader = CheckpointStore(tmp_path)
        fresh = _model(seed=5)
        gen = reader.load_latest(_owners(fresh))
        assert gen.step == 2
        assert np.array_equal(_params(fresh), snaps[2])
        assert any(ev.kind == "manifest_rebuilt" for ev in reader.events)

    def test_summary_counts_are_deterministic_fields_only(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        _flip_byte(tmp_path / store.generations(quiet=True)[-1].file)
        reader = CheckpointStore(tmp_path)
        reader.load_latest(_owners(_model(seed=5)))
        summary = reader.summary()
        assert summary["fallbacks"] == 1 and summary["quarantined"] == 1
        # Events never carry CRC values or byte offsets (zlib builds
        # disagree on CRCs; ledgers must stay bit-portable).
        for ev in reader.events:
            assert "0x" not in ev.detail


class TestCrashConsistency:
    """A simulated process death at every injection point of save()."""

    @pytest.mark.parametrize("point", STORE_SAVE_POINTS)
    def test_crash_at_every_point_restores_a_verified_generation(self, tmp_path, point):
        plan = FaultPlan().add_save_crash(save_index=1, point=point)
        store = CheckpointStore(
            tmp_path, hooks_factory=StorageFaultController(plan).hooks_for
        )
        model = _model()
        _nudge(model)
        store.save(_owners(model), world_size=1, step=1)
        committed = _params(model).copy()
        _nudge(model)
        with pytest.raises(StorageCrash, match=point):
            store.save(_owners(model), world_size=1, step=2)
        second = _params(model).copy()

        # The "reboot": a fresh store over the same directory.
        fresh = _model(seed=5)
        gen = CheckpointStore(tmp_path).load_latest(_owners(fresh))
        assert gen is not None, f"{point}: nothing restorable after crash"
        if point in ("manifest:replaced", "sealed"):
            # The save was fully committed before the crash.
            assert gen.step == 2
            assert np.array_equal(_params(fresh), second)
        else:
            # The previous committed state must be untouched.
            assert gen.step == 1
            assert np.array_equal(_params(fresh), committed)
        # No torn writer temp files survive the crash.
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]

    def test_torn_write_is_caught_by_the_content_seal(self, tmp_path):
        plan = FaultPlan().add_torn_write(save_index=1)
        store = CheckpointStore(
            tmp_path, hooks_factory=StorageFaultController(plan).hooks_for
        )
        model = _model()
        _nudge(model)
        store.save(_owners(model), world_size=1, step=1)
        committed = _params(model).copy()
        _nudge(model)
        store.save(_owners(model), world_size=1, step=2)  # tmp torn mid-window; commit completes

        fresh = _model(seed=5)
        reader = CheckpointStore(tmp_path)
        assert reader.load_latest(_owners(fresh)).step == 1
        assert np.array_equal(_params(fresh), committed)
        assert any(ev.kind == "fallback" for ev in reader.events)

    def test_seeded_bit_rot_is_replayable(self, tmp_path):
        def rot(root):
            plan = FaultPlan(seed=3, storage=[BitRot(save_index=1, n_bytes=2)])
            controller = StorageFaultController(plan)
            store = CheckpointStore(root, hooks_factory=controller.hooks_for)
            _fill(store, [1, 2])
            log = [
                (idx, kind, {k: v for k, v in detail.items() if k != "file"})
                for idx, kind, detail in controller.log
            ]
            return log, (root / "gen-00000002.npz").read_bytes()

        log_a, bytes_a = rot(tmp_path / "a")
        log_b, bytes_b = rot(tmp_path / "b")
        assert log_a == log_b  # same plan, same damaged positions
        assert bytes_a == bytes_b


def _faulted_reads(root, fault, save_index):
    """The events of a store whose save ``save_index`` (of three) was torn or
    rotted and of a fresh reader's ``load_latest``, the step it restored, and
    fsck's verdicts before that read."""
    plan = FaultPlan(seed=3)
    if fault == "torn":
        plan.add_torn_write(save_index=save_index)
    else:
        plan.storage.append(BitRot(save_index=save_index, n_bytes=2))
    store = CheckpointStore(root, hooks_factory=StorageFaultController(plan).hooks_for)
    _fill(store, [1, 2, 3])
    # Which seal catches the damage: the manifest's file CRC, or the archive's own.
    seals = [(v.kind, v.status, "file CRC" in v.detail) for v in fsck_store(root)]
    reader = CheckpointStore(root)
    restored = reader.load_latest(_owners(_model(seed=5)))
    events = [(ev.kind, ev.gen, ev.step, ev.detail) for ev in store.events + reader.events]
    return events, restored.step, seals


class TestManifestAgreesWithDisk:
    """The manifest records the bytes on disk: a healthy save takes them from
    memory, a save whose fault hook ran re-reads the file."""

    def test_every_healthy_save_records_the_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        model = _model()
        for step in range(1, 6):
            _nudge(model)
            entry = store.save(_owners(model), world_size=1, step=step)
            path = tmp_path / entry.file
            assert entry.crc32 == file_crc32(path)
            assert entry.nbytes == path.stat().st_size
            assert store.generations()[-1] == entry == CheckpointStore(tmp_path).generations()[-1]

    # Pinned where every save re-read its file: a torn write is recorded as
    # torn and caught by the archive's seal, bit rot by the manifest's CRC.
    SAVES = [("save", g, g, "") for g in (1, 2, 3)]
    FELL_BACK = [("fallback", 3, 3, "CheckpointError"), ("quarantine", 3, 3, "CheckpointError"),
                 ("verify_ok", 2, 2, "")]

    @staticmethod
    def _seals(damaged, by_file_crc):
        gens = [("generation", "corrupt" if g == damaged else "ok", by_file_crc and g == damaged)
                for g in (1, 2, 3)]
        return [("manifest", "ok", False), *gens]

    @pytest.mark.parametrize("fault", ["torn", "rot"])
    @pytest.mark.parametrize("save_index", [1, 2])
    def test_faulted_saves_read_back_as_they_did(self, tmp_path, fault, save_index):
        damaged = save_index + 1
        events, step, seals = _faulted_reads(tmp_path, fault, save_index)
        if damaged == 3:
            assert (events, step) == (self.SAVES + self.FELL_BACK, 2)
        else:
            assert (events, step) == (self.SAVES + [("verify_ok", 3, 3, "")], 3)
        assert seals == self._seals(damaged, by_file_crc=fault == "rot")


class TestTmpWriterCollision:
    def test_interleaved_writers_use_distinct_temp_files(self, tmp_path):
        """Two writers saving to the same destination must never share a
        temp file — the second writer's partial bytes would be swapped
        into the first writer's os.replace."""
        dest = tmp_path / "ckpt.npz"
        tmp_names = []

        def inner_hook(point, path):
            if point == "save:tmp_written":
                tmp_names.append(path.name)

        def outer_hook(point, path):
            if point == "save:tmp_written":
                tmp_names.append(path.name)
                if len(tmp_names) == 1:
                    # A second writer completes a full save to the same
                    # destination while the first sits in its tmp window.
                    save_checkpoint(
                        dest, _owners(_model(seed=9)), world_size=1, step=9, hooks=inner_hook
                    )

        save_checkpoint(dest, _owners(_model(seed=1)), world_size=1, step=1, hooks=outer_hook)
        assert len(tmp_names) == 2 and tmp_names[0] != tmp_names[1]
        # The first writer finished last; its content won the replace
        # and is intact (no torn mix of the two writers).
        assert verify_checkpoint(dest)["step"] == 1
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]


class TestFsckStore:
    def test_clean_store_scans_clean(self, tmp_path):
        _fill(CheckpointStore(tmp_path), [1, 2])
        verdicts = fsck_store(tmp_path)
        assert all(v.status == "ok" for v in verdicts)

    def test_scan_reports_and_repair_quarantines(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        _flip_byte(tmp_path / store.generations(quiet=True)[-1].file)

        scan = {v.path: v for v in fsck_store(tmp_path)}
        assert scan[str(tmp_path / "gen-00000002.npz")].status == "corrupt"

        fsck_store(tmp_path, repair=True)
        assert (tmp_path / "quarantine" / "gen-00000002.npz").exists()
        # Post-repair the store is healthy again.
        assert all(v.status == "ok" for v in fsck_store(tmp_path))
        assert CheckpointStore(tmp_path).load_latest(_owners(_model(seed=5))).step == 1

    def test_repair_adopts_verified_orphans(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1])
        # A crash after archive replace but before the manifest update.
        orphan = _model(seed=2)
        save_checkpoint(
            tmp_path / "gen-00000002.npz", _owners(orphan), world_size=1, step=2, hooks=None
        )

        scan = {v.path: v for v in fsck_store(tmp_path)}
        assert scan[str(tmp_path / "gen-00000002.npz")].status == "orphan"

        verdicts = fsck_store(tmp_path, repair=True)
        assert any(v.status == "adopted" for v in verdicts)
        fresh = _model(seed=5)
        gen = CheckpointStore(tmp_path).load_latest(_owners(fresh))
        assert gen.gen == 2 and gen.step == 2
        assert np.array_equal(_params(fresh), _params(orphan))

    def test_repair_rebuilds_garbage_manifest_and_sweeps_tmps(self, tmp_path):
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        (tmp_path / MANIFEST_NAME).write_text("][")
        stray = tmp_path / ".gen-00000009.tmp.1234-0.npz"
        stray.write_bytes(b"partial")

        verdicts = fsck_store(tmp_path, repair=True)
        statuses = {v.status for v in verdicts}
        assert "rebuilt" in statuses and "swept" in statuses
        assert not stray.exists()
        assert [g.gen for g in CheckpointStore(tmp_path).generations()] == [1, 2]


    def test_stray_gen_names_are_no_generations(self, tmp_path):
        """``gen-extra.npz`` fails the store's name rule: fsck, like the
        store, neither adopts nor quarantines it, whatever it holds."""
        store = CheckpointStore(tmp_path)
        _fill(store, [1, 2])
        extra = tmp_path / "gen-extra.npz"
        notes = tmp_path / "gen-notes.npz"
        save_checkpoint(extra, _owners(_model()), world_size=1, step=7, hooks=None)
        notes.write_bytes(b"notes")
        manifest = (tmp_path / MANIFEST_NAME).read_bytes()
        for repair in (False, True):
            verdicts = fsck_store(tmp_path, repair=repair)
            assert all(v.status == "ok" for v in verdicts)
            assert {v.path for v in verdicts}.isdisjoint({str(extra), str(notes)})
        assert extra.exists() and notes.exists()
        assert not (tmp_path / "quarantine").exists()
        assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest
        assert [g.gen for g in CheckpointStore(tmp_path).generations()] == [1, 2]

    def test_repair_cut_inside_its_manifest_write_keeps_the_old_manifest(
        self, tmp_path, monkeypatch
    ):
        """A repair killed while its manifest bytes are going to disk leaves
        the previous manifest byte-identical, and a later repair completes."""
        store = CheckpointStore(tmp_path)
        _fill(store, [1])
        orphan = tmp_path / "gen-00000002.npz"
        save_checkpoint(orphan, _owners(_model(seed=2)), world_size=1, step=2, hooks=None)
        before = (tmp_path / MANIFEST_NAME).read_bytes()

        class Killed(BaseException):
            pass

        def torn(path, data, *args, **kwargs):
            with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
                fh.write(data[: len(data) // 2])
            raise Killed(str(path))

        with monkeypatch.context() as m:
            m.setattr(Path, "write_bytes", torn)
            m.setattr(Path, "write_text", torn)
            with pytest.raises(Killed):
                fsck_store(tmp_path, repair=True)
        assert (tmp_path / MANIFEST_NAME).read_bytes() == before
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]

        assert any(v.status == "adopted" for v in fsck_store(tmp_path, repair=True))
        assert [g.gen for g in CheckpointStore(tmp_path).generations()] == [1, 2]


def _write_ledger(path, n_steps=3):
    w = tiny_kfac_trainer(obsv=LedgerConfig(path)).obsv
    for i in range(n_steps):
        w.record_step(i, loss=1.0 / (i + 1), wire_bytes=100.0, dense_bytes=400.0)
    w.close()
    return path


class TestLedgerFsck:
    def test_complete_ledger_is_ok(self, tmp_path):
        p = _write_ledger(tmp_path / "run.ledger")
        assert fsck_ledger(p).status == "ok"
        assert fsck_ledger_file(p).status == "ok"

    def test_torn_tail_repaired_to_the_written_final(self, tmp_path):
        """The synthesized final must match what close() would have
        written, byte for byte, modulo the ``repaired`` marker."""
        p = _write_ledger(tmp_path / "run.ledger")
        intact = load_ledger(p)
        with open(p, "r+b") as fh:
            fh.truncate(p.stat().st_size - 30)  # tear the final record

        result = fsck_ledger(p, repair=True)
        assert result.status == "repaired"
        assert result.synthesized_final
        assert (tmp_path / "run.ledger.pre-fsck").exists()

        repaired = load_ledger(p)
        final = dict(repaired.final)
        assert final.pop("repaired") is True
        assert final == intact.final
        assert repaired.steps == intact.steps

    def test_scan_mode_reports_without_writing(self, tmp_path):
        p = _write_ledger(tmp_path / "run.ledger")
        with open(p, "r+b") as fh:
            fh.truncate(p.stat().st_size - 30)
        before = p.read_bytes()
        verdict = fsck_ledger_file(p)
        assert verdict.status == "corrupt"
        assert p.read_bytes() == before

    def test_mid_file_corruption_is_unrepairable(self, tmp_path):
        p = _write_ledger(tmp_path / "run.ledger")
        lines = p.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage an interior record
        p.write_text("\n".join(lines) + "\n")
        result = fsck_ledger(p, repair=True)
        assert result.status == "unrepairable"
        assert not (tmp_path / "run.ledger.pre-fsck").exists()

    @pytest.mark.parametrize("version", [SCHEMA_VERSION + 1, None])
    def test_unsupported_schema_version_is_unrepairable(self, tmp_path, version, capsys):
        """A ledger ``load_ledger`` refuses for its schema version is no
        ``ok`` to fsck either: ``repro fsck`` exits 1, with or without repair."""
        p = _write_ledger(tmp_path / "run.ledger")
        lines = p.read_text().splitlines(keepends=True)
        head = json.loads(lines[0])
        if version is None:
            del head["manifest"]["schema_version"]
        else:
            head["manifest"]["schema_version"] = version
        p.write_text(json.dumps(head) + "\n" + "".join(lines[1:]))
        before = p.read_bytes()
        with pytest.raises(LedgerError):
            load_ledger(p)
        for repair in (False, True):
            assert fsck_ledger(p, repair=repair).status == "unrepairable"
            assert fsck_ledger_file(p, repair=repair).status == "unrepairable"
        assert cli_main(["fsck", str(p)]) == 1 and cli_main(["fsck", "--repair", str(p)]) == 1
        assert "unrepairable" in capsys.readouterr().out
        assert p.read_bytes() == before

    def test_missing_manifest_is_unrepairable(self, tmp_path):
        p = tmp_path / "run.ledger"
        p.write_text(json.dumps({"step": 0, "loss": 1.0}) + "\n")
        assert fsck_ledger(p).status == "unrepairable"


class TestStreamMode:
    def test_killed_stream_is_a_repairable_crash_artifact(self, tmp_path):
        """A ledger cut after its step lines — what a writer killed while
        streaming records to disk leaves — is repaired from the steps."""
        p = tmp_path / "run.ledger"
        w = tiny_kfac_trainer(obsv=LedgerConfig(p)).obsv
        w.record_step(0, loss=1.0)
        w.record_step(1, loss=0.5)
        w.close()
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:-1]))  # the final record never landed
        result = fsck_ledger(p, repair=True)
        assert result.status == "repaired" and result.synthesized_final
        ledger = load_ledger(p)
        assert len(ledger.steps) == 2
        assert ledger.final["final_loss"] == 0.5
        assert ledger.final["repaired"] is True


class TestDiffGating:
    def test_store_summary_surfaces_in_diff_metrics(self):
        from repro.obsv import RunLedger, diff_ledgers, summarize

        manifest = {"store": {"fallbacks": 1, "quarantined": 1, "repairs": 0}}
        ledger = RunLedger(
            manifest=manifest, steps=[], final={"steps": 1, "final_loss": 1.0}
        )
        summary = dict(summarize(ledger))
        assert summary["store_fallbacks"] == 1.0
        assert summary["store_quarantined"] == 1.0

        clean = RunLedger(manifest={}, steps=[], final={"steps": 1, "final_loss": 1.0})
        diff = diff_ledgers(clean, ledger)
        assert not diff.ok and "store_fallbacks" in [r.metric for r in diff.regressions]

    def test_repaired_final_gates_against_an_intact_baseline(self):
        from repro.obsv import RunLedger, diff_ledgers

        base = RunLedger(manifest={}, steps=[], final={"steps": 1, "final_loss": 1.0})
        cand = RunLedger(
            manifest={},
            steps=[],
            final={"steps": 1, "final_loss": 1.0, "repaired": True},
        )
        diff = diff_ledgers(base, cand)
        assert not diff.ok
        assert "ledger_repaired" in [r.metric for r in diff.regressions]


class TestTrainerIntegration:
    def _trainer(self, store=None, seed=0, **kw):
        from repro.core import AdaptiveCompso, StepLrSchedule
        from repro.data import make_image_data
        from repro.distributed import SimCluster
        from repro.kfac_dist import DistributedKfacTrainer
        from repro.train import ClassificationTask

        data = make_image_data(120, n_classes=4, size=8, noise=0.6, seed=seed)
        task = ClassificationTask(data)
        cluster = SimCluster(1, 2, seed=seed)
        model = resnet_proxy(n_classes=4, channels=8, rng=seed + 3)
        compressor = AdaptiveCompso(StepLrSchedule(4), seed=seed)
        return DistributedKfacTrainer(
            model, task, cluster, lr=0.05, inv_update_freq=3, compressor=compressor,
            checkpoint_store=store, **kw,
        )

    def test_save_state_requires_a_target(self):
        """Periodic saves with no store are refused when the trainer is
        built, not skipped in silence (which left the guard nothing to
        roll back to); a direct save names the missing store too."""
        with pytest.raises(ValueError, match="checkpoint_every=2 needs a checkpoint_store"):
            self._trainer(checkpoint_every=2)
        tr = self._trainer()
        assert tr.restore_latest() is None  # nothing durable, nothing to restore
        with pytest.raises(ValueError, match="checkpoint_store"):
            tr.save_state()

    def test_store_round_trip_restores_trainer_clock(self, tmp_path):
        tr = self._trainer(CheckpointStore(tmp_path))
        tr.train(iterations=2, batch_size=16)
        tr.save_state()

        tr2 = self._trainer(CheckpointStore(tmp_path), seed=0)
        gen = tr2.restore_latest()
        assert gen.step == 2 and tr2.t == 2
        assert np.array_equal(_params(tr2.model), _params(tr.model))

    def test_corrupt_newest_falls_back_then_replays_bit_identically(self, tmp_path):
        tr = self._trainer(CheckpointStore(tmp_path))
        tr.train(iterations=2, batch_size=16)
        tr.save_state()
        tr.train(iterations=2, batch_size=16)
        tr.save_state()
        reference = _params(tr.model).copy()
        _flip_byte(tmp_path / "gen-00000002.npz")

        tr2 = self._trainer(CheckpointStore(tmp_path), seed=0)
        gen = tr2.restore_latest()
        assert gen.step == 2  # fell back one generation
        assert tr2.checkpoint_store.summary()["fallbacks"] == 1
        tr2.train(iterations=2, batch_size=16)  # replay the lost steps
        assert np.array_equal(_params(tr2.model), reference)

    def test_healthy_store_is_invisible_in_run_artifacts(self, tmp_path):
        store = CheckpointStore(tmp_path)
        tr = self._trainer(store)
        plain = self._trainer()
        tr.train(iterations=3, batch_size=16)
        tr.save_state()
        plain.train(iterations=3, batch_size=16)
        assert np.array_equal(_params(tr.model), _params(plain.model))
        assert store.abnormal_events() == []
