"""The on-disk layout of a checkpoint archive: schema 4, and reading schema <= 3.

The one test file allowed to know that an archive is an ``index`` and a
``data`` member; everything else reaches archives through
``save_checkpoint`` / ``load_checkpoint`` or ``tests.archives``.
"""

import json
import zipfile
import zlib

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.models import resnet_proxy
from repro.nn import Linear
from repro.optim import Kfac
from repro.store import CheckpointStore, fsck_store
from repro.store.fsck import fsck_archive
from repro.util import checkpoint as ckpt
from repro.util.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from tests.archives import rewrite_archive, vouch_for, write_schema3_archive


def _state(seed=0):
    """A model, its K-FAC factors, and a compressor with RNG state."""
    model = resnet_proxy(n_classes=4, channels=8, rng=seed)
    kfac = Kfac(model)
    rng = np.random.default_rng(seed)
    for idx in range(len(kfac.layers)):
        a, g = (rng.standard_normal((n, n)) for n in kfac.layer_dims(idx))
        kfac.accumulate_factors(idx, a @ a.T, g @ g.T)
    return model, kfac, AdaptiveCompso(StepLrSchedule(4), seed=seed)


def _owners(model, kfac=None, comp=None) -> dict:
    return {"param": model, "kfac": kfac, "compressor": comp}


def _save(path, seed=0, *, world_size=1, step=0):
    model, kfac, comp = _state(seed)
    save_checkpoint(path, _owners(model, kfac, comp), world_size=world_size, step=step, hooks=None)
    return model, kfac, comp


def _restore(path):
    model, kfac, comp = _state(seed=7)
    meta = load_checkpoint(path, _owners(model, kfac, comp))
    return model, kfac, comp, meta


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _same_state(a, b) -> bool:
    (ma, ka, ca), (mb, kb, cb) = a, b
    return (
        all(np.array_equal(p.data, q.data) for p, q in zip(ma.parameters(), mb.parameters()))
        and all(np.array_equal(ka.state[i].A, kb.state[i].A) for i in ka.state)
        and ca.inner._rng.bit_generator.state == cb.inner._rng.bit_generator.state
    )


class TestFlatLayout:
    def test_two_stored_members_that_np_load_opens(self, tmp_path):
        path = tmp_path / "c.npz"
        _save(path, step=3, world_size=2)
        with zipfile.ZipFile(path) as zf:
            assert sorted(i.filename for i in zf.infolist()) == ["data.npy", "index.npy"]
            assert all(i.compress_type == zipfile.ZIP_STORED for i in zf.infolist())
        with np.load(path) as archive:
            rows = json.loads(archive["index"].tobytes())
            payload = archive["data"]
        # The rows tile the payload: nothing stored that the seal does not cover.
        assert [r[3] for r in rows] == list(np.cumsum([0] + [r[4] for r in rows[:-1]]))
        assert rows[-1][3] + rows[-1][4] == payload.size
        meta = verify_checkpoint(path)
        assert meta.pop("content_crc32") is not None
        assert meta == {"schema_version": 4, "world_size": 2, "step": 3, "sealed": True}
        assert SCHEMA_VERSION == 4

    @pytest.mark.parametrize("size", [0, 1, 9_999, 10_000, 310_000])
    def test_the_archive_is_the_zip_np_savez_writes(self, tmp_path, size):
        """Laid out in memory, byte for byte as ``np.savez`` writes the two members."""
        rng = np.random.default_rng(size)
        arrays = {"meta/step": np.array(3), "param/w": rng.standard_normal(size // 4, np.float32)}
        sections = ckpt._serialise(arrays)
        rows, offset = [], 0
        for key, dtype, shape, raw in sections:
            rows.append([key, dtype, list(shape), offset, len(raw)])
            offset += len(raw)
        index = np.frombuffer(json.dumps(rows).encode(), np.uint8)
        data = np.frombuffer(b"".join(raw for *_, raw in sections), np.uint8)
        np.savez(tmp_path / "np.npz", index=index, data=data)
        assert ckpt._archive(sections) == (tmp_path / "np.npz").read_bytes()

    def test_a_save_reports_the_bytes_it_wrote(self, tmp_path):
        archive = save_checkpoint(
            tmp_path / "c", _owners(_state()[0]), world_size=1, step=1, hooks=None
        )
        assert archive == tmp_path / "c.npz"
        assert archive.nbytes == archive.stat().st_size
        assert archive.crc32 == zlib.crc32(archive.read_bytes())

    def test_round_trip_is_bit_identical(self, tmp_path):
        saved = _save(tmp_path / "c.npz")
        *restored, _ = _restore(tmp_path / "c.npz")
        assert _same_state(saved, tuple(restored))

    def test_materialised_arrays_are_writable_and_own_their_memory(self, tmp_path):
        _save(tmp_path / "c.npz")
        for arr in ckpt._read_all(tmp_path / "c.npz").values():
            assert arr.flags.writeable and arr.flags.owndata and arr.flags.aligned


def _hand_set_state():
    """Owners holding every kind of section, each array drawn from one
    seeded generator (no ``eigh``, so no BLAS build moves a byte): layer 0
    has no state, layer 1 factors only, layer 2 factors and momentum,
    every later layer factors, eigendecomposition and momentum."""
    rng = np.random.default_rng(48)
    model = resnet_proxy(n_classes=4, channels=4, rng=0)
    model.load_state_dict(
        {n: rng.standard_normal(p.shape).astype(np.float32) for n, p in model.named_parameters()}
    )
    kfac = Kfac(model)
    state = {"t": np.array(7)}
    for idx in range(1, len(kfac.layers)):
        i, o = kfac.layer_dims(idx)
        state[f"{idx}/A"] = rng.standard_normal((i, i))
        state[f"{idx}/G"] = rng.standard_normal((o, o))
        state[f"{idx}/n_updates"] = np.array(idx)
        if idx >= 2:
            state[f"{idx}/momentum"] = rng.standard_normal((o, i)).astype(np.float32)
        if idx >= 3:
            state.update({f"{idx}/QA": rng.standard_normal((i, i)), f"{idx}/vA": rng.random(i),
                          f"{idx}/QG": rng.standard_normal((o, o)), f"{idx}/vG": rng.random(o)})
    for j, p in enumerate(kfac.other_params):
        state[f"other_momentum/{j}"] = rng.standard_normal(p.shape).astype(np.float32)
    kfac.load_state_dict(state)
    comp = CompsoCompressor(4e-3, 2e-3, seed=48)
    comp.set_bounds(3e-3, 1e-3)
    return _owners(model, kfac, comp)


class TestArchivePin:
    #: Size and CRC32 of the archive ``_hand_set_state`` saves, as the writer that
    #: spelled out K-FAC's and the model's sections itself wrote it.
    PINNED = (56_304, 0xE6A891FF)

    def test_every_section_kind_keeps_its_bytes(self, tmp_path):
        owners = _hand_set_state()
        assert {k.split("/")[-1] for k in owners["kfac"].state_dict()} >= {
            "t", "A", "G", "n_updates", "QA", "vA", "QG", "vG", "momentum", "0"
        }
        archive = save_checkpoint(tmp_path / "pin", owners, world_size=4, step=7, hooks=None)
        assert archive.crc32 == zlib.crc32(archive.read_bytes())
        assert (archive.nbytes, archive.crc32) == self.PINNED


class TestLegacyLayout:
    """Archives written before schema 4 keep restoring, verifying and fsck-ing."""

    def test_schema3_archive_restores_like_the_schema4_one(self, tmp_path):
        saved = _save(tmp_path / "new.npz", step=5, world_size=2)
        old = write_schema3_archive(tmp_path / "new.npz", tmp_path / "old.npz")
        with np.load(old) as archive:  # the old layout: one member per section
            assert "meta/content_crc32" in archive.files and "index" not in archive.files

        meta = verify_checkpoint(old)
        assert meta["schema_version"] == 3 and meta["sealed"] and meta["step"] == 5
        *restored, meta = _restore(old)
        assert meta["schema_version"] == 3 and meta["world_size"] == 2
        assert _same_state(saved, tuple(restored))

        verdict = fsck_archive(old)
        assert verdict.status == "ok" and "schema 3" in verdict.detail
        assert "schema 4" in fsck_archive(tmp_path / "new.npz").detail

    def test_schema3_bit_rot_is_still_caught(self, tmp_path):
        _save(tmp_path / "c.npz")
        old = write_schema3_archive(tmp_path / "c.npz")
        blob = bytearray(old.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        old.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="c.npz"):
            verify_checkpoint(old)

    def test_mixed_store_falls_back_from_damaged_schema4_to_schema3(self, tmp_path, capsys):
        store = CheckpointStore(tmp_path)
        model = resnet_proxy(n_classes=4, channels=8, rng=0)
        snaps = {}
        for step in (1, 2, 3):
            for p in model.parameters():
                p.data += 0.01
            entry = store.save(_owners(model), world_size=1, step=step)
            snaps[step] = _params(model)
            if step == 2:
                write_schema3_archive(tmp_path / entry.file)
                vouch_for(store, entry)

        verdicts = fsck_store(tmp_path)
        assert all(v.status == "ok" for v in verdicts), verdicts
        schemas = [v.detail.split(", ")[2] for v in verdicts if v.kind == "generation"]
        assert schemas == ["schema 4", "schema 3", "schema 4"]
        assert cli_main(["fsck", str(tmp_path)]) == 0  # `repro fsck` exits clean
        assert "gen 2, step 2, schema 3, sealed" in capsys.readouterr().out

        newest = tmp_path / store.generations(quiet=True)[-1].file
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        newest.write_bytes(bytes(blob))

        reader = CheckpointStore(tmp_path)
        fresh = resnet_proxy(n_classes=4, channels=8, rng=5)
        assert reader.load_latest(_owners(fresh)).step == 2
        assert np.array_equal(_params(fresh), snaps[2])
        assert [ev.kind for ev in reader.abnormal_events()] == ["fallback", "quarantine"]

    def test_schema_5_is_refused_as_newer_than_this_build(self, tmp_path):
        model, *_ = _save(tmp_path / "c.npz")
        future = rewrite_archive(
            tmp_path / "c.npz",
            tmp_path / "future.npz",
            mutate=lambda arrays: arrays.update({"meta/schema_version": np.array(5)}),
        )
        before = _params(model)
        with pytest.raises(CheckpointError, match="schema version 5 is newer than this build"):
            load_checkpoint(future, _owners(model))
        assert np.array_equal(before, _params(model))


class TestRestoreReadsOnce:
    def test_load_latest_materialises_each_candidate_once(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        model = resnet_proxy(n_classes=4, channels=8, rng=0)
        for step in (1, 2):
            store.save(_owners(model), world_size=1, step=step)
        newest = store.generations(quiet=True)[-1]
        rewrite_archive(
            tmp_path / newest.file,
            mutate=lambda arrays: arrays.update({"meta/step": np.array(9)}),
            reseal=False,
        )
        vouch_for(store, newest)

        reads = []
        real = ckpt._read_all
        monkeypatch.setattr(ckpt, "_read_all", lambda path: reads.append(path.name) or real(path))
        reader = CheckpointStore(tmp_path)
        assert reader.load_latest(_owners(model)).step == 1
        assert reads == ["gen-00000002.npz", "gen-00000001.npz"]
        assert [ev.kind for ev in reader.events] == ["fallback", "quarantine", "verify_ok"]


def _write_members(path, rows, payload: bytes):
    """An archive whose index is whatever the test says it is."""
    index = rows if isinstance(rows, bytes) else json.dumps(rows).encode()
    np.savez(
        path,
        index=np.frombuffer(index, dtype=np.uint8),
        data=np.frombuffer(payload, dtype=np.uint8),
    )
    return path


class TestIndexValidation:
    PAYLOAD = np.arange(6, dtype="<f4").tobytes()  # 24 bytes

    def test_a_valid_index_reads(self, tmp_path):
        path = _write_members(tmp_path / "a.npz", [["k/x", "<f4", [2, 3], 0, 24]], self.PAYLOAD)
        assert np.array_equal(
            ckpt._read_all(path)["k/x"], np.arange(6, dtype=np.float32).reshape(2, 3)
        )

    @pytest.mark.parametrize(
        "row, why",
        [
            (["k/x", "<f4", [2, 3], 4, 24], "outside"),  # runs past the end
            (["k/x", "<f4", [2, 3], -4, 24], "outside"),
            (["k/x", "<f4", [2, 3], 0, 20], "length 20"),  # length != prod(shape)*itemsize
            (["k/x", "<f4", [2, 2], 0, 24], "length 24"),
            (["k/x", "<f8", [2, 3], 0, 24], "length 24"),
            (["k/x", "<f4", [1 << 62, 1 << 62], 0, 24], "length 24"),
            (["k/x", "O", [3], 0, 24], "not a plain NumPy dtype"),
            (["k/x", "<i4,<f4", [3], 0, 24], "not a plain NumPy dtype"),
            (["k/x", "(2,)<f4", [3], 0, 24], "not a plain NumPy dtype"),
            (["k/x", "<U0", [3], 0, 0], "not a plain NumPy dtype"),
            (["k/x", "no-such-dtype", [6], 0, 24], "not a plain NumPy dtype"),
            (["k/x", 4, [6], 0, 24], "not a plain NumPy dtype"),
            (["k/x", "<f4", [-6], 0, 24], "shape"),
            (["k/x", "<f4", 6, 0, 24], "shape"),
            (["k/x", "<f4", [6.0], 0, 24], "shape"),
            (["k/x", "<f4", [6], 0.0, 24], "offset"),
            (["k/x", "<f4", [6], True, 24], "offset"),
        ],
    )
    def test_a_bad_row_names_the_archive_and_the_key(self, tmp_path, row, why):
        path = _write_members(tmp_path / "bad.npz", [row], self.PAYLOAD)
        with pytest.raises(CheckpointError, match=why) as err:
            ckpt._read_all(path)
        assert "bad.npz" in str(err.value) and "'k/x'" in str(err.value)

    def test_a_key_named_twice_is_refused(self, tmp_path):
        rows = [["k/x", "<f4", [3], 0, 12], ["k/x", "<f4", [3], 12, 12]]
        path = _write_members(tmp_path / "bad.npz", rows, self.PAYLOAD)
        with pytest.raises(CheckpointError, match=r"bad\.npz.*names 'k/x' twice"):
            ckpt._read_all(path)

    @pytest.mark.parametrize(
        "rows",
        [b"\xff not json", b'{"k/x": 1}', [["k/x", "<f4", [6], 0]], [[3, "<f4", [6], 0, 24]], ["k/x"]],
    )
    def test_a_malformed_index_names_the_member(self, tmp_path, rows):
        path = _write_members(tmp_path / "bad.npz", rows, self.PAYLOAD)
        with pytest.raises(CheckpointError, match=r"bad\.npz.*'index'"):
            ckpt._read_all(path)

    def test_members_that_are_not_flat_bytes_are_refused(self, tmp_path):
        np.savez(tmp_path / "bad.npz", index=np.zeros(3), data=np.zeros(3, dtype=np.uint8))
        with pytest.raises(CheckpointError, match=r"bad\.npz.*'index'.*expected flat bytes"):
            ckpt._read_all(tmp_path / "bad.npz")

    @pytest.mark.parametrize("member, marker", [("index", b'"param/'), ("data", None)])
    def test_a_damaged_member_is_named(self, tmp_path, member, marker):
        model = Linear(3, 2, rng=0)
        path = save_checkpoint(
            tmp_path / "c.npz", _owners(model), world_size=1, step=0, hooks=None
        )
        blob = bytearray(path.read_bytes())
        at = blob.find(marker if marker else model.weight.data.tobytes())
        assert at > 0
        blob[at + 1] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=rf"c\.npz: corrupt checkpoint member '{member}'"):
            load_checkpoint(path, _owners(model))

    def test_a_hidden_member_does_not_read_as_an_older_archive(self, tmp_path):
        """One member alone is a damaged schema-4 archive, not an unsealed schema-1 one."""
        np.savez(tmp_path / "bad.npz", index=np.frombuffer(b"[]", dtype=np.uint8))
        with pytest.raises(CheckpointError, match="corrupt checkpoint member 'data'"):
            verify_checkpoint(tmp_path / "bad.npz")


class TestEveryBitAndEveryCut:
    """No single-bit flip and no truncation restores a wrong array."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        model = Linear(2, 2, rng=0)
        path = tmp_path_factory.mktemp("fuzz") / "c.npz"
        save_checkpoint(path, _owners(model), world_size=1, step=3, hooks=None)
        return path, path.read_bytes(), {n: p.data.copy() for n, p in model.named_parameters()}

    @staticmethod
    def _outcome(path, blob, want) -> str:
        path.write_bytes(blob)
        model = Linear(2, 2, rng=1)
        try:
            meta = load_checkpoint(path, _owners(model))
        except CheckpointError:
            return "refused"
        same = meta.get("step") == 3 and all(
            np.array_equal(want[n], p.data) for n, p in model.named_parameters()
        )
        return "identical" if same else "wrong"

    def test_every_single_bit_flip(self, archive):
        path, blob, want = archive
        with zipfile.ZipFile(path) as zf:  # where the two members' bytes sit
            bodies = []
            for info in zf.infolist():
                name_len, extra_len = np.frombuffer(blob, "<u2", 2, info.header_offset + 26)
                start = info.header_offset + 30 + int(name_len) + int(extra_len)
                bodies.append(range(start, start + info.file_size))
        survived = 0
        for at in range(len(blob)):
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[at] ^= 1 << bit
                outcome = self._outcome(path, bytes(damaged), want)
                assert outcome != "wrong", f"bit {bit} of byte {at} restored a wrong array"
                if outcome == "identical":
                    # Only zip padding (timestamps, version and attribute
                    # fields) may flip unnoticed, never a member's bytes.
                    assert not any(at in body for body in bodies), f"byte {at}"
                    survived += 1
        assert survived > 0  # the padding exists: the sweep did reach past the members

    def test_every_truncation_point(self, archive):
        path, blob, want = archive
        for keep in range(len(blob)):
            assert self._outcome(path, blob[:keep], want) == "refused", f"cut at {keep}"
