"""Offline scan/repair of durable state: stores, archives, ledgers.

``repro fsck <path>`` lands here.  :func:`fsck_path` dispatches on what
the path actually is — a :class:`~repro.store.CheckpointStore`
directory, a bare ``.npz`` checkpoint archive, a ``.ledger``/``.jsonl``
run ledger, or a directory of any mix of those — and returns one
:class:`FsckVerdict` per object examined.

Scan mode (the default) only reads.  Repair mode additionally:

* quarantines generation files that fail either seal (file CRC against
  the manifest, content CRC inside the archive);
* adopts verified **orphans** — generation files a crash left on disk
  after ``os.replace`` but before the manifest update — into the
  manifest, so a crash between those two points costs nothing;
* rebuilds a torn or garbage manifest from the verified files on disk;
* sweeps stray writer temp files;
* repairs crash-truncated ledgers via
  :func:`repro.obsv.ledger.fsck_ledger` (torn tail dropped, final
  summary re-synthesized, original kept at ``<name>.pre-fsck``).

Verdict statuses: ``ok``, ``corrupt``, ``missing``, ``orphan``,
``quarantined``, ``adopted``, ``rebuilt``, ``repaired``,
``unrepairable``, ``swept``, ``stray``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.store.store import (
    MANIFEST_NAME,
    CheckpointStore,
    Generation,
    StoreError,
    file_crc32,
    manifest_text,
    parse_manifest,
)
from repro.util.checkpoint import CheckpointError, verify_checkpoint

__all__ = ["FsckVerdict", "fsck_ledger_file", "fsck_path", "fsck_store", "is_store"]

#: Statuses that mean the object needed (or still needs) attention.
PROBLEM_STATUSES = frozenset(
    {"corrupt", "missing", "orphan", "quarantined", "adopted", "rebuilt",
     "repaired", "unrepairable", "swept", "stray"}
)


@dataclass(frozen=True)
class FsckVerdict:
    """One examined object's verdict.

    ``kind`` says what the object is (``manifest``, ``generation``,
    ``orphan``, ``tmp``, ``archive``, ``ledger``); ``status`` what fsck
    concluded (see module docstring); ``detail`` the human-readable why.
    """

    path: str
    kind: str
    status: str
    detail: str = ""

    @property
    def problem(self) -> bool:
        return self.status in PROBLEM_STATUSES

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "status": self.status,
            "detail": self.detail,
        }


def is_store(path: str | Path) -> bool:
    """Does ``path`` look like a CheckpointStore directory?"""
    path = Path(path)
    if not path.is_dir():
        return False
    if (path / MANIFEST_NAME).exists():
        return True
    return any(path.glob("gen-*.npz"))


def _is_ledger_name(path: Path) -> bool:
    return path.suffix in (".ledger", ".jsonl")


def _is_tmp_name(path: Path) -> bool:
    return path.name.startswith(".") and ".tmp." in path.name


def fsck_archive(path: str | Path) -> FsckVerdict:
    """Verify one bare checkpoint archive's content seal."""
    path = Path(path)
    try:
        meta = verify_checkpoint(path)
    except FileNotFoundError:
        return FsckVerdict(str(path), "archive", "missing")
    except CheckpointError as exc:
        return FsckVerdict(str(path), "archive", "corrupt", str(exc))
    return FsckVerdict(str(path), "archive", "ok", _seal_detail(meta))


def fsck_ledger_file(path: str | Path, *, repair: bool = False) -> FsckVerdict:
    """Verify (and optionally repair) one run-ledger file."""
    from repro.obsv.ledger import fsck_ledger

    path = Path(path)
    result = fsck_ledger(path, repair=repair)
    if result.status == "ok":
        return FsckVerdict(str(path), "ledger", "ok")
    detail = "; ".join(result.problems)
    if result.status == "unrepairable":
        return FsckVerdict(str(path), "ledger", "unrepairable", detail)
    status = "repaired" if repair else "corrupt"
    return FsckVerdict(str(path), "ledger", status, detail)


def _seal_detail(meta: dict) -> str:
    """How an archive that verified was checked, for an ``ok`` verdict."""
    sealed = "sealed" if meta.get("sealed") else "pre-seal, structural check only"
    return f"schema {meta['schema_version']}, {sealed}"


def fsck_store(root: str | Path, *, repair: bool = False) -> list[FsckVerdict]:
    """Scan (and optionally repair) one CheckpointStore directory.

    Examines the manifest, every generation it references, every
    on-disk generation file it does *not* reference (orphans), and any
    stray writer temp files.  With ``repair=True`` the store is left in
    a state where ``load_latest`` succeeds iff any verified generation
    exists: bad files quarantined, verified orphans adopted, manifest
    rewritten to exactly the surviving set.
    """
    root = Path(root)
    verdicts: list[FsckVerdict] = []
    store = CheckpointStore(root)  # event/quarantine machinery; no writes yet
    manifest_path = root / MANIFEST_NAME

    manifest_damaged = False
    entries: list[Generation] = []
    if not manifest_path.exists():
        if any(root.glob("gen-*.npz")):
            manifest_damaged = True
            verdicts.append(
                FsckVerdict(str(manifest_path), "manifest", "missing",
                            "generation files exist but no manifest")
            )
        else:
            verdicts.append(
                FsckVerdict(str(manifest_path), "manifest", "ok", "empty store")
            )
    else:
        try:
            entries = parse_manifest(manifest_path.read_text())
            verdicts.append(FsckVerdict(str(manifest_path), "manifest", "ok"))
        except StoreError as exc:
            manifest_damaged = True
            verdicts.append(
                FsckVerdict(str(manifest_path), "manifest",
                            "rebuilt" if repair else "corrupt", str(exc))
            )

    survivors: list[Generation] = []
    changed = manifest_damaged
    for entry in entries:
        path = root / entry.file
        try:
            meta = store.verify_generation(entry)
        except (FileNotFoundError, CheckpointError) as exc:
            failure = str(exc)
        else:
            survivors.append(entry)
            verdicts.append(
                FsckVerdict(str(path), "generation", "ok",
                            f"gen {entry.gen}, step {entry.step}, {_seal_detail(meta)}")
            )
            continue
        changed = True
        if repair:
            dest = store.quarantine(entry, reason="fsck")
            status = "quarantined" if dest is not None else "missing"
        else:
            status = "missing" if not path.exists() else "corrupt"
        verdicts.append(FsckVerdict(str(path), "generation", status,
                                    f"gen {entry.gen}: {failure}"))

    known = {e.file for e in entries}
    for path in sorted(root.glob("gen-*.npz")):
        if path.name in known:
            continue
        try:
            meta = verify_checkpoint(path)
        except CheckpointError as exc:
            changed = True
            if repair:
                number = int(path.name[4:-4])
                store.quarantine(
                    Generation(gen=number, file=path.name, step=0, nbytes=0, crc32=0),
                    reason="fsck-orphan",
                )
                status = "quarantined"
            else:
                status = "corrupt"
            verdicts.append(FsckVerdict(str(path), "orphan", status, str(exc)))
            continue
        entry = Generation(
            gen=int(path.name[4:-4]),
            file=path.name,
            step=int(meta.get("step", 0)),
            nbytes=path.stat().st_size,
            crc32=file_crc32(path),
        )
        if repair:
            survivors.append(entry)
            changed = True
            verdicts.append(
                FsckVerdict(str(path), "orphan", "adopted",
                            f"verified; adopted as gen {entry.gen}, step {entry.step}")
            )
        else:
            verdicts.append(
                FsckVerdict(str(path), "orphan", "orphan",
                            "verified but not in manifest (crash before manifest update?)")
            )

    for path in sorted(root.iterdir()):
        if _is_tmp_name(path):
            if repair:
                path.unlink()
                verdicts.append(FsckVerdict(str(path), "tmp", "swept"))
            else:
                verdicts.append(FsckVerdict(str(path), "tmp", "stray",
                                            "leftover writer temp file"))

    if repair and changed:
        survivors = sorted(survivors, key=lambda g: g.gen)
        manifest_path.write_text(manifest_text(survivors))
        if manifest_damaged:
            detail = f"rebuilt from {len(survivors)} verified generation(s)"
        else:
            detail = f"rewritten with {len(survivors)} surviving generation(s)"
        verdicts.append(FsckVerdict(str(manifest_path), "manifest", "repaired", detail))
    return verdicts


def fsck_path(path: str | Path, *, repair: bool = False) -> list[FsckVerdict]:
    """Dispatch fsck over whatever ``path`` is; see module docstring."""
    path = Path(path)
    if is_store(path):
        return fsck_store(path, repair=repair)
    if path.is_dir():
        verdicts: list[FsckVerdict] = []
        for child in sorted(path.iterdir()):
            if is_store(child):
                verdicts.extend(fsck_store(child, repair=repair))
            elif child.suffix == ".npz" and child.is_file():
                verdicts.append(fsck_archive(child))
            elif _is_ledger_name(child) and child.is_file():
                verdicts.append(fsck_ledger_file(child, repair=repair))
        if not verdicts:
            verdicts.append(FsckVerdict(str(path), "archive", "ok",
                                        "nothing fsck-able found"))
        return verdicts
    if not path.exists():
        return [FsckVerdict(str(path), "archive", "missing")]
    if path.suffix == ".npz":
        return [fsck_archive(path)]
    return [fsck_ledger_file(path, repair=repair)]
