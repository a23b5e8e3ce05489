"""Offline scan/repair of durable state: stores, archives, ledgers.

``repro fsck <path>`` lands here.  :func:`fsck_path` dispatches on what
the path actually is — a :class:`~repro.store.CheckpointStore`
directory, a bare ``.npz`` checkpoint archive, a ``.ledger``/``.jsonl``
run ledger, or a directory of any mix of those — and returns one
:class:`FsckVerdict` per object examined.

fsck reads and writes through the owners of the state: the generation
files are the ones :class:`~repro.store.CheckpointStore` lists (any other
``gen-*.npz`` is no generation and is left alone), a repaired manifest is
the store's own tmp write plus ``os.replace``, and a ledger's verdict is
:func:`repro.obsv.ledger.fsck_ledger`'s, the parse ``load_ledger`` uses.

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
  summary re-synthesized, original kept at ``<name>.pre-fsck``); a
  ledger of a missing or newer schema version is ``unrepairable``.

Verdict statuses: ``ok``, ``corrupt``, ``missing``, ``orphan``,
``quarantined``, ``adopted``, ``rebuilt``, ``repaired``,
``unrepairable``, ``swept``, ``stray``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.store.store import MANIFEST_NAME, CheckpointStore, StoreError, parse_manifest
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
    return path.is_dir() and (
        (path / MANIFEST_NAME).exists() or bool(CheckpointStore(path)._gen_files())
    )


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
    status = result.status
    if status == "repaired" and not repair:
        status = "corrupt"  # repairable, not yet repaired
    return FsckVerdict(str(path), "ledger", status, "; ".join(result.problems))


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
    store = CheckpointStore(root)  # event/quarantine machinery; no writes yet
    on_disk = store._gen_files()
    verdicts: list[FsckVerdict] = []

    def note(path, kind: str, status: str, detail: str = "") -> None:
        verdicts.append(FsckVerdict(str(path), kind, status, detail))

    manifest = store.manifest_path
    entries, damaged = [], False
    if not manifest.exists():
        damaged = bool(on_disk)
        if damaged:
            note(manifest, "manifest", "missing", "generation files exist but no manifest")
        else:
            note(manifest, "manifest", "ok", "empty store")
    else:
        try:
            entries = parse_manifest(manifest.read_text())
            note(manifest, "manifest", "ok")
        except StoreError as exc:
            damaged = True
            note(manifest, "manifest", "rebuilt" if repair else "corrupt", str(exc))

    # ``changed`` only matters to a repair: every problem below changes the manifest.
    survivors, changed = [], damaged
    for entry in entries:
        path = root / entry.file
        try:
            meta = store.verify_generation(entry)
        except (FileNotFoundError, CheckpointError) as exc:
            changed = True
            if repair:
                dest = store.quarantine(entry, reason="fsck")
                status = "quarantined" if dest is not None else "missing"
            else:
                status = "corrupt" if path.exists() else "missing"
            note(path, "generation", status, f"gen {entry.gen}: {exc}")
        else:
            survivors.append(entry)
            note(path, "generation", "ok",
                 f"gen {entry.gen}, step {entry.step}, {_seal_detail(meta)}")

    known = {e.file for e in entries}
    for listed in on_disk:
        if listed.file in known:
            continue
        changed = True
        path = root / listed.file
        try:
            entry = store._verified(listed)
        except CheckpointError as exc:
            if repair:
                store.quarantine(listed, reason="fsck-orphan")
            note(path, "orphan", "quarantined" if repair else "corrupt", str(exc))
        else:
            if repair:
                survivors.append(entry)
                note(path, "orphan", "adopted",
                     f"verified; adopted as gen {entry.gen}, step {entry.step}")
            else:
                note(path, "orphan", "orphan",
                     "verified but not in manifest (crash before manifest update?)")

    for path in sorted(root.iterdir()):
        if _is_tmp_name(path):
            if repair:
                path.unlink()
                note(path, "tmp", "swept")
            else:
                note(path, "tmp", "stray", "leftover writer temp file")

    if repair and changed:
        store._write_manifest(survivors)
        if damaged:
            detail = f"rebuilt from {len(survivors)} verified generation(s)"
        else:
            detail = f"rewritten with {len(survivors)} surviving generation(s)"
        note(manifest, "manifest", "repaired", detail)
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
