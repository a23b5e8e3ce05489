"""Sealed, versioned checkpoint store with verified fallback.

A :class:`CheckpointStore` owns one directory per job::

    <root>/
      MANIFEST.json          # sealed index of generations (CRC32 of body)
      gen-00000001.npz       # checkpoint generations, monotone numbers
      gen-00000002.npz
      quarantine/            # corrupt files moved aside, never deleted

Every ``save()`` appends a generation: the archive is written atomically
and sealed by :func:`repro.util.checkpoint.save_checkpoint`, then the
manifest — which records each generation's number, file name, training
step, byte size, and whole-file CRC32 — is rewritten atomically and
sealed by a CRC32 of its canonical JSON body.  ``load_latest()`` walks
the manifest newest-first and restores the newest generation that
passes *both* seals (file CRC against the manifest, content CRC inside
the archive); anything that fails is quarantined and the walk falls
back, so a torn or bit-rotten newest checkpoint degrades recovery by
one generation instead of killing the job.

The save sequence's injection points (:data:`STORE_SAVE_POINTS`) extend
the archive-level :data:`~repro.util.checkpoint.SAVE_POINTS` with the
manifest update and the post-seal at-rest window; the storage fault
plane (:mod:`repro.faults.storage`) drives them, which makes "crash at
any point during save" an enumerable sweep.  Crash-consistency
invariant: at *every* point, either the new generation is fully
committed (archive sealed on disk **and** listed in a sealed manifest)
or the previous committed state is untouched — ``load_latest`` after a
crash always restores a verified generation.

Every abnormal decision (fallback, quarantine, missing file, manifest
rebuild) is a typed :class:`StoreEvent`; the deterministic parts (kinds,
generation numbers, steps — never CRCs or byte offsets, which vary with
zip timestamps and the zlib build) feed telemetry counters and fleet
ledger manifests.  A healthy store emits
only ``save`` / ``verify_ok`` events and contributes nothing to the
ledger, keeping store-backed runs bit-identical to direct-checkpoint
runs.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.util.checkpoint import (
    SAVE_POINTS,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from repro.util.durable import replace_file

__all__ = [
    "CheckpointStore",
    "Generation",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "STORE_SAVE_POINTS",
    "StoreError",
    "StoreEvent",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_SCHEMA_VERSION = 1

#: The full, ordered injection-point sequence of one ``save()`` call:
#: the archive-level points, then the manifest update (same
#: tmp-write/replace shape), then ``sealed`` — the at-rest window after
#: the save is fully committed, where bit-rot faults strike
#: the just-written generation file.
STORE_SAVE_POINTS = SAVE_POINTS + (
    "manifest:begin",
    "manifest:tmp_written",
    "manifest:replaced",
    "sealed",
)

#: Event kinds that indicate the store had to work around damage.
#: Anything else (``save``, ``verify_ok``, ``retention``) is normal
#: operation and must not perturb run artifacts.
ABNORMAL_KINDS = frozenset({"fallback", "quarantine", "missing", "manifest_rebuilt"})


class StoreError(RuntimeError):
    """The store cannot produce a verified generation (or isn't a store)."""


@dataclass(frozen=True)
class Generation:
    """One committed checkpoint generation, as recorded in the manifest."""

    gen: int
    file: str
    step: int
    nbytes: int
    crc32: int

    def to_json(self) -> dict:
        return {
            "gen": self.gen,
            "file": self.file,
            "step": self.step,
            "nbytes": self.nbytes,
            "crc32": self.crc32,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Generation":
        return cls(
            gen=int(obj["gen"]),
            file=str(obj["file"]),
            step=int(obj["step"]),
            nbytes=int(obj["nbytes"]),
            crc32=int(obj["crc32"]),
        )


@dataclass(frozen=True)
class StoreEvent:
    """One durable-state decision, in the order it was made.

    ``kind`` is one of: ``save``, ``verify_ok``, ``fallback``,
    ``quarantine``, ``missing``, ``manifest_rebuilt``, ``retention``.
    ``detail`` carries only deterministic context (exception class names,
    file stems) — never CRC values or byte offsets, which depend on zip
    timestamps and, for schema <= 3 archives, the zlib build.
    """

    kind: str
    gen: int | None = None
    step: int | None = None
    detail: str = ""

    @property
    def abnormal(self) -> bool:
        return self.kind in ABNORMAL_KINDS


def file_crc32(path: Path) -> int:
    """Whole-file CRC32, streamed (generation files can be large)."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def manifest_text(generations: list[Generation]) -> str:
    """Canonical sealed manifest document: body + CRC32 seal of the body."""
    body = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generations": [g.to_json() for g in generations],
    }
    seal = zlib.crc32(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
    return json.dumps({"body": body, "seal": seal}, sort_keys=True, indent=1)


def parse_manifest(text: str) -> list[Generation]:
    """Parse + seal-check a manifest document; StoreError on any damage."""
    try:
        doc = json.loads(text)
        body = doc["body"]
        seal = int(doc["seal"])
    except (ValueError, TypeError, KeyError) as exc:
        raise StoreError(f"unreadable store manifest ({exc})") from exc
    body_text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    actual = zlib.crc32(body_text.encode()) & 0xFFFFFFFF
    if actual != seal:
        raise StoreError(
            f"store manifest seal mismatch (stored {seal:#010x}, actual {actual:#010x})"
        )
    if int(body.get("schema_version", 0)) != MANIFEST_SCHEMA_VERSION:
        raise StoreError(
            f"store manifest schema version {body.get('schema_version')!r} is not "
            f"{MANIFEST_SCHEMA_VERSION}"
        )
    try:
        gens = [Generation.from_json(g) for g in body["generations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed generation entry in store manifest ({exc})") from exc
    return sorted(gens, key=lambda g: g.gen)


def _gen_name(gen: int) -> str:
    return f"gen-{gen:08d}.npz"


def _is_gen_name(name: str) -> bool:
    return name.startswith("gen-") and name.endswith(".npz") and name[4:-4].isdigit()


class CheckpointStore:
    """Sealed multi-generation checkpoint store for one job.

    :attr:`keep` bounds retention (newest ``keep`` generations survive;
    older files are deleted only *after* the manifest no longer references
    them).  ``hooks_factory(save_index)`` — typically
    :meth:`repro.faults.storage.StorageFaultController.hooks_for` — maps
    the store's monotone save counter to an injection callback for that
    save sequence; ``None`` (or a factory returning ``None``) keeps the
    sequence fault-free.
    """

    #: Generations retained after each save.
    keep = 3

    def __init__(
        self,
        root: str | Path,
        *,
        hooks_factory: Callable[[int], Callable[[str, Path], None] | None] | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hooks_factory = hooks_factory
        #: Monotone count of save() calls on this instance — the save
        #: index storage fault entries are addressed by.
        self.save_index = 0
        self.events: list[StoreEvent] = []
        # The manifest text this store last wrote or parsed, and its generations.
        self._manifest: tuple[str, list[Generation]] = ("", [])

    # ------------------------------------------------------------------
    # events

    def _event(self, kind: str, *, gen: int | None = None, step: int | None = None,
               detail: str = "") -> StoreEvent:
        ev = StoreEvent(kind=kind, gen=gen, step=step, detail=detail)
        self.events.append(ev)
        return ev

    def summary(self) -> dict:
        """Deterministic event counts (for ledger manifests / reports)."""
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return {
            "generations": len(self.generations(quiet=True)),
            "saves": counts.get("save", 0),
            "fallbacks": counts.get("fallback", 0),
            "quarantined": counts.get("quarantine", 0) + counts.get("missing", 0),
            "repairs": counts.get("manifest_rebuilt", 0),
        }

    def abnormal_events(self) -> list[StoreEvent]:
        return [ev for ev in self.events if ev.abnormal]

    # ------------------------------------------------------------------
    # manifest

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def generations(self, *, quiet: bool = False) -> list[Generation]:
        """The committed generations, oldest-first.

        A missing manifest means an empty store.  A damaged manifest is
        rebuilt in memory from the verified generation files on disk
        (recorded as a ``manifest_rebuilt`` event unless ``quiet``) —
        the store trusts archives' own seals over a torn index.
        """
        try:
            text = self.manifest_path.read_text()
            if text != self._manifest[0]:
                self._manifest = (text, parse_manifest(text))
        except FileNotFoundError:
            return []
        except StoreError as exc:
            if not quiet:
                self._event("manifest_rebuilt", detail=type(exc).__name__)
            return self._scan_generations()
        return list(self._manifest[1])

    def _gen_files(self) -> list[Generation]:
        """The directory's generation files in name order, unverified
        (step, size and CRC zero): the one rule for what a generation
        file is."""
        return [
            Generation(gen=int(name[4:-4]), file=name, step=0, nbytes=0, crc32=0)
            for name in sorted(os.listdir(self.root))
            if _is_gen_name(name)
        ]

    def _verified(self, listed: Generation) -> Generation:
        """A listed generation file as its archive's seal vouches for it;
        raises :class:`CheckpointError` (or ``OSError``) if it does not."""
        path = self.root / listed.file
        meta = verify_checkpoint(path)
        return replace(listed, step=int(meta.get("step", 0)),
                       nbytes=path.stat().st_size, crc32=file_crc32(path))

    def _scan_generations(self) -> list[Generation]:
        """Rebuild the generation list from verified on-disk archives."""
        gens: list[Generation] = []
        for listed in self._gen_files():
            try:
                gens.append(self._verified(listed))
            except (CheckpointError, OSError):
                continue  # load_latest / fsck will quarantine it
        return sorted(gens, key=lambda g: g.gen)

    def _write_manifest(self, generations: list[Generation], hooks=None) -> None:
        generations = sorted(generations, key=lambda g: g.gen)
        text = manifest_text(generations)
        replace_file(self.manifest_path, text.encode(), hooks, "manifest")
        self._manifest = (text, generations)

    def _next_gen_number(self, gens: list[Generation]) -> int:
        """Next generation number: past the manifest *and* any on-disk file.

        A crash between archive replace and manifest replace leaves an
        orphan ``gen-N.npz`` the manifest doesn't know about; the next
        save must not reuse N, or the orphan's identity becomes
        ambiguous to fsck.
        """
        return max((g.gen for g in gens + self._gen_files()), default=0) + 1

    # ------------------------------------------------------------------
    # save / load

    def save(self, owners: dict, *, world_size: int, step: int) -> Generation:
        """Commit a new generation of ``owners`` (the mapping
        :func:`~repro.util.checkpoint.save_checkpoint` takes): sealed
        archive, then sealed manifest.

        Runs the full :data:`STORE_SAVE_POINTS` sequence under this
        save's injection hooks.  Retention trims the manifest to the
        newest ``keep`` generations before it is written; the trimmed
        files are deleted only afterwards, so a crash mid-retention
        leaves orphans (fsck sweeps them), never dangling references.
        """
        save_index = self.save_index
        self.save_index += 1
        hook = None
        if self.hooks_factory is not None:
            hook = self.hooks_factory(save_index)

        gens = self.generations()
        number = self._next_gen_number(gens)
        final = save_checkpoint(
            self.root / _gen_name(number), owners, world_size=world_size, step=step, hooks=hook
        )
        if hook is None:
            nbytes, crc = final.nbytes, final.crc32
        else:
            # A hook may have torn the file: record the bytes on disk.
            nbytes, crc = final.stat().st_size, file_crc32(final)
        entry = Generation(gen=number, file=final.name, step=int(step), nbytes=nbytes, crc32=crc)
        new_gens = gens + [entry]
        kept = new_gens[-self.keep :]
        trimmed = new_gens[: -self.keep] if len(new_gens) > self.keep else []
        self._write_manifest(kept, hook)
        for old in trimmed:
            (self.root / old.file).unlink(missing_ok=True)
            self._event("retention", gen=old.gen, step=old.step)
        self._event("save", gen=number, step=int(step))
        if hook is not None:
            # The at-rest window: the save is fully committed; bit-rot
            # faults scheduled for this save index strike now.
            hook("sealed", final)
        return entry

    def _check_file_seal(self, entry: Generation) -> Path:
        """The generation's path, once its bytes match the manifest's CRC."""
        path = self.root / entry.file
        if not path.exists():
            raise FileNotFoundError(f"{path}: generation file missing")
        actual = file_crc32(path)
        if actual != entry.crc32:
            raise CheckpointError(
                f"{path}: file CRC mismatch against store manifest "
                f"(manifest {entry.crc32:#010x}, actual {actual:#010x})"
            )
        return path

    def verify_generation(self, entry: Generation) -> dict:
        """Both seals for one generation: file CRC vs manifest, content CRC.

        Raises :class:`CheckpointError` (or ``FileNotFoundError``) on any
        mismatch; returns the archive meta on success.
        """
        return verify_checkpoint(self._check_file_seal(entry))

    def quarantine(self, entry: Generation, *, reason: str = "") -> Path | None:
        """Move a damaged generation file aside (never delete evidence)."""
        path = self.root / entry.file
        if not path.exists():
            self._event("missing", gen=entry.gen, step=entry.step, detail=reason)
            return None
        qdir = self.root / "quarantine"
        qdir.mkdir(exist_ok=True)
        dest = qdir / path.name
        n = 0
        while dest.exists():
            n += 1
            dest = qdir / f"{path.name}.{n}"
        shutil.move(str(path), str(dest))
        self._event("quarantine", gen=entry.gen, step=entry.step, detail=reason)
        return dest

    def load_latest(self, owners: dict) -> Generation | None:
        """Restore ``owners`` from the newest *verified* generation; fall
        back on damage.

        Walks the manifest newest-first.  Each candidate's file CRC is
        checked against the manifest, then
        :func:`~repro.util.checkpoint.load_checkpoint` materialises the
        archive once, checks its content seal on that one copy and
        restores every owner or none; a failure emits ``fallback``,
        quarantines the file, and tries the next-older generation.
        Returns the restored :class:`Generation` (its ``step`` tells the
        caller where to resume), ``None`` for an empty store, and raises
        :class:`StoreError` when generations exist but none verifies.
        """
        gens = self.generations()
        if not gens:
            return None
        survivors = list(gens)
        for entry in reversed(gens):
            try:
                load_checkpoint(self._check_file_seal(entry), owners)
            except (FileNotFoundError, CheckpointError) as exc:
                self._event(
                    "fallback", gen=entry.gen, step=entry.step, detail=type(exc).__name__
                )
                self.quarantine(entry, reason=type(exc).__name__)
                survivors.remove(entry)
                continue
            self._event("verify_ok", gen=entry.gen, step=entry.step)
            if survivors != gens:
                # Damage was found: persist the pruned manifest so the
                # next reader doesn't re-walk known-bad generations.
                self._write_manifest(survivors)
            return entry
        raise StoreError(
            f"{self.root}: no generation passed verification "
            f"({len(gens)} candidate(s), all quarantined)"
        )
