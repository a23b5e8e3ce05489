"""Storage fault plane: deterministic disk faults on the save path.

The cluster's fault planes (time/data/availability) cover the wire and
the workers; this module covers the *disk*.  A
:class:`StorageFaultController` interprets the storage entries of a
:class:`~repro.faults.plan.FaultPlan` — bit rot, torn writes, and
crash-at-injection-point — against the enumerated injection points the
durable-state layer exposes (:data:`repro.util.checkpoint.SAVE_POINTS`
extended by :data:`repro.store.STORE_SAVE_POINTS`).

Faults are addressed by **save index**: the Nth time the owning store
runs its save sequence, the entries scheduled for ``save_index=N``
fire, each exactly once.  Byte positions for bit rot are drawn from an
RNG derived from ``(plan seed, save index)``, so the same plan always
damages the same bytes — corruption scenarios are replayable tests,
not flaky hopes.

The controller is passive until threaded into a store; a plan whose
only entries are storage faults is empty *for the cluster*
(:meth:`FaultPlan.is_empty_for_cluster`), keeping wire behavior
bit-identical to a faultless run.
"""

from __future__ import annotations

from pathlib import Path

from repro.faults.plan import BitRot, FaultPlan, SaveCrash, TornWrite
from repro.util.seeding import spawn_rng

__all__ = ["StorageCrash", "StorageFaultController"]

#: Spawn-key base for per-save-index corruption streams.
_STORAGE_STREAM = 9100


class StorageCrash(RuntimeError):
    """The simulated process died at an injection point of a save.

    Carries the save index and the injection point so the recovery test
    (and the fleet scheduler, which treats it like a job crash) can
    assert exactly where the save was cut down.
    """

    def __init__(self, save_index: int, point: str):
        super().__init__(f"simulated crash at {point!r} during save #{save_index}")
        self.save_index = save_index
        self.point = point


def _flip_bytes(path: Path, rng, n_bytes: int) -> list[int]:
    """XOR ``n_bytes`` bytes of ``path`` at seeded positions (never a no-op)."""
    blob = bytearray(path.read_bytes())
    if not blob:
        return []
    positions = sorted(
        int(p) for p in rng.choice(len(blob), size=min(n_bytes, len(blob)), replace=False)
    )
    for pos in positions:
        mask = int(rng.integers(1, 256))  # nonzero: the byte always changes
        blob[pos] ^= mask
    path.write_bytes(bytes(blob))
    return positions


def _truncate(path: Path, keep_fraction: float) -> int:
    """Cut ``path`` down to its leading fraction; returns the new size."""
    size = path.stat().st_size
    keep = int(size * keep_fraction)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return keep


class StorageFaultController:
    """Interprets a plan's storage entries at the store's save points.

    ``hooks_for(save_index)`` returns the ``hooks(point, path)`` callable
    the store threads through one full save sequence.  Every applied
    fault is appended to :attr:`log` as ``(save_index, kind, detail)``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.entries = list(plan.storage)
        #: Entry positions that already fired (each fault fires once).
        self._fired: set[int] = set()
        self.log: list[tuple[int, str, dict]] = []

    def is_empty(self) -> bool:
        return not self.entries

    def hooks_for(self, save_index: int):
        """The injection callback for one save sequence (or None if inert)."""
        if not any(e.save_index == save_index for e in self.entries):
            return None
        rng = spawn_rng(self.plan.seed, _STORAGE_STREAM + save_index)

        def hook(point: str, path: Path) -> None:
            for i, entry in enumerate(self.entries):
                if i in self._fired or entry.save_index != save_index:
                    continue
                if isinstance(entry, SaveCrash) and entry.point == point:
                    self._fired.add(i)
                    self.log.append((save_index, "save_crash", {"point": point}))
                    raise StorageCrash(save_index, point)
                if isinstance(entry, TornWrite) and point == "save:tmp_written":
                    self._fired.add(i)
                    kept = _truncate(Path(path), entry.keep_fraction)
                    self.log.append(
                        (save_index, "torn_write", {"kept_bytes": kept, "file": str(path)})
                    )
                elif isinstance(entry, BitRot) and point == "sealed":
                    self._fired.add(i)
                    positions = _flip_bytes(Path(path), rng, entry.n_bytes)
                    self.log.append(
                        (save_index, "bit_rot", {"positions": positions, "file": str(path)})
                    )

        return hook
