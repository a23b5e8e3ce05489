"""Durable state: sealed, versioned checkpoint store + ``repro fsck``.

The paper's headline runs are long (BERT pre-training takes 54 hours in
the paper's testbed), and the repo's recovery story — exact-resume
checkpoints, crash-restart fleets — is only as strong as the disk under
it.  This package makes durable state a *verified* resource instead of
a trusted one:

* :class:`CheckpointStore` — a per-job directory of monotonically
  numbered checkpoint generations with a CRC-sealed manifest.  Every
  archive is sealed on write (content CRC inside, file CRC in the
  manifest) and verified on load; a corrupt or torn newest generation
  falls back to the newest *verified* one, quarantining the bad file.
  Retention keeps the newest ``keep`` generations.
* the **storage fault plane** (:mod:`repro.faults.storage`) — seeded
  bit-rot, torn-write, and crash-at-injection-point faults
  threaded through the enumerated save sequence
  (:data:`STORE_SAVE_POINTS`), so "kill at any moment during save" is a
  deterministic sweep, not a hope.
* :mod:`repro.store.fsck` — offline scan/repair of stores and obsv run
  ledgers, surfaced as the ``repro fsck`` CLI: per-generation verdicts,
  quarantine of bad files, adoption of verified orphans, and repair of
  crash-truncated ledger tails.  It keeps no rules of its own: it lists,
  verifies and rewrites a store through :class:`CheckpointStore` and
  judges a ledger by :func:`repro.obsv.ledger.fsck_ledger`, the parse
  ``load_ledger`` accepts ledgers by.

Every verify/fallback/quarantine/repair decision is a typed
:class:`StoreEvent`, kept on the store (``CheckpointStore.events``,
counted by ``summary()``) and, in fleet runs, folded into the job's
ledger manifest, where ``store_*`` metric specs gate them in
``repro diff``.  A healthy store
emits no abnormal events, so store-backed runs stay bit-identical to
the pre-store layout.
"""

from repro.store.fsck import FsckVerdict, fsck_ledger_file, fsck_path, fsck_store, is_store
from repro.store.store import (
    MANIFEST_NAME,
    STORE_SAVE_POINTS,
    CheckpointStore,
    Generation,
    StoreError,
    StoreEvent,
)

__all__ = [
    "CheckpointStore",
    "FsckVerdict",
    "Generation",
    "MANIFEST_NAME",
    "STORE_SAVE_POINTS",
    "StoreError",
    "StoreEvent",
    "fsck_ledger_file",
    "fsck_path",
    "fsck_store",
    "is_store",
]
