"""Fault injection, retry/recovery, and graceful degradation.

The subsystem has three layers, all inert unless a fault plan is given:

* **injection** — :class:`FaultPlan` (a seeded, deterministic schedule
  of time-plane and data-plane faults) interpreted at run time by
  :class:`FaultController`, which ``SimCluster`` consults on every
  collective;
* **tolerance** — CRC32 payload seals (:mod:`repro.faults.checksum`),
  the detect→retransmit :class:`ReliableChannel` with capped exponential
  backoff, compressor degradation hooks, and elastic continuation in the
  trainers (world shrink + ownership reassignment + checkpoint restore);
* **observability** — every fault, retry, degrade, and recovery emits
  telemetry counters (``faults.injected`` / ``faults.detected`` /
  ``faults.recovered`` ...) and sim-track spans, and lands in the
  controller's materialised event log.

The chaos scenarios are :mod:`repro.scenarios` entries; the harness behind
``repro chaos`` lives in :mod:`repro.faults.chaos` (imported lazily by the
CLI and the chaos bench to keep this package's import graph acyclic).
"""

from repro.faults.checksum import CHECKSUM_BYTES, is_sealed, payload_crc, seal, verify
from repro.faults.controller import FaultController
from repro.faults.injection import corrupt_payload, flip_bits
from repro.faults.plan import (
    BitRot,
    DroppedContribution,
    FailureEvent,
    FaultPlan,
    Jitter,
    JobCrash,
    LinkDegradation,
    PayloadCorruption,
    RankFailure,
    SaveCrash,
    Straggler,
    TornWrite,
)
from repro.faults.recovery import ReliableChannel, TransferReport
from repro.faults.storage import StorageCrash, StorageFaultController

__all__ = [
    "BitRot",
    "CHECKSUM_BYTES",
    "DroppedContribution",
    "FailureEvent",
    "FaultController",
    "FaultPlan",
    "Jitter",
    "JobCrash",
    "LinkDegradation",
    "PayloadCorruption",
    "RankFailure",
    "ReliableChannel",
    "SaveCrash",
    "StorageCrash",
    "StorageFaultController",
    "Straggler",
    "TornWrite",
    "TransferReport",
    "corrupt_payload",
    "flip_bits",
    "is_sealed",
    "payload_crc",
    "seal",
    "verify",
]
