"""Fault tolerance: checksum-verified transfers with retry/backoff.

:class:`ReliableChannel` wraps a ``SimCluster``'s object-moving
collectives with the detect→retransmit protocol real collective
libraries layer over lossy links:

1. the payload is sealed with a CRC32 (:mod:`repro.faults.checksum`),
   charged at ``CHECKSUM_BYTES`` of extra wire;
2. every receiver verifies its copy; any mismatch is a *detected*
   corruption (``faults.detected`` counter);
3. the transfer is retried after a capped exponential backoff, each
   retry paying the full modelled alpha-beta cost again plus the backoff
   on every rank's clock;
4. after ``max_retries`` failed attempts the transfer is declared
   unrecoverable and the caller must degrade (e.g. fall back to a
   lossless resend of the raw tensor).

The returned payload is always the root's own sealed copy — corruption
is a receive-side phenomenon — so callers decode known-good bytes once
a transfer reports success.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.compression.base import CompressedTensor
from repro.faults.checksum import CHECKSUM_BYTES, seal, verify
from repro.telemetry import SIM_TRACK, get_metrics, get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.cluster import SimCluster

__all__ = ["TransferReport", "ReliableChannel"]

#: Simulated seconds charged before the first retransmit; each further
#: retransmit doubles it, up to the cap.
_BACKOFF_BASE = 1e-4
_BACKOFF_CAP = 2e-3


@dataclass
class TransferReport:
    """Outcome of one reliable transfer."""

    attempts: int = 0
    #: Receiver-side checksum mismatches observed across all attempts.
    detected: int = 0
    #: Seconds of backoff added to every rank's clock.
    backoff_seconds: float = 0.0
    #: True when the payload never arrived intact within the retry budget.
    unrecoverable: bool = False

    @property
    def wire_bytes_factor(self) -> int:
        """How many times the payload actually crossed the wire."""
        return max(self.attempts, 1)


class ReliableChannel:
    """Checksummed broadcast with capped-exponential-backoff retransmits."""

    #: Retransmits after the first attempt before a transfer is unrecoverable.
    max_retries = 3

    def __init__(self, cluster: "SimCluster"):
        self.cluster = cluster

    def broadcast(
        self,
        ct: CompressedTensor,
        *,
        root: int,
        category: str = "broadcast",
    ) -> tuple[CompressedTensor, TransferReport]:
        """Broadcast a sealed blob until every rank holds an intact copy."""
        sealed = seal(ct)
        nbytes = ct.nbytes + CHECKSUM_BYTES
        report = TransferReport()
        m = get_metrics()
        tracer = get_tracer()
        received: list[object] = [sealed]
        for attempt in range(self.max_retries + 1):
            report.attempts += 1
            received = self.cluster.broadcast(
                sealed, root=root, nbytes=nbytes, category=category
            )
            bad = [
                i
                for i, obj in enumerate(received)
                if isinstance(obj, CompressedTensor) and not verify(obj)
            ]
            if not bad:
                if attempt and m.enabled:
                    m.counter("faults.recovered", kind="retransmit").inc()
                return sealed, report
            report.detected += len(bad)
            if m.enabled:
                m.counter("faults.detected", kind="corruption").inc(len(bad))
            if tracer.enabled:
                for i in bad:
                    rank = self.cluster.ranks[i]
                    tracer.add_span(
                        "corruption_detected",
                        "fault_event",
                        0.0,
                        start=rank.clock.now,
                        track=SIM_TRACK,
                        rank=rank.rank,
                        attempt=attempt,
                    )
            if attempt == self.max_retries:
                break
            backoff = min(_BACKOFF_BASE * (2.0**attempt), _BACKOFF_CAP)
            report.backoff_seconds += backoff
            self.cluster.advance_all(backoff, "fault_backoff")
            if m.enabled:
                m.counter("faults.retransmits").inc()
        report.unrecoverable = True
        if m.enabled:
            m.counter("faults.unrecoverable", kind="corruption").inc()
        return sealed, report
