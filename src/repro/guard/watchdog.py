"""Collective watchdog: deadline tracking on in-flight collectives.

Real collective libraries ship a watchdog thread (NCCL's
``TORCH_NCCL_HEARTBEAT_TIMEOUT_SEC``, Gloo's timeout) because a rank
that stalls inside an allreduce otherwise hangs the whole job silently.
The simulator's analogue attaches to :class:`~repro.runtime.engine.
StreamRuntime`: at wait time, after the fault controller has drawn the
straggler/jitter extras for a collective, the watchdog compares the
stretched completion against a deadline on the *simulated* clock.

On a deadline breach it retries the collective through the existing
fault-composition path — charging a capped exponential backoff to every
rank's clock, then re-drawing the extras (a re-issued collective meets
the fault environment afresh: deterministic stragglers stall it again,
transient jitter usually clears).  When retries are exhausted it raises
:class:`WatchdogTimeoutError` carrying the runtime's per-rank pending-op
report, turning a silent stall into the diagnostic a real watchdog
dumps before aborting the job.
"""

from __future__ import annotations

from repro.runtime.errors import RuntimeSchedulerError
from repro.telemetry import SIM_TRACK, get_metrics, get_tracer

__all__ = ["CollectiveWatchdog", "WatchdogTimeoutError"]

#: Simulated seconds charged before the first retry; each further retry
#: doubles it, up to the cap.
_BACKOFF_BASE = 1e-4
_BACKOFF_CAP = 0.05


class WatchdogTimeoutError(RuntimeSchedulerError):
    """A collective exceeded its deadline after all watchdog retries.

    ``report`` holds the per-rank pending-op dump captured at abort
    time; it is also embedded in the message.
    """

    def __init__(self, message: str, report: str = ""):
        super().__init__(f"{message}\n{report}" if report else message)
        self.report = report


class CollectiveWatchdog:
    """Deadline + retry policy for :class:`StreamRuntime` collectives.

    Installed by assigning to ``runtime.watchdog``; the runtime calls
    :meth:`review` once per waited handle that drew fault extras.  With
    no extras (the healthy path) the runtime never calls in, so an armed
    watchdog on a fault-free run is bit-identical to no watchdog.
    """

    def __init__(
        self,
        *,
        deadline_seconds: float,
        max_retries: int = 2,
    ):
        if deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be > 0, got {deadline_seconds}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.deadline_seconds = deadline_seconds
        self.max_retries = max_retries
        self.retries = 0
        self.timeouts = 0
        #: Chronological {kind, op, seq, ...} records for reporting.
        self.events: list[dict] = []

    def _record(self, kind: str, runtime, handle, **detail) -> None:
        event = {"kind": kind, "op": handle.op, "seq": handle.seq, **detail}
        self.events.append(event)
        get_metrics().counter(f"guard.watchdog_{kind}", op=handle.op).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                f"watchdog_{kind}",
                "guard_event",
                0.0,
                start=runtime.cluster.time,
                track=SIM_TRACK,
                **detail,
                op=handle.op,
            )

    def review(self, runtime, handle, extras: dict[int, float]) -> dict[int, float]:
        """Judge a drawn fault-extras map against the deadline.

        Returns the extras to charge (possibly re-drawn after retries);
        raises :class:`WatchdogTimeoutError` when the collective cannot
        complete within the deadline after ``max_retries`` re-issues.
        """
        cluster = runtime.cluster
        stall = max(extras.values(), default=0.0)
        if handle.seconds + stall <= self.deadline_seconds:
            return extras
        rank_ids = [r.rank for r in cluster.ranks]
        for attempt in range(self.max_retries):
            backoff = min(_BACKOFF_BASE * 2.0**attempt, _BACKOFF_CAP)
            self.retries += 1
            self._record(
                "retry", runtime, handle, attempt=attempt + 1, backoff_seconds=backoff
            )
            cluster.advance_all(backoff, "watchdog_backoff")
            # Re-issue through the same fault-composition path: the retry
            # meets the fault environment afresh.
            extras = cluster.faults.collective_extras(
                handle.op, handle.seconds, rank_ids
            )
            stall = max(extras.values(), default=0.0)
            if handle.seconds + stall <= self.deadline_seconds:
                return extras
        self.timeouts += 1
        self._record("timeout", runtime, handle, stall_seconds=stall)
        worst = max(extras, key=lambda rank: extras[rank]) if extras else -1
        raise WatchdogTimeoutError(
            f"collective {handle.describe()} exceeded watchdog deadline "
            f"{self.deadline_seconds * 1e6:.1f}us after {self.max_retries} "
            f"retries (worst stall {stall * 1e6:.1f}us on rank {worst}); "
            "per-rank pending operations:",
            runtime.pending_report(),
        )
