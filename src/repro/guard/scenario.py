"""Guard demonstration scenario: chaos run with and without the guard.

Trains the same distributed K-FAC + COMPSO workload three times with
identical seeds:

* **clean** — no faults, no guard: the reference trajectory;
* **guarded** — the registered run itself (``repro.scenarios``'s
  ``guard`` entry): a seeded fault plan (compressed-payload bit flips
  plus a straggler stall) with the guard on;
* **unguarded** — same fault plan, no guard.

Both faulted runs decline the checksummed
:class:`~repro.faults.recovery.ReliableChannel`
(``reliable_channel=False``), modelling the common deployment where the
collective library does not verify payloads.  Corruption therefore
reaches ``decompress`` directly: the unguarded run either crashes on a
mangled blob or silently applies garbage and diverges, while the
guarded run detects the damage (decode failures, contract violations,
scrubbed payloads, loss spikes), trips the compression circuit breaker,
rides out the fault window lossless, and re-encompresses once the
half-open probe sees consecutive clean iterations.

The result object carries the full remediation timeline and breaker
transition history — the report surfaced by ``repro guard`` and
asserted on by the guard benchmark and pinned whole in tier-1.

Imported lazily (CLI / bench), never from ``repro.guard`` hot paths.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

from repro import scenarios

__all__ = ["GuardRunResult", "run_guard_scenario"]


@dataclass
class GuardRunResult:
    """Guarded vs unguarded outcome under the same seeded fault plan."""

    world_size: int
    iterations: int
    clean_loss: float
    guarded_loss: float
    unguarded_loss: float
    unguarded_raised: bool
    unguarded_error: str
    guarded_completed: bool
    clean_sim_time: float
    guarded_sim_time: float
    verdicts: dict[str, int] = field(default_factory=dict)
    timeline: list[dict] = field(default_factory=list)
    breaker_transitions: list[list] = field(default_factory=list)
    breaker_trips: int = 0
    #: Breaker tripped and later re-closed (half-open probe passed).
    breaker_recovered: bool = field(init=False, default=False)
    counters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.breaker_recovered = self.breaker_trips > 0 and any(
            frm == "half_open" and to == "closed" for _, frm, to in self.breaker_transitions
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        if self.unguarded_raised:
            unguarded = f"raised ({self.unguarded_error})"
        elif not math.isfinite(self.unguarded_loss):
            unguarded = f"diverged (loss={self.unguarded_loss})"
        else:
            unguarded = f"loss {self.unguarded_loss:.4f}"
        lines = [
            f"world size         : {self.world_size}",
            f"iterations         : {self.iterations} "
            f"(guarded completed: {self.guarded_completed})",
            f"clean loss         : {self.clean_loss:.4f}",
            f"guarded loss       : {self.guarded_loss:.4f}",
            f"unguarded          : {unguarded}",
            f"breaker            : {self.breaker_trips} trip(s), "
            f"recovered: {self.breaker_recovered}",
        ]
        if self.verdicts:
            lines.append("verdicts:")
            lines.extend(f"  {k:24s} {v}" for k, v in sorted(self.verdicts.items()))
        if self.timeline:
            lines.append("remediation timeline:")
            for entry in self.timeline:
                lines.append(
                    f"  iter {entry['iteration']:>3}  "
                    f"{entry['verdict']:<20} -> {entry['action']}"
                )
        if self.breaker_transitions:
            lines.append("breaker transitions:")
            lines.extend(
                f"  iter {it:>3}  {frm} -> {to}"
                for it, frm, to in self.breaker_transitions
            )
        return "\n".join(lines)


def run_guard_scenario(s: scenarios.Scenario) -> GuardRunResult:
    """Run the scenario (the guarded run under its fault plan), its
    unguarded twin, and a clean reference."""
    clean = scenarios.measure(replace(s, faults=None, guard=False, checkpoint_every=0))
    guarded = scenarios.measure(s)

    unguarded_raised = False
    unguarded_error = ""
    try:
        unguarded = scenarios.measure(replace(s, guard=False, checkpoint_every=0))
        unguarded_loss = unguarded["loss"]
    except Exception as exc:  # noqa: BLE001 — the crash IS the measurement
        unguarded_raised = True
        unguarded_error = f"{type(exc).__name__}: {exc}"
        unguarded_loss = float("nan")

    report = guarded["trainer"].guard.report()
    return GuardRunResult(
        world_size=s.world,
        iterations=s.iterations,
        clean_loss=clean["loss"],
        guarded_loss=guarded["loss"],
        unguarded_loss=unguarded_loss,
        unguarded_raised=unguarded_raised,
        unguarded_error=unguarded_error,
        guarded_completed=guarded["steps_done"] == s.iterations,
        clean_sim_time=clean["sim_time"],
        guarded_sim_time=guarded["sim_time"],
        verdicts=report["verdicts"],
        timeline=report["remediations"],
        breaker_transitions=report["breaker"]["transitions"],
        breaker_trips=report["breaker"]["trips"],
        counters=guarded["counters"],
    )
