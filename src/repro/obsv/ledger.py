"""The run ledger: one canonical, versioned artifact per training run.

A ledger is a JSONL file with three kinds of lines, in order:

1. one **manifest** record — ``{"manifest": {...}}`` — describing the
   run's configuration: schema version, trainer kind, cluster shape and
   fabric, compressor, fault-plan digest, guard/runtime settings, seed;
2. one **step** record per training iteration, folding together every
   observability source that previously landed in separate outputs:
   trainer scalars (loss/lr/compression), the active
   :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot, tracer
   span aggregates (per-category count/total/p50/p95/p99 duration
   digests), the runtime's hidden/exposed overlap accounting, and any
   ``guard.*`` remediation events that fired during the step;
3. one **final** record — ``{"final": {...}}`` — with end-of-run
   summary scalars and the guard's full report.

Determinism contract: every line except the manifest's ``created_unix``
timestamp is a pure function of ``(seed, config)`` — span digests cover
only the simulated-time tracks (``sim``/``device``) precisely so
wall-clock noise never enters the body.  :meth:`RunLedger.body_text`
excludes the timestamp, which is what the determinism tests and
:func:`RunLedger.digest` hash.

Trainers write ledgers through the ``obsv=LedgerConfig(...)`` kwarg;
``obsv=None`` (the default) is bit-identical to a build without this
subsystem — the writer only ever *reads* trainer state and never
consumes randomness.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.durable import replace_file

__all__ = [
    "SCHEMA_VERSION",
    "LedgerConfig",
    "LedgerError",
    "LedgerFsck",
    "LedgerWriter",
    "RunLedger",
    "describe_compressor",
    "fault_plan_digest",
    "final_from_steps",
    "fsck_ledger",
    "load_ledger",
]

#: Ledger schema version.  Bump on any breaking change to record shapes;
#: readers accept equal versions and refuse newer ones (see DESIGN.md).
SCHEMA_VERSION = 1

_SCALARS = (bool, int, float, str)

#: Tracer tracks digested into step records: simulated time only, so the
#: wall-clock ``host`` track never reaches the body.
_SPAN_TRACKS = ("sim", "device")


class LedgerError(RuntimeError):
    """Malformed ledger file or misuse of the writer."""


def _scalarize(value):
    """JSON-safe scalar for manifest fields (numpy scalars included)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, _SCALARS):
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except (ValueError, TypeError):
            return None
    return None


def describe_compressor(compressor) -> dict | None:
    """JSON-safe description of a compressor: class, name, scalar params.

    Wrapped compressors (error feedback, adaptive schedules) describe
    their ``inner`` recursively so the manifest records the whole stack.
    """
    if compressor is None:
        return None
    out: dict = {
        "class": type(compressor).__name__,
        "name": compressor.name,
    }
    params = {}
    for key, value in sorted(vars(compressor).items()):
        if key.startswith("_") or key in ("name", "inner"):
            continue
        scalar = _scalarize(value)
        if scalar is not None or value is None:
            params[key] = scalar
    if params:
        out["params"] = params
    if compressor.inner is not None:
        out["inner"] = describe_compressor(compressor.inner)
    return out


def fault_plan_digest(plan) -> str | None:
    """Stable hex digest of a :class:`~repro.faults.plan.FaultPlan`.

    The digest covers the plan's seed and its full human-readable
    schedule (:meth:`FaultPlan.describe` renders every entry), so two
    runs share a digest exactly when they share a fault schedule.
    """
    if plan is None:
        return None
    payload = f"seed={plan.seed}\n{plan.describe()}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class LedgerConfig:
    """Configuration for a trainer-written run ledger.

    The writer always folds the per-step metrics snapshot and the
    per-category span digests of the simulated-time tracks into step
    records.
    """

    path: str | Path
    #: Free-form annotation stored in the manifest.
    note: str = ""

    def build(self, trainer) -> "LedgerWriter":
        return LedgerWriter(self, trainer)


def _digest(durations: list[float]) -> dict:
    """count/total/p50/p95/p99 digest of a duration list (nearest rank)."""
    ordered = sorted(durations)
    n = len(ordered)

    def pct(q: float) -> float:
        rank = max(int(-(-q * n // 100)), 1)
        return ordered[rank - 1]

    return {
        "count": n,
        "total": sum(ordered),
        "p50": pct(50.0),
        "p95": pct(95.0),
        "p99": pct(99.0),
    }


#: The collaborators a ledger folds besides the runtime, in the order the
#: digest hashes their keys: (trainer attribute, step key).  Each answers
#: ``describe()`` (its manifest section), ``take_step_record()`` and
#: ``report()`` (its final section), and its manifest and final keys are
#: its attribute's name; a ``None`` record or report leaves its key out.
_SECTIONS = (
    ("guard", "guard_events"),
    ("autotune", "autotune_events"),
    ("xray", "xray"),
)


class LedgerWriter:
    """Buffers one run's records and writes the ledger file on close.

    The writer is passive: trainers push step scalars into
    :meth:`record_step`, and the writer pulls everything else (metrics,
    spans, overlap accounting, the collaborators' records) from the
    trainer it was built for.  Buffering in memory keeps the on-disk
    artifact atomic — a crashed run leaves no half-written ledger behind.
    """

    def __init__(self, config: LedgerConfig, trainer):
        self.path = Path(config.path)
        cluster = self._cluster = trainer.cluster
        runtime = self._runtime = trainer.runtime
        self._compressor = trainer.compressor
        self._sections = [
            (name, step_key, collaborator)
            for name, step_key in _SECTIONS
            if (collaborator := getattr(trainer, name)) is not None
        ]
        plan = cluster.faults.plan if cluster.faults is not None else None
        self._manifest: dict = {
            "schema_version": SCHEMA_VERSION,
            "created_unix": time.time(),
            "note": config.note,
            "kind": "kfac",  # the one trainer that writes a ledger
            "cluster": {
                "n_nodes": cluster.n_nodes,
                "gpus_per_node": cluster.gpus_per_node,
                "world_size": cluster.world_size,
                "fabric": cluster.network.name,
            },
            "fault_plan": fault_plan_digest(plan),
            "compressor": describe_compressor(trainer.compressor),
        }
        if trainer.factor_compressor is not None:
            self._manifest["factor_compressor"] = describe_compressor(trainer.factor_compressor)
        if runtime is not None:
            self._manifest["runtime"] = {
                "overlap": runtime.overlap,
                "n_comm_streams": runtime.n_comm_streams,
            }
        for name, _, collaborator in self._sections:
            self._manifest[name] = collaborator.describe()
        self._steps: list[dict] = []
        self._closed = False
        # Cursor into the tracer's append-only span stream.
        self._span_cursor = 0

    def update_manifest(self, **fields) -> None:
        """Merge run-level fields (seed, iterations, ...) into the manifest."""
        if self._closed:
            raise LedgerError(f"{self.path}: ledger already closed")
        for key, value in fields.items():
            self._manifest[key] = _scalarize(value) if not isinstance(value, dict) else value

    # -- per-step capture ------------------------------------------------------

    def _capture_spans(self) -> dict | None:
        from repro.telemetry import get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return None
        spans = tracer.spans()
        fresh = spans[self._span_cursor :]
        self._span_cursor = len(spans)
        out: dict[str, dict] = {}
        for track in _SPAN_TRACKS:
            per_cat: dict[str, list[float]] = {}
            for s in fresh:
                if s.track == track:
                    per_cat.setdefault(s.category, []).append(s.duration)
            if per_cat:
                out[track] = {cat: _digest(d) for cat, d in sorted(per_cat.items())}
        return out or None

    def _capture_metrics(self) -> list | None:
        from repro.telemetry import get_metrics

        m = get_metrics()
        if not m.enabled:
            return None
        return m.snapshot()

    def _capture_overlap(self) -> dict | None:
        rt = self._runtime
        if rt is None:
            return None
        return {
            "hidden": rt.hidden_comm_seconds(),
            "exposed": rt.exposed_comm_seconds(),
            "hidden_fraction": rt.hidden_fraction(),
            "per_category": rt.overlap_stats(),
        }

    def _capture_bounds(self) -> dict | None:
        compressor = self._compressor
        bounds = None if compressor is None else compressor.bounds
        if bounds is None:
            return None
        return {"eb_f": bounds.eb_f, "eb_q": bounds.eb_q}

    def record_step(
        self,
        step: int,
        *,
        loss: float,
        lr: float | None = None,
        wire_bytes: float | None = None,
        dense_bytes: float | None = None,
        layers: list | None = None,
        **extra,
    ) -> dict:
        """Fold one iteration's observability into a step record.

        ``layers`` is an optional list of ``[layer, wire_bytes,
        dense_bytes]`` triples (the per-layer compression trajectory the
        analytics layer reconstructs).  Extra keyword scalars are stored
        verbatim.
        """
        if self._closed:
            raise LedgerError(f"{self.path}: ledger already closed")
        record: dict = {"step": int(step), "loss": float(loss)}
        if lr is not None:
            record["lr"] = float(lr)
        if wire_bytes is not None and dense_bytes is not None:
            record["wire_bytes"] = float(wire_bytes)
            record["dense_bytes"] = float(dense_bytes)
            record["cr"] = float(dense_bytes) / max(float(wire_bytes), 1.0)
        if layers:
            record["layers"] = [[int(i), float(w), float(d)] for i, w, d in layers]
        record["sim_time"] = self._cluster.time
        record["world_size"] = self._cluster.world_size
        bounds = self._capture_bounds()
        if bounds is not None:
            record["bounds"] = bounds
        overlap = self._capture_overlap()
        if overlap is not None:
            record["overlap"] = overlap
        for _, step_key, collaborator in self._sections:
            section = collaborator.take_step_record()
            if section is not None:
                record[step_key] = section
        spans = self._capture_spans()
        if spans is not None:
            record["spans"] = spans
        metrics = self._capture_metrics()
        if metrics is not None:
            record["metrics"] = metrics
        for key, value in extra.items():
            record[key] = _scalarize(value)
        self._steps.append(record)
        return record

    # -- finalisation ----------------------------------------------------------

    def _final_record(self, final_metric) -> dict:
        final = final_from_steps(self._steps)
        if final_metric is not None:
            final["final_metric"] = _scalarize(final_metric)
        overlap = self._capture_overlap()
        if overlap is not None:
            final["overlap"] = overlap
        for name, _, collaborator in self._sections:
            report = collaborator.report()
            if report is not None:
                final[name] = report
        return final

    def close(self, *, final_metric=None) -> Path:
        """Write the buffered ledger to disk (idempotent on re-close)."""
        if self._closed:
            return self.path
        self._closed = True
        ledger = RunLedger(self._manifest, self._steps, self._final_record(final_metric))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        replace_file(self.path, ledger.text().encode(), None, "ledger")
        return self.path


def final_from_steps(steps: list[dict]) -> dict:
    """The deterministic core of a final record, derived from step records.

    Shared by :class:`LedgerWriter` (normal close) and
    :func:`fsck_ledger` (synthesising a final summary for a
    crash-truncated ledger) so both paths agree byte-for-byte on the
    derivable fields.
    """
    losses = [r["loss"] for r in steps if "loss" in r]
    crs = [r["cr"] for r in steps if "cr" in r]
    final: dict = {
        "steps": len(steps),
        "final_loss": losses[-1] if losses else None,
        "mean_cr": sum(crs) / len(crs) if crs else None,
        "total_wire_bytes": sum(r.get("wire_bytes", 0.0) for r in steps),
        "total_dense_bytes": sum(r.get("dense_bytes", 0.0) for r in steps),
    }
    if steps and "sim_time" in steps[-1]:
        final["sim_time"] = steps[-1]["sim_time"]
        final["world_size"] = steps[-1].get("world_size")
    return final


# -- reading -------------------------------------------------------------------


@dataclass
class RunLedger:
    """A parsed ledger: manifest + step records + final summary."""

    manifest: dict
    steps: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    path: Path | None = None

    def text(self, manifest: dict | None = None) -> str:
        """The ledger's JSONL file text, with ``manifest`` in place of
        :attr:`manifest` when given."""
        lines = [json.dumps({"manifest": self.manifest if manifest is None else manifest})]
        lines.extend(json.dumps(r) for r in self.steps)
        lines.append(json.dumps({"final": self.final}))
        return "\n".join(lines) + "\n"

    def body_text(self) -> str:
        """Canonical body: every line, manifest timestamp excluded.

        Two runs with the same seed and configuration produce identical
        body text — this is the determinism contract the tests pin.
        """
        return self.text({k: v for k, v in self.manifest.items() if k != "created_unix"})

    def digest(self) -> str:
        """SHA-256 over :meth:`body_text` (volatile fields excluded)."""
        return hashlib.sha256(self.body_text().encode()).hexdigest()


def load_ledger(path: str | Path) -> RunLedger:
    """A ledger written by :class:`LedgerWriter`, parsed by
    :func:`fsck_ledger`; :class:`LedgerError` unless fsck finds it ``ok``."""
    result = fsck_ledger(path)
    if result.status != "ok":
        raise LedgerError(f"{path}: {'; '.join(result.problems)}")
    return result.ledger


# -- fsck ----------------------------------------------------------------------


@dataclass
class LedgerFsck:
    """Verdict of :func:`fsck_ledger` on one ledger file.

    ``status`` is ``"ok"`` (parses as a complete ledger), ``"repaired"``
    (damage confined to a crash-truncated tail — the repaired ledger is
    in :attr:`ledger`, and written back when ``repair=True``), or
    ``"unrepairable"`` (damage beyond a tail truncation: mid-file
    corruption, missing manifest, a missing or newer schema version).
    The synthesized final record is marked ``"repaired": true`` so
    downstream gating can tell a reconstructed summary from a written one.
    """

    path: Path
    status: str
    problems: list[str] = field(default_factory=list)
    synthesized_final: bool = False
    ledger: RunLedger | None = None


def fsck_ledger(path: str | Path, *, repair: bool = False) -> LedgerFsck:
    """Detect (and optionally repair) a crash-truncated run ledger.

    A process killed mid-run leaves a JSONL file whose damage is
    confined to the tail: a torn trailing line and/or a missing final
    record.  Both are repairable — the torn line is dropped and the
    final summary is re-derived from the surviving steps via
    :func:`final_from_steps`.  Anything else (unparseable record in the
    middle, first record not a manifest) is not crash truncation and is
    reported ``unrepairable`` rather than guessed at, as is a manifest
    whose ``schema_version`` is missing or newer than :data:`SCHEMA_VERSION`.

    With ``repair=True`` a repaired ledger is written back atomically
    (the damaged original is kept at ``<name>.pre-fsck``), after which
    :func:`load_ledger` — and thus ``repro report`` / ``repro diff`` —
    accepts the file.  This is the one parse of a ledger file: ``load_ledger``
    accepts exactly what it finds ``ok``.
    """
    path = Path(path)
    out = LedgerFsck(path=path, status="ok")

    def unrepairable(problem: str) -> LedgerFsck:
        out.status = "unrepairable"
        out.problems.append(problem)
        return out

    try:
        text = path.read_text()
    except OSError as exc:
        return unrepairable(f"unreadable: {exc}")
    raw_lines = [ln for ln in text.splitlines() if ln.strip()]
    records: list[dict] = []
    for i, line in enumerate(raw_lines):
        try:
            records.append(json.loads(line))
        except ValueError:
            if i == len(raw_lines) - 1:
                out.problems.append("torn trailing record dropped")
            else:
                return unrepairable(
                    f"unparseable record at line {i + 1} of {len(raw_lines)} — "
                    f"mid-file corruption, not a crash-truncated tail"
                )
    if not records or not isinstance(records[0], dict) or "manifest" not in records[0]:
        return unrepairable("first record is not a manifest")
    manifest = records[0]["manifest"]
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if not isinstance(version, int):
        return unrepairable(f"manifest has no integer schema_version ({version!r})")
    if version > SCHEMA_VERSION:
        return unrepairable(f"schema_version {version} is newer than supported {SCHEMA_VERSION}")
    body = records[1:]
    final = None
    if body and isinstance(body[-1], dict) and "final" in body[-1]:
        final = body[-1]["final"]
        body = body[:-1]
    steps = []
    for r in body:
        if isinstance(r, dict) and "step" in r:
            steps.append(r)
        else:
            out.problems.append("non-step record dropped")
    if final is None:
        final = final_from_steps(steps)
        final["repaired"] = True
        out.synthesized_final = True
        out.problems.append("final summary missing — synthesized from steps")
    out.ledger = RunLedger(manifest=manifest, steps=steps, final=final, path=path)
    if out.problems:
        out.status = "repaired"
        if repair:
            backup = path.with_name(path.name + ".pre-fsck")
            backup.write_text(text)
            replace_file(path, out.ledger.text().encode(), None, "ledger")
    return out
