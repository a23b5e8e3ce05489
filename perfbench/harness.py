"""Runs one workload in this process: set-up, timed rounds, metrics.

A workload's timed run is a closed loop (one operation in flight) of
*rounds* of identical work — a pass over the tensor sample, a training
step, a fleet run — repeated until ``--seconds`` have passed.  The
first ``fixed_rounds`` rounds are the same work on every commit and
machine; the deterministic outputs are read after exactly that many, so
they repeat bit for bit however many more rounds the clock allows.

With tracing on, blocks of ``_BLOCK`` untraced and traced rounds
alternate, so slow drift of the work (a training run's gradients change
as it learns) lands on both sides of ``tracing.overhead_ratio`` alike.

Host times that become end-to-end metrics are scaled to nominal host
speed by :mod:`perfbench.calibrate`; per-layer shares are ratios of raw
times of the same rounds and need no scaling.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

from perfbench import layers, stats
from perfbench.calibrate import HostClock
from perfbench.inputs import digest
from perfbench.tracing import Tracer

__all__ = ["Round", "RunResult", "END_TO_END", "run_workload"]

#: Set-ups per run; ``setup_s`` is their median plus the one import.
_SETUP_REPEATS = 3
#: Rounds per untraced/traced block of a traced run.  Even, so that a
#: trainer refreshing its eigenbases every second step does so equally
#: often in both kinds of block.
_BLOCK = 2
_MIN_ROUNDS = 4

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json declares them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("compression_ratio", "x"),
)


@dataclass
class Round:
    """One round of timed work."""

    ops: int
    busy_s: float
    failed: int = 0
    #: Named parts of ``busy_s`` a workload times itself (compress_s ...).
    parts: dict[str, float] = field(default_factory=dict)
    #: Host-speed factor of the round, set by the harness
    #: (:mod:`perfbench.calibrate`); ``busy_s * speed`` is calibrated time.
    speed: float = 1.0


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    exact: dict
    inputs_sha256: str
    outputs_sha256: str
    info: dict
    spans: list


def _op_ms(rounds: list[Round], *, raw: bool = False) -> list[float]:
    return [r.busy_s * (1.0 if raw else r.speed) * 1e3 / r.ops for r in rounds]


def _set_up(workload, seed: int, quick: bool, workdir, clock: HostClock):
    """Set up ``_SETUP_REPEATS`` times; keep the last state for the timed run."""
    seconds = []
    state = None
    for _ in range(_SETUP_REPEATS):
        if state is not None:
            workload.finish(state)
        clock.factor()
        start = time.perf_counter()
        inputs = workload.make_inputs(seed, quick=quick)
        state = workload.build(inputs, workdir)
        for _ in range(workload.warmup_rounds):
            workload.round(state)
        elapsed = time.perf_counter() - start
        seconds.append(elapsed * clock.factor())
    return inputs, state, seconds


def _timed_loop(workload, state, *, seconds: float, fixed: int, tracer, clock: HostClock):
    """Rounds until the time is up; returns (untraced, traced, exact,
    peak RSS at the end of the fixed work, crashed)."""
    plain: list[Round] = []
    traced: list[Round] = []
    exact = peak_rss_mb = None
    trace = tracer is not None
    loop_start = time.perf_counter()
    while True:
        n = len(plain) + len(traced)
        # A traced run may stop only where an untraced block would
        # start, so both kinds of block have run equally often.
        may_stop = n >= max(fixed, _MIN_ROUNDS) and (not trace or n % (2 * _BLOCK) == 0)
        if may_stop and time.perf_counter() - loop_start >= seconds:
            return plain, traced, exact, peak_rss_mb, 0
        tracing_now = trace and (n // _BLOCK) % 2 == 1
        if tracing_now:
            tracer.install()
        try:
            done = workload.round(state)
        except Exception:  # the run must still report: a crash is a failed operation
            traceback.print_exc(file=sys.stderr)
            return plain, traced, exact, peak_rss_mb, 1
        finally:
            if tracing_now:
                tracer.uninstall()
        done.speed = clock.factor()
        (traced if tracing_now else plain).append(done)
        if n + 1 == fixed:
            exact = workload.exact(state)
            # The high-water mark up to the end of the fixed work: how
            # many more rounds the clock allows must not move it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(samples: list[float]) -> tuple[int, float, float]:
    """(sample count, tail percentile, its value)."""
    pct = stats.tail_percentile(len(samples))
    return len(samples), pct, stats.percentile(samples, pct)


def _end_to_end(plain, setup_s: float, peak_rss_mb: float, exact: dict, info: dict) -> dict:
    samples = _op_ms(plain)
    info.update(
        zip(("op_samples", "op_tail_pct", "op_tail_ms"), _tail(samples)),
        raw_op_ms_p50=stats.median(_op_ms(plain, raw=True)),
        raw_ops_per_s=sum(r.ops for r in plain) / sum(r.busy_s for r in plain),
        host_speed_p50=stats.median([r.speed for r in plain]),
    )
    return {
        "setup_s": setup_s,
        "op_ms_p50": stats.median(samples),
        "ops_per_s": sum(r.ops for r in plain) / sum(r.busy_s * r.speed for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "compression_ratio": exact["compression_ratio"],
    }


def _per_layer(plain, traced, tracer: Tracer, info: dict) -> dict:
    samples = _op_ms(traced)
    traced_s = sum(r.busy_s for r in traced)
    metrics = dict.fromkeys((name for name, _, _ in layers.PER_LAYER), 0.0)
    metrics.update(layers.derive(tracer, traced_s, sum(r.ops for r in traced)))
    metrics.update(zip(("op.samples", "op.tail_pct", "op.tail_ms"), _tail(samples)))
    metrics["tracing.overhead_ratio"] = stats.median(samples) / stats.median(_op_ms(plain))
    info["layer_self_share"] = {
        layer: seconds / traced_s
        for layer, seconds in sorted(tracer.layer_self_seconds().items())
    }
    return metrics


def run_workload(
    workload, *, seed: int, seconds: float, trace: bool, quick: bool, workdir, import_s: float
) -> RunResult:
    clock = HostClock()
    inputs, state, setups = _set_up(workload, seed, quick, workdir, clock)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.register(tracer)  # after set-up: the program's modules are loaded
    plain, traced, exact, peak_rss_mb, crashed = _timed_loop(
        workload,
        state,
        seconds=seconds,
        fixed=workload.quick_fixed_rounds if quick else workload.fixed_rounds,
        tracer=tracer,
        clock=clock,
    )
    if exact is None:
        raise RuntimeError(f"{workload.name}: crashed before its fixed work was done")

    rounds = plain + traced
    attempted = sum(r.ops for r in rounds) + crashed
    failed = sum(r.failed for r in rounds) + crashed + workload.finish(state)
    info: dict = {"rounds": len(rounds), "setup_runs_s": setups, "import_s": import_s}
    info.update(workload.describe(inputs, plain))

    if trace:
        metrics = _per_layer(plain, traced, tracer, info)
        metrics.update(workload.layer_exact(exact))
        side, side_failed = workload.side_runs(state, inputs, workdir, quick=quick)
        metrics.update(side)
        attempted += side_failed
        failed += side_failed
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = _end_to_end(plain, import_s + stats.median(setups), peak_rss_mb, exact, info)
        units = dict(END_TO_END)

    return RunResult(
        workload=workload.name,
        seed=seed,
        trace=trace,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        exact=exact,
        inputs_sha256=digest(inputs),
        outputs_sha256=digest(exact),
        info=info,
        spans=tracer.spans if tracer is not None else [],
    )
