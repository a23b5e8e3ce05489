"""``kfac_train``: the whole-run number a user of ``repro record`` sees.

``DistributedKfacTrainer`` on ``SimCluster(1, 4)``, ``resnet_proxy`` of
32 channels on 16x16 synthetic images, batch 64, configured as ``repro
record`` configures it: COMPSO compressor, overlapped ``StreamRuntime``,
``GuardConfig``, a ledger on disk, inside ``telemetry.session()``.
Forward/backward, the codec and the K-FAC math each hold a large share
of the step, so no single layer can hide and a codec speed-up shows at
about a third of its size.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import inputs as gen
from perfbench import stats
from perfbench.calibrate import HostClock
from perfbench.harness import Round

__all__ = ["KfacTrainWorkload"]

_EB = 4e-3
_SIDE_STEPS = 20
#: Guard verdicts that mean an operation's output was wrong.
_BAD_VERDICTS = ("contract_violation", "decode_failure", "nonfinite_payload")


@dataclass(frozen=True)
class _Size:
    n: int
    n_classes: int
    image: int
    channels: int
    batch: int


_FULL = _Size(n=2048, n_classes=10, image=16, channels=32, batch=64)
_QUICK = _Size(n=256, n_classes=5, image=8, channels=8, batch=32)
#: High enough that the loss is still falling at the end of a run.
_NOISE = 4.0


@dataclass
class _State:
    trainer: object
    batches: object
    batch: int
    ledger: Path | None
    stack: ExitStack


def _build_trainer(inputs, *, world=4, compress=True, observers=None, xray=False):
    """``observers`` is the ledger path of the full stack (runtime is
    always on; guard, ledger and telemetry come and go together)."""
    from repro.core import CompsoCompressor
    from repro.data.synthetic import ImageDataset
    from repro.distributed import SimCluster
    from repro.guard.guard import GuardConfig
    from repro.kfac_dist import DistributedKfacTrainer
    from repro.models import resnet_proxy
    from repro.obsv import LedgerConfig
    from repro.runtime import ComputeModel, StreamRuntime
    from repro.train import ClassificationTask

    size = inputs["size"]
    task = ClassificationTask(ImageDataset(inputs["x"], inputs["y"], size.n_classes))
    cluster = SimCluster(1, world, seed=inputs["cluster_seed"])
    runtime = StreamRuntime(
        cluster, overlap=True, n_comm_streams=2, compute=ComputeModel(train_flops=5e7)
    )
    return DistributedKfacTrainer(
        resnet_proxy(n_classes=size.n_classes, channels=size.channels, rng=inputs["model_seed"]),
        task,
        cluster,
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(_EB, _EB, seed=inputs["sr_seed"]) if compress else None,
        runtime=runtime,
        guard=GuardConfig() if observers else None,
        obsv=LedgerConfig(observers, note="perfbench kfac_train") if observers else None,
        xray=True if xray else None,
        reliable_channel=False,
    )


class KfacTrainWorkload:
    name = "kfac_train"
    warmup_rounds = 2
    fixed_rounds = 40
    quick_fixed_rounds = 4

    def make_inputs(self, seed: int, *, quick: bool):
        size = _QUICK if quick else _FULL
        x, y = gen.image_task(
            seed, n=size.n, n_classes=size.n_classes, size=size.image, noise=_NOISE
        )
        seeds = gen.rng_for(seed, "kfac-seeds").integers(2**31 - 1, size=3)
        return {
            "size": size,
            "x": x,
            "y": y,
            "model_seed": int(seeds[0]),
            "cluster_seed": int(seeds[1]),
            "sr_seed": int(seeds[2]),
            "batch_seed": seed,
        }

    def _batches(self, inputs):
        return gen.batch_stream(inputs["batch_seed"], inputs["size"].n, inputs["size"].batch)

    def build(self, inputs, workdir) -> _State:
        from repro import telemetry

        ledger = Path(workdir) / f"kfac-{time.monotonic_ns()}.ledger"
        stack = ExitStack()
        stack.enter_context(telemetry.session())
        trainer = _build_trainer(inputs, observers=ledger)
        trainer.obsv.update_manifest(seed=inputs["batch_seed"], batch_size=inputs["size"].batch)
        return _State(trainer, self._batches(inputs), inputs["size"].batch, ledger, stack)

    def round(self, state: _State) -> Round:
        idx = next(state.batches)
        t0 = time.perf_counter()
        loss = state.trainer.step(idx)
        busy = time.perf_counter() - t0
        return Round(ops=1, busy_s=busy, failed=int(not math.isfinite(loss)))

    def exact(self, state: _State) -> dict:
        tr = state.trainer
        steps = tr.t
        return {
            "steps": steps,
            "compression_ratio": sum(tr.bytes_original) / sum(tr.bytes_on_wire),
            "wire_bytes": float(sum(tr.bytes_on_wire)),
            "sim_time_s": tr.cluster.time,
            "tail_loss": float(np.mean(tr.history.losses[-10:])),
            "hidden_fraction": tr.runtime.hidden_fraction(),
            "exposed_comm_s_per_step": tr.runtime.exposed_comm_seconds() / steps,
        }

    def layer_exact(self, exact: dict) -> dict:
        return {
            "sim.time_s": exact["sim_time_s"],
            "train.tail_loss": exact["tail_loss"],
            "runtime.hidden_fraction": exact["hidden_fraction"],
            "runtime.exposed_comm_s_per_step": exact["exposed_comm_s_per_step"],
        }

    def describe(self, inputs, rounds: list[Round]) -> dict:
        busy = sum(r.busy_s for r in rounds)
        return {"samples_per_s": len(rounds) * inputs["size"].batch / busy}

    def finish(self, state: _State) -> int:
        """Close the ledger and the telemetry session; the ledger must
        load and hold one record per step taken."""
        from repro.obsv import load_ledger

        tr = state.trainer
        tr.obsv.close(final_metric=tr.history.final_metric())
        state.stack.close()
        failed = sum(tr.guard.verdict_counts.get(v, 0) for v in _BAD_VERDICTS)
        failed += len(load_ledger(state.ledger).steps) != tr.t
        state.ledger.unlink()
        return failed

    # -- traced-run extras ----------------------------------------------------

    def _side_step_ms(self, inputs, **config) -> float:
        """Median calibrated step time of a fresh trainer built with ``config``."""
        trainer = _build_trainer(inputs, **config)
        batches = self._batches(inputs)
        clock = HostClock()
        samples = []
        for _ in range(self.warmup_rounds + _SIDE_STEPS):
            idx = next(batches)
            t0 = time.perf_counter()
            trainer.step(idx)
            elapsed = time.perf_counter() - t0
            samples.append(elapsed * clock.factor() * 1e3)
        samples = samples[self.warmup_rounds :]
        if config.get("observers"):
            trainer.obsv.close()
            Path(config["observers"]).unlink()
        return stats.median(samples)

    def side_runs(self, state: _State, inputs, workdir, *, quick: bool):
        """Twenty-step side runs from the same start: what each observer
        costs, and what a single uncompressed worker would take."""
        from repro import telemetry

        ledger = Path(workdir) / "side.ledger"
        with telemetry.session():
            full = self._side_step_ms(inputs, observers=ledger)
            xray = self._side_step_ms(inputs, observers=ledger, xray=True)
        bare = self._side_step_ms(inputs)
        single = self._side_step_ms(inputs, world=1, compress=False)
        return {
            "observers.overhead_ratio": full / bare,
            "xray.overhead_ratio": xray / full,
            "baseline.single_worker_step_ms": single,
            "tracer.span_us": _tracer_span_us(),
        }, 0


def _tracer_span_us(n: int = 20000) -> float:
    """Cost of one telemetry span with a session on, over the null tracer."""
    from repro import telemetry
    from repro.telemetry import get_tracer

    def loop() -> float:
        tracer = get_tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("probe", "probe"):
                pass
        return (time.perf_counter() - t0) / n * 1e6

    null = loop()
    with telemetry.session():
        on = loop()
    return on - null
