"""Which calls the traced run wraps, and the per-layer metrics they yield.

Layer names are the repository's modules.  Every target is a call *into*
a layer from the layer above it; spans inside the program are a later
change.  ``PER_LAYER`` lists every per-layer metric with its unit and
direction, in the order ``BENCHMARK.json`` declares them; a workload
that never enters a layer reports 0 for it.
"""

from __future__ import annotations

from perfbench.tracing import Tracer

__all__ = ["LAYERS", "PER_LAYER", "ENCODER_NAMES", "register", "derive"]

ENCODER_NAMES = (
    "ans", "bitcomp", "cascaded", "deflate", "gdeflate", "huffman", "lz4", "snappy", "zstd",
)

_COLLECTIVES = ("allreduce", "allgather", "broadcast", "reduce_scatter")


def _size(index):
    return lambda args, kwargs, result: float(args[index].size)


def _compress_work(args, kwargs, result):
    return float(args[1].size), float(result.nbytes)


def _compress_many_work(args, kwargs, result):
    return float(sum(t.size for t in args[1])), float(result.nbytes)


def _decompress_work(args, kwargs, result):
    return float(args[1].n_elements)


def _encode_work(args, kwargs, result):
    return float(len(args[1])), float(result[0] == 1)


def _file_bytes(args, kwargs, result):
    return float(result.stat().st_size)


#: (target, layer, measure).  Private names appear only where they are
#: the one funnel a layer is entered through (the runtime calls the
#: cluster's data plane by them).
_TARGETS = (
    ("repro.encoders.base:Encoder.encode", "encoders", _encode_work),
    ("repro.encoders.base:Encoder.decode", "encoders", lambda a, k, r: float(len(r))),
    ("repro.util.bitpack:pack_uints", "util.bitpack", _size(0)),
    ("repro.util.bitpack:unpack_uints", "util.bitpack", lambda a, k, r: float(r.size)),
    ("repro.util.bitpack:pack_bitmap", "util.bitpack", _size(0)),
    ("repro.util.bitpack:unpack_bitmap", "util.bitpack", lambda a, k, r: float(r.size)),
    ("repro.core.compso:CompsoCompressor.compress", "core.compso", _compress_work),
    ("repro.core.compso:CompsoCompressor.decompress", "core.compso", _decompress_work),
    ("repro.core.compso:CompsoCompressor.compress_many", "core.compso", _compress_many_work),
    ("repro.core.compso:CompsoCompressor.decompress_many", "core.compso", _decompress_work),
    ("repro.compression.quantize:round_stochastic", "compression.quantize", _size(0)),
    ("repro.nn.container:Sequential.forward", "nn", None),
    ("repro.nn.container:Sequential.backward", "nn", None),
    ("repro.nn.losses:softmax_cross_entropy", "nn", None),
    ("repro.optim.kfac:Kfac.local_factors", "optim.kfac", None),
    ("repro.optim.kfac:Kfac.accumulate_factors", "optim.kfac", None),
    ("repro.optim.kfac:Kfac.compute_eigen", "optim.kfac", None),
    ("repro.optim.kfac:Kfac.precondition", "optim.kfac", None),
    ("repro.optim.kfac:Kfac.apply", "optim.kfac", None),
    *(
        (f"repro.distributed.cluster:SimCluster.{op}", "distributed.cluster", None)
        for op in (*_COLLECTIVES, "replicate", "advance_all", "advance_rank",
                   "begin_iteration", "collective_seconds", "_reduce_data",
                   "_replicate_result", "_broadcast_data", "_allgather_data",
                   "_barrier_and_advance")
    ),
    (
        "repro.distributed.cluster:SimCluster._record_collective",
        "distributed.cluster",
        lambda a, k, r: float(a[4]),  # wire bytes of one collective
    ),
    *(
        (f"repro.runtime.engine:StreamRuntime.i{op}", "runtime.engine", None)
        for op in _COLLECTIVES
    ),
    ("repro.runtime.engine:CollectiveHandle.wait", "runtime.engine", None),
    ("repro.runtime.engine:StreamRuntime.assert_quiesced", "runtime.engine", None),
    ("repro.runtime.bucketing:Bucketer.add", "runtime.engine", None),
    ("repro.runtime.bucketing:Bucketer.wait", "runtime.engine", None),
    *(
        (f"repro.guard.guard:Guard.{m}", "guard", None)
        for m in ("begin_step", "active", "scan", "safe_decompress", "check_contract",
                  "check_ef", "safe_eigen", "end_step")
    ),
    ("repro.obsv.ledger:LedgerWriter.record_step", "obsv.ledger", None),
    ("repro.obsv.ledger:LedgerWriter.update_manifest", "obsv.ledger", None),
    ("repro.obsv.ledger:LedgerWriter.close", "obsv.ledger", None),
    ("repro.xray.analyzer:XrayAnalyzer.end_step", "xray", None),
    ("repro.util.checkpoint:save_checkpoint", "checkpoint", _file_bytes),
    ("repro.util.checkpoint:load_checkpoint", "checkpoint", None),
    ("repro.store.store:CheckpointStore.save", "checkpoint", None),
    ("repro.store.store:CheckpointStore.load_latest", "checkpoint", None),
    ("repro.fleet.scheduler:FleetScheduler.run", "fleet", None),
    ("repro.fleet.job:FleetJob.step", "fleet", None),
    ("repro.fleet.job:FleetJob.checkpoint", "fleet", None),
    ("repro.fleet.job:FleetJob.resume", "fleet", None),
    ("repro.fleet.fabric:SharedFabric.acquire", "fleet", None),
    ("repro.fleet.fabric:SharedFabric.prune", "fleet", None),
    ("repro.kfac_dist.trainer:DistributedKfacTrainer.step", "kfac_dist.trainer", None),
    ("repro.train.tasks:ClassificationTask.batch", "data", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer, _ in _TARGETS))

#: (name, unit, better).  Zoo, side-run and exact metrics are filled in
#: by the workloads; the rest by :func:`derive`.
PER_LAYER = (
    ("encoders.share", "share", "lower"),
    ("encoders.enc_MBps", "MB/s", "higher"),
    ("encoders.dec_MBps", "MB/s", "higher"),
    ("encoders.calls", "count", "lower"),
    ("encoders.bytes_in", "bytes", "lower"),
    ("encoders.coded_frame_ratio", "share", "higher"),
    *(
        (f"encoders.{name}.{what}", unit, "higher")
        for name in ENCODER_NAMES
        for what, unit in (("enc_MBps", "MB/s"), ("dec_MBps", "MB/s"), ("cr", "x"))
    ),
    ("bitpack.share", "share", "lower"),
    ("bitpack.pack_uints_Melem_per_s", "Melem/s", "higher"),
    ("bitpack.unpack_uints_Melem_per_s", "Melem/s", "higher"),
    ("bitpack.pack_bitmap_Melem_per_s", "Melem/s", "higher"),
    ("bitpack.unpack_bitmap_Melem_per_s", "Melem/s", "higher"),
    ("compso.compress_busy_s", "s", "lower"),
    ("compso.decompress_busy_s", "s", "lower"),
    ("compso.compress_MBps", "MB/s", "higher"),
    ("compso.decompress_MBps", "MB/s", "higher"),
    ("compso.self_share", "share", "lower"),
    ("quantize.sr_Melem_per_s", "Melem/s", "higher"),
    ("compso.filter_hit_rate", "share", "higher"),
    ("compso.wire_bytes", "bytes", "lower"),
    ("nn.fwd_bwd_ms_per_step", "ms", "lower"),
    ("nn.share", "share", "lower"),
    ("kfac.local_factors_ms_per_step", "ms", "lower"),
    ("kfac.eigh_ms_per_refresh", "ms", "lower"),
    ("kfac.precondition_ms_per_step", "ms", "lower"),
    ("kfac.share", "share", "lower"),
    ("cluster.collective_ms_per_step", "ms", "lower"),
    ("cluster.calls_per_step", "count", "lower"),
    ("cluster.wire_bytes_per_step", "bytes", "lower"),
    ("cluster.collective_us_per_call", "us", "lower"),
    ("runtime.issue_wait_ms_per_step", "ms", "lower"),
    ("runtime.hidden_fraction", "share", "higher"),
    ("runtime.exposed_comm_s_per_step", "s", "lower"),
    ("guard.ms_per_step", "ms", "lower"),
    ("ledger.ms_per_step", "ms", "lower"),
    ("tracer.span_us", "us", "lower"),
    ("observers.overhead_ratio", "x", "lower"),
    ("xray.overhead_ratio", "x", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.bytes_per_save", "bytes", "lower"),
    ("checkpoint.share", "share", "lower"),
    ("fleet.scheduler_self_ms_per_jobstep", "ms", "lower"),
    ("fleet.fabric_acquire_us", "us", "lower"),
    ("fleet.fabric_calls", "count", "lower"),
    ("fleet.contended_sim_s", "s", "lower"),
    ("trainer.self_share", "share", "lower"),
    ("trainer.accounted_share", "share", "higher"),
    ("baseline.single_worker_step_ms", "ms", "lower"),
    ("op.samples", "count", "higher"),
    ("op.tail_pct", "%", "higher"),
    ("op.tail_ms", "ms", "lower"),
    ("sim.time_s", "s", "lower"),
    ("train.tail_loss", "loss", "lower"),
    ("tracing.overhead_ratio", "x", "lower"),
    ("tracing.spans", "count", "lower"),
    ("tracing.unwrapped_targets", "count", "lower"),
)


def register(tracer: Tracer) -> None:
    """Register every target; call after the warm-up has imported the program."""
    for target, layer, measure in _TARGETS:
        tracer.patch(target, layer, measure)


def _rate(work: float, seconds: float, scale: float = 1e6) -> float:
    return work / seconds / scale if seconds > 0 else 0.0


#: The calls a workload times: one of them is the root of every span
#: that counts.
_OPERATIONS = (
    "CompsoCompressor.compress",
    "CompsoCompressor.decompress",
    "CompsoCompressor.compress_many",
    "CompsoCompressor.decompress_many",
    "DistributedKfacTrainer.step",
    "FleetScheduler.run",
)


def derive(tracer: Tracer, wall_s: float, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` operations whose timed
    wall was ``wall_s``.  Metrics of layers never entered come out 0."""
    tracer.keep_trees_of(_OPERATIONS)
    layer_s = tracer.layer_self_seconds()
    names = tracer.by_name()

    def share(*layers: str) -> float:
        return sum(layer_s.get(layer, 0.0) for layer in layers) / wall_s

    def busy(*span_names: str) -> float:
        return sum(names[n].busy_s for n in span_names if n in names)

    def work(*span_names: str) -> float:
        return sum(names[n].work for n in span_names if n in names)

    def calls(*span_names: str) -> int:
        return sum(names[n].calls for n in span_names if n in names)

    def ms_per_op(seconds: float) -> float:
        return seconds * 1e3 / ops

    out: dict[str, float] = {}
    enc, dec = "Encoder.encode", "Encoder.decode"
    out["encoders.share"] = share("encoders")
    out["encoders.enc_MBps"] = _rate(work(enc), busy(enc))
    out["encoders.dec_MBps"] = _rate(work(dec), busy(dec))
    out["encoders.calls"] = calls(enc, dec)
    out["encoders.bytes_in"] = work(enc)
    out["encoders.coded_frame_ratio"] = (
        names[enc].extra / names[enc].calls if enc in names else 0.0
    )

    out["bitpack.share"] = share("util.bitpack")
    for fn in ("pack_uints", "unpack_uints", "pack_bitmap", "unpack_bitmap"):
        out[f"bitpack.{fn}_Melem_per_s"] = _rate(work(fn), busy(fn))

    comp = ("CompsoCompressor.compress", "CompsoCompressor.compress_many")
    decomp = ("CompsoCompressor.decompress", "CompsoCompressor.decompress_many")
    sr = "round_stochastic"
    out["compso.compress_busy_s"] = busy(*comp)
    out["compso.decompress_busy_s"] = busy(*decomp)
    out["compso.compress_MBps"] = _rate(4.0 * work(*comp), busy(*comp))
    out["compso.decompress_MBps"] = _rate(4.0 * work(*decomp), busy(*decomp))
    out["compso.self_share"] = share("core.compso", "compression.quantize")
    out["quantize.sr_Melem_per_s"] = _rate(work(sr), busy(sr))
    # round_stochastic sees exactly the elements the filter kept.
    out["compso.filter_hit_rate"] = 1.0 - work(sr) / work(*comp) if work(*comp) else 0.0
    out["compso.wire_bytes"] = sum(names[n].extra for n in comp if n in names)

    out["nn.fwd_bwd_ms_per_step"] = ms_per_op(sum(s.duration for s in tracer.outermost("nn")))
    out["nn.share"] = share("nn")

    out["kfac.local_factors_ms_per_step"] = ms_per_op(busy("Kfac.local_factors"))
    refreshes = tracer.enclosing("Kfac.compute_eigen", "DistributedKfacTrainer.step")
    out["kfac.eigh_ms_per_refresh"] = (
        busy("Kfac.compute_eigen") * 1e3 / refreshes if refreshes else 0.0
    )
    out["kfac.precondition_ms_per_step"] = ms_per_op(busy("Kfac.precondition"))
    out["kfac.share"] = share("optim.kfac")

    record = "SimCluster._record_collective"
    cluster_s = layer_s.get("distributed.cluster", 0.0)
    out["cluster.collective_ms_per_step"] = ms_per_op(cluster_s)
    out["cluster.calls_per_step"] = calls(record) / ops
    out["cluster.wire_bytes_per_step"] = work(record) / ops
    out["cluster.collective_us_per_call"] = (
        cluster_s * 1e6 / calls(record) if calls(record) else 0.0
    )

    out["runtime.issue_wait_ms_per_step"] = ms_per_op(layer_s.get("runtime.engine", 0.0))
    out["guard.ms_per_step"] = ms_per_op(layer_s.get("guard", 0.0))
    out["ledger.ms_per_step"] = ms_per_op(layer_s.get("obsv.ledger", 0.0))

    saves = tracer.outermost("checkpoint")
    out["checkpoint.saves"] = len(saves)
    out["checkpoint.save_ms"] = (
        sum(s.duration for s in saves) * 1e3 / len(saves) if saves else 0.0
    )
    out["checkpoint.bytes_per_save"] = (
        work("save_checkpoint") / calls("save_checkpoint") if calls("save_checkpoint") else 0.0
    )
    out["checkpoint.share"] = share("checkpoint")

    fabric = "SharedFabric.acquire"
    fleet_self = sum(
        names[n].self_s
        for n in ("FleetScheduler.run", "FleetJob.step", "FleetJob.checkpoint", "FleetJob.resume")
        if n in names
    )
    out["fleet.scheduler_self_ms_per_jobstep"] = ms_per_op(fleet_self)
    out["fleet.fabric_acquire_us"] = busy(fabric) * 1e6 / calls(fabric) if calls(fabric) else 0.0
    out["fleet.fabric_calls"] = calls(fabric)

    out["trainer.self_share"] = share("kfac_dist.trainer")
    out["trainer.accounted_share"] = sum(layer_s.values()) / wall_s
    out["tracing.spans"] = len(tracer.spans)
    out["tracing.unwrapped_targets"] = len(tracer.missing)
    return out
