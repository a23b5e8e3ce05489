"""Command-line interface: ``python -m repro <command>`` (``--help`` lists the commands).

A command that trains looks its run up in ``repro.scenarios``, lays the
flags the user actually set over it, runs it and prints.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

__all__ = ["main", "build_parser"]

_EXPERIMENTS = [
    ("Fig. 1", "distributed K-FAC time breakdown", "bench_fig01_breakdown.py"),
    ("Fig. 3", "compression ratio vs accuracy", "bench_fig03_cr_accuracy.py"),
    ("Fig. 5", "RN/SR/P0.5 error distributions", "bench_fig05_error_dist.py"),
    ("Fig. 6", "convergence under compression", "bench_fig06_convergence.py"),
    ("Table 1", "SQuAD fine-tuning quality", "bench_table1_squad.py"),
    ("Fig. 7", "communication speedup", "bench_fig07_comm_speedup.py"),
    ("Table 2", "lossless encoder comparison", "bench_table2_encoders.py"),
    ("Fig. 8", "GPU compression throughput", "bench_fig08_gpu_throughput.py"),
    ("Fig. 9", "end-to-end performance gain", "bench_fig09_end2end.py"),
    ("Ablations", "adaptive/aggregation/fusion/packing", "bench_ablation_*.py"),
    ("Sec. 7", "future work: autotune + factor compression", "bench_ext_future_work.py"),
    ("Sec. 7", "closed-loop autotune vs every static config", "bench_ext_autotune.py"),
    ("Sec. 4.1", "where compression stops paying off", "bench_ext_sensitivity.py"),
    ("Sec. 6", "Ok-topk adaptivity + error-feedback memory", "bench_ext_related_work.py"),
    ("Sec. 6", "data-parallel KAISA vs PipeFisher", "bench_ext_pipefisher.py"),
    ("Runtime", "blocking vs scheduled comm/compute overlap", "bench_runtime_overlap.py"),
    ("Runtime", "xray critical-path attribution", "bench_ext_xray.py"),
    ("Runtime", "multi-job fleet on a shared fabric", "bench_ext_fleet.py"),
    ("Robustness", "chaos scenarios vs fault-free twin", "bench_ext_chaos.py"),
    ("Robustness", "guarded vs unguarded run under corruption", "bench_ext_guard.py"),
    ("Robustness", "store crash-consistency + storage chaos", "bench_ext_store.py"),
    ("Robustness", "fleet restarts/preemption under seeded chaos", "bench_ext_fleet_chaos.py"),
]


def _compressor_factories(seed: int) -> dict:
    """``--compressor`` name -> factory of that compressor at ``seed``."""
    from repro.compression import CocktailSgdCompressor, QsgdCompressor, SzCompressor
    from repro.core import CompsoCompressor

    return {
        "compso": lambda: CompsoCompressor(4e-3, 4e-3, seed=seed),
        "compso-sr": lambda: CompsoCompressor(0.0, 4e-3, seed=seed),
        "qsgd8": lambda: QsgdCompressor(8, seed=seed),
        "qsgd4": lambda: QsgdCompressor(4, seed=seed),
        "sz": lambda: SzCompressor(4e-3),
        "cocktail": lambda: CocktailSgdCompressor(0.2, 8, seed=seed),
    }


def _make_compressor(name: str, seed: int):
    factories = _compressor_factories(seed)
    if name not in factories:
        raise SystemExit(f"unknown compressor {name!r}; choose from {sorted(factories)}")
    return factories[name]()


def _write_json(path: str, document, lead: str = "\n") -> None:
    import json

    with open(path, "w") as f:
        json.dump(document, f, indent=2)
    print(f"{lead}wrote {path}")


def cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.encoders import list_encoders

    print(f"repro {repro.__version__} — COMPSO reproduction (PPoPP'25)")
    print(f"subpackages: {', '.join(repro.__all__)}")
    print(f"encoders: {', '.join(list_encoders())}")
    print(f"compressors: {', '.join(_compressor_factories(0))}")
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    if args.input:
        x = np.load(args.input).astype(np.float32)
    else:
        from repro.data.synthetic import kfac_like_gradient

        x = kfac_like_gradient(np.random.default_rng(args.seed), args.size)
        print(f"(no --input given; using a synthetic {args.size}-element K-FAC-like tensor)")
    comp = _make_compressor(args.compressor, args.seed)
    if args.encoder:
        from repro.encoders import list_encoders

        if args.encoder not in list_encoders():
            raise SystemExit(
                f"unknown encoder {args.encoder!r}; choose from {list_encoders()}"
            )
        if comp.set_encoder(args.encoder) is None:
            raise SystemExit(
                f"compressor {args.compressor!r} does not take a lossless "
                "encoder (--encoder applies to compso variants)"
            )
        print(f"(lossless encoder: {args.encoder})")
    ct = comp.compress(x)
    restored = comp.decompress(ct)
    err = float(np.abs(restored - x.ravel().reshape(restored.shape)).max())
    vmax = float(np.abs(x).max())
    print(f"compressor     : {comp.name}")
    print(f"original bytes : {x.nbytes}")
    print(f"wire bytes     : {ct.nbytes}")
    print(f"ratio          : {x.nbytes / ct.nbytes:.2f}x")
    print(f"max abs error  : {err:.3e}  ({err / vmax:.2e} of max magnitude)" if vmax else "")
    return 0


def _sample_gradients(args: argparse.Namespace) -> list[np.ndarray]:
    """Sample gradients for offline tuning: a ``.npy`` file or the same
    synthetic K-FAC-like mixture ``compress`` demos on."""
    if args.input:
        return [np.load(args.input).astype(np.float32)]
    from repro.data.synthetic import kfac_like_gradient

    rng = np.random.default_rng(args.seed)
    return [kfac_like_gradient(rng, args.size) for _ in range(args.samples)]


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.autotune import FidelityBudget, autotune_bounds

    grads = _sample_gradients(args)
    if not args.input:
        print(
            f"(no --input given; tuning on {args.samples} synthetic "
            f"{args.size}-element K-FAC-like tensors)"
        )
    budget = FidelityBudget(min_cosine=args.min_cosine, max_rel_l2=args.max_rel_l2)
    try:
        result = autotune_bounds(
            grads, budget=budget, encoder=args.encoder, seed=args.seed
        )
    except ValueError as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 1
    print(f"budget         : cosine >= {budget.min_cosine}, rel L2 <= {budget.max_rel_l2}")
    print(f"encoder        : {args.encoder}")
    print(f"chosen eb_f    : {result.eb_f:.6g}")
    print(f"chosen eb_q    : {result.eb_q:.6g}")
    print(f"achieved ratio : {result.ratio:.2f}x")
    print(f"worst cosine   : {result.cosine:.6f}")
    print(f"worst rel L2   : {result.rel_l2:.2e}")
    print(f"probes         : {len(result.trace)}")
    return 0


#: The flags (and the Scenario fields they write) every training command
#: shares; ``_add_shape_flags`` declares them.
_SHAPE = ("nodes", "gpus_per_node", "iterations", "batch_size")


def _given(args: argparse.Namespace, *flags: str, **fields: str) -> dict:
    """The flags the user actually set — one left unset parses to ``None``,
    which means "as registered" — keyed by the field each writes: its own
    name for ``flags``; ``fields`` maps a field to a differently named flag."""
    named = {**{f: f for f in flags}, **fields}
    return {k: getattr(args, f) for k, f in named.items() if getattr(args, f) is not None}


def _scenario(args: argparse.Namespace, command: str, name: str | None, *flags: str, **fields: str):
    """The registered run ``name`` of ``command`` (a command with one run
    registers it under its own name) with the given flags laid over it."""
    from repro.scenarios import SCENARIOS

    return replace(SCENARIOS[command][name or command], **_given(args, *flags, **fields))


def cmd_demo_train(args: argparse.Namespace) -> int:
    from repro import scenarios

    s = _scenario(args, "demo-train", None, "iterations", gpus_per_node="ranks")
    trainer, _ = scenarios.run(s)
    h = trainer.history
    print(f"ranks={s.world} iterations={s.iterations}")
    print(f"loss {h.losses[0]:.3f} -> {h.losses[-1]:.4f}; accuracy {h.final_metric():.1f}%")
    print(f"mean compression ratio {trainer.mean_compression_ratio():.2f}x")
    return 0


def _trace_compressor(name: str):
    """``trace --compressor NAME`` as a ``Scenario.compressor`` factory."""
    return lambda s: None if name == "none" else _make_compressor(name, s.job_seed)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import scenarios, telemetry

    trainer, t = scenarios.run(_scenario(args, "trace", None, "model", *_SHAPE, "compressor"))
    trace_path = telemetry.write_chrome_trace(t.tracer, args.out)
    print(f"wrote {trace_path} ({len(t.tracer.spans())} spans)")
    if args.metrics_out:
        metrics_path = telemetry.write_metrics_jsonl(t.metrics, args.metrics_out)
        print(f"wrote {metrics_path} ({len(t.metrics.steps)} step snapshots)")
    print()
    print(telemetry.summary_table(t.tracer, track=telemetry.SIM_TRACK))
    print()
    print(
        telemetry.summary_table(
            t.tracer,
            track=telemetry.HOST_TRACK,
            depth=1,
            title="telemetry summary — host track (trainer phases)",
        )
    )
    # Cross-check: the trace must reconcile with the clock accounting.
    breakdown = trainer.cluster.breakdown()
    totals = t.tracer.category_totals(track=telemetry.SIM_TRACK)
    worst = max(
        (abs(totals.get(cat, 0.0) - sec) for cat, sec in breakdown.items()), default=0.0
    )
    print(f"\ntrace vs SimCluster.breakdown(): max category deviation {worst:.3e} s")
    if worst > 1e-9:
        print("WARNING: trace disagrees with clock accounting", file=sys.stderr)
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro import scenarios
    from repro.faults.chaos import run_chaos

    s = _scenario(args, "chaos", args.scenario, *_SHAPE, "seed", job_seed="seed")
    print(scenarios.fault_plan(s).describe())
    print()
    result = run_chaos(s)
    print(result.summary())
    if args.json:
        _write_json(args.json, result.to_dict())
    if not result.completed:
        print("ERROR: faulted run did not complete all iterations", file=sys.stderr)
        return 1
    return 0


def cmd_guard(args: argparse.Namespace) -> int:
    import math

    from repro import scenarios
    from repro.guard.scenario import run_guard_scenario

    s = _scenario(args, "guard", None, *_SHAPE, "seed", "corruption", job_seed="seed")
    print(scenarios.fault_plan(s).describe())
    print()
    result = run_guard_scenario(s)
    print(result.summary())
    if args.json:
        _write_json(args.json, result.to_dict())
    if not result.guarded_completed or not math.isfinite(result.guarded_loss):
        print("ERROR: guarded run did not survive the fault plan", file=sys.stderr)
        return 1
    if not result.timeline:
        print("ERROR: no remediation fired — the scenario exercised nothing", file=sys.stderr)
        return 1
    return 0


def cmd_overlap(args: argparse.Namespace) -> int:
    from repro import scenarios

    s = _scenario(args, "overlap", None, "batch_size", "streams", "train_flops", iterations="iters")
    if args.ranks is not None:
        gpus = min(args.ranks, 4)
        if args.ranks < 1 or args.ranks % gpus:
            raise SystemExit(f"--ranks must be a multiple of 4 (or < 4), got {args.ranks}")
        s = replace(s, nodes=args.ranks // gpus, gpus_per_node=gpus)

    def run(schedule: str):
        trainer, _ = scenarios.run(replace(s, schedule=schedule))
        params = np.concatenate([p.data.ravel() for p in trainer.model.parameters()])
        return params, trainer.cluster.time, trainer.runtime

    blk_params, blk_time, _ = run("blocking")
    ovl_params, ovl_time, rt = run("overlapped")
    identical = bool(np.array_equal(blk_params, ovl_params))
    print(f"ranks={s.world} iters={s.iterations} comm-streams={s.streams}")
    print(f"blocking   : {blk_time * 1e3:.3f} ms simulated")
    print(f"overlapped : {ovl_time * 1e3:.3f} ms simulated ({blk_time / ovl_time:.2f}x)")
    print(f"bit-identical parameters: {identical}")
    print(
        f"comm hidden {rt.hidden_comm_seconds() * 1e3:.3f} ms / "
        f"exposed {rt.exposed_comm_seconds() * 1e3:.3f} ms "
        f"(hidden fraction {rt.hidden_fraction():.2f})"
    )
    for cat, split in rt.overlap_stats().items():
        print(
            f"  {cat:16s} hidden {split['hidden'] * 1e3:8.3f} ms   "
            f"exposed {split['exposed'] * 1e3:8.3f} ms"
        )
    if args.json:
        payload = {
            "ranks": s.world,
            "iters": s.iterations,
            "n_comm_streams": s.streams,
            "blocking_seconds": blk_time,
            "overlapped_seconds": ovl_time,
            "speedup": blk_time / ovl_time,
            "bit_identical": identical,
            "hidden_comm_seconds": rt.hidden_comm_seconds(),
            "exposed_comm_seconds": rt.exposed_comm_seconds(),
            "hidden_fraction": rt.hidden_fraction(),
            "per_category": rt.overlap_stats(),
        }
        _write_json(args.json, payload)
    if not identical:
        print("ERROR: overlapped parameters diverged from blocking", file=sys.stderr)
        return 1
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from repro import scenarios
    from repro.obsv import load_ledger, summarize

    s = _scenario(args, "record", args.preset, *_SHAPE, "seed", "eb", "xray")
    if args.no_guard:
        s = replace(s, guard=False)
    if args.no_overlap:
        s = replace(s, schedule=None)
    scenarios.run(s, args.out)
    ledger = load_ledger(args.out)
    print(f"wrote {args.out} ({len(ledger.steps)} step records)")
    for key, value in summarize(ledger).items():
        print(f"  {key:22s} {value}")
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    from repro import scenarios
    from repro.obsv import autotune_timeline, load_ledger, summarize

    s = _scenario(
        args, "autotune", args.preset, *_SHAPE,
        "seed", "channels", "latency_factor", "bandwidth_factor", "warmup", "min_dwell",
    )
    trainer, _ = scenarios.run(s, args.out)
    ledger = load_ledger(args.out)
    summary = summarize(ledger)
    controller = trainer.autotune
    if controller is not None:
        extra = controller.modelled_extra_seconds
    else:
        # The static run holds the "default" menu entry the whole way.
        from repro.autotune import DEFAULT_MENU, AlphaBetaEstimator, replay_extra_seconds

        default = next(c for c in DEFAULT_MENU if c.name == "default")
        extra = replay_extra_seconds(ledger.steps, default, alpha=AlphaBetaEstimator().alpha0)
    window = "none"
    if s.faults is not None:
        degraded = scenarios.fault_plan(s).degradations[0]
        window = f"[{degraded.start}, {degraded.stop})"
    print(f"preset={args.preset} iterations={s.iterations} degraded window {window}")
    print(f"wrote {args.out} ({len(ledger.steps)} step records)")
    for key, value in summary.items():
        print(f"  {key:22s} {value}")
    print(f"  modelled extra        {extra:.6g} s")
    print(f"  modelled end-to-end   {summary['sim_time'] + extra:.6g} s")
    decisions = autotune_timeline(ledger)
    retunes = sum(1 for d in decisions if d.get("kind") == "retune")
    if controller is not None:
        print(f"decisions ({len(decisions)}):")
        for d in decisions:
            print(
                f"  step {d.get('step'):3d}: {d.get('kind'):6s} "
                f"{d.get('from')} -> {d.get('to')} ({d.get('reason')})"
            )
        if not decisions:
            print("  (none)")
    if args.min_retunes is not None and retunes < args.min_retunes:
        print(
            f"ERROR: expected >= {args.min_retunes} retune decisions, saw {retunes}",
            file=sys.stderr,
        )
        return 1
    if args.max_retunes is not None and retunes > args.max_retunes:
        print(
            f"ERROR: expected <= {args.max_retunes} retune decisions, saw {retunes}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_view(args: argparse.Namespace) -> int:
    """``repro report`` and ``repro xray``: build the view once, write it as
    HTML and markdown, print the markdown."""
    from repro.obsv import load_ledger, run_report, xray_timeline
    from repro.xray import xray_report

    ledger = load_ledger(args.ledger)
    xray = args.command == "xray"
    view = (xray_report if xray else run_report)(ledger)
    stem = args.ledger.rsplit(".", 1)[0] + (".xray" if xray else "")
    written = view.write(html_path=args.html or f"{stem}.html", md_path=args.md or f"{stem}.md")
    print(view.markdown())
    for p in written:
        print(f"wrote {p}")
    if xray and not xray_timeline(ledger):
        print("ERROR: ledger has no xray records — record with --xray", file=sys.stderr)
        return 1
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obsv import DEFAULT_SPECS, diff_ledgers, load_ledger, parse_tolerance

    overrides = {}
    for spec in args.tol or []:
        parsed = parse_tolerance(spec, DEFAULT_SPECS)
        overrides[parsed.name] = parsed
    baseline = load_ledger(args.baseline)
    candidate = load_ledger(args.candidate)
    diff = diff_ledgers(baseline, candidate, tolerances=overrides)
    print(diff.format_table(title=f"run diff — {args.baseline} vs {args.candidate}"))
    attribution = None
    if args.attribute:
        from repro.xray import attribute_regression

        attribution = attribute_regression(baseline, candidate)
        if attribution is None:
            print(
                "\nattribution: unavailable (both ledgers must be recorded "
                "with xray enabled)"
            )
        else:
            share = attribution["share"]
            share_txt = f"{share:.0%} of" if share is not None else "against a"
            print(
                f"\nattribution: segment `{attribution['segment']}` "
                f"({attribution['kind']}) moved {attribution['delta_s']:+.6g} s "
                f"on the critical path — {share_txt} "
                f"{attribution['total_delta_s']:+.6g} s total; "
                f"busiest phase: {attribution['phase']}"
            )
    if args.json:
        payload = diff.to_dict()
        if args.attribute:
            payload["attribution"] = attribution
        _write_json(args.json, payload)
    if not diff.ok:
        names = ", ".join(r.metric for r in diff.regressions)
        print(f"\nREGRESSION: {names}", file=sys.stderr)
        return 1
    print("\nok: no regression beyond tolerance bands")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetScheduler, apply_chaos, fabric_degradations
    from repro.scenarios import FLEETS

    fleet = FLEETS[args.preset]
    specs = fleet.jobs()
    options = {**fleet.options, **_given(args, "max_concurrent", "retry_budget")}
    if args.chaos:
        specs = apply_chaos(specs, rate=args.fault_rate, seed=args.chaos_seed)
        options.setdefault(
            "fabric_degradations",
            fabric_degradations(specs, rate=args.fault_rate, seed=args.chaos_seed),
        )
    scheduler = FleetScheduler(specs, ledger_dir=args.out, store_dir=args.store_dir, **options)
    result = scheduler.run()
    header = (
        f"{'job':8s} {'world':>6s} {'prio':>5s} {'steps':>5s} {'sim_s':>9s} "
        f"{'fleet_end':>9s} {'contended':>9s} {'slowdown':>8s} {'peak_B':>9s} "
        f"{'loss':>8s} {'state':>6s} {'rst':>3s} {'pre':>3s} {'good':>5s} {'slo':>4s}"
    )
    mode = " +chaos" if args.chaos else ""
    print(f"fleet preset={args.preset}{mode}: {len(specs)} jobs on shared fabric")
    print(header)
    for r in result.reports:
        slo = "-" if r.slo_met is None else ("met" if r.slo_met else "MISS")
        print(
            f"{r.name:8s} {r.world_size:6d} {r.priority:5.1f} {r.steps:5d} "
            f"{r.sim_time:9.4f} {r.fleet_end:9.4f} {r.contended_seconds:9.4f} "
            f"{r.slowdown:8.3f} {r.peak_payload_bytes:9.0f} {r.final_loss:8.4f} "
            f"{r.state:>6s} {r.restarts:3d} {r.preemptions:3d} {r.goodput:5.2f} {slo:>4s}"
        )
    print(
        f"makespan {result.makespan:.4f}s, "
        f"total contended {result.total_contended_seconds:.4f}s, "
        f"{result.total_restarts} restarts, {result.total_preemptions} preemptions, "
        f"{result.jobs_failed} failed, {result.slo_missed} SLO misses"
    )
    fallbacks = sum(r.store_fallbacks for r in result.reports)
    quarantined = sum(r.store_quarantined for r in result.reports)
    repairs = sum(r.store_repairs for r in result.reports)
    where = f" {args.store_dir}" if args.store_dir else ""
    print(
        f"store{where}: {fallbacks} generation fallbacks, "
        f"{quarantined} quarantined, {repairs} repairs"
    )
    if args.out:
        print(f"per-job ledgers in {args.out}/")
    if args.json:
        _write_json(args.json, result.to_dict(), lead="")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.store import fsck_path

    verdicts = []
    for target in args.paths:
        verdicts.extend(fsck_path(target, repair=args.repair))
    width = max((len(v.status) for v in verdicts), default=2)
    for v in verdicts:
        line = f"{v.status:>{width}s}  {v.kind:10s}  {v.path}"
        if v.detail:
            line += f"  — {v.detail}"
        print(line)
    problems = [v for v in verdicts if v.problem]
    unrepairable = [v for v in verdicts if v.status == "unrepairable"]
    print(
        f"\nfsck: {len(verdicts)} object(s) examined, "
        f"{len(problems)} problem(s){' (repair applied)' if args.repair else ''}"
    )
    if args.json:
        _write_json(args.json, [v.to_dict() for v in verdicts], lead="")
    if args.repair:
        # Repair mode fails only when damage remains beyond repair.
        return 1 if unrepairable else 0
    return 1 if problems else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    width = max(len(e[0]) for e in _EXPERIMENTS)
    for tag, desc, bench in _EXPERIMENTS:
        print(f"{tag.ljust(width)}  {desc:45s} benchmarks/{bench}")
    print("\nrun: pytest benchmarks/ --benchmark-only   (results in benchmarks/out/)")
    return 0


def _add_shape_flags(p: argparse.ArgumentParser, *, seed: bool = True) -> None:
    # Like every flag that shapes a run, these default to ``None``: "as
    # registered" in repro.scenarios (see ``_given``).
    p.add_argument("--nodes", type=int)
    p.add_argument("--gpus-per-node", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", type=int)
    if seed:
        p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    from repro.scenarios import FLEETS, MODELS, SCENARIOS

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package inventory").set_defaults(func=cmd_info)

    p = sub.add_parser("compress", help="compress a tensor and report ratio/error")
    p.add_argument("--input", help=".npy file of float32 values (synthetic demo if omitted)")
    p.add_argument("--compressor", default="compso")
    p.add_argument(
        "--encoder",
        default="",
        help="lossless encoder from repro.encoders (compso variants only)",
    )
    p.add_argument("--size", type=int, default=1 << 20, help="synthetic tensor size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser(
        "tune", help="offline (eb_f, eb_q) search under a fidelity budget"
    )
    p.add_argument("--input", help=".npy file of float32 gradients (synthetic if omitted)")
    p.add_argument("--size", type=int, default=1 << 18, help="synthetic tensor size")
    p.add_argument("--samples", type=int, default=3, help="synthetic sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-cosine", type=float, default=0.999, help="fidelity: min cosine")
    p.add_argument("--max-rel-l2", type=float, default=0.05, help="fidelity: max rel L2")
    p.add_argument("--encoder", default="ans", help="lossless encoder to tune with")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("demo-train", help="quick distributed K-FAC + COMPSO demo")
    p.add_argument("--ranks", type=int)
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_demo_train)

    p = sub.add_parser("trace", help="trace a short simulated run (Chrome trace + metrics)")
    p.add_argument("--model", choices=MODELS)
    _add_shape_flags(p, seed=False)
    p.add_argument("--compressor", type=_trace_compressor, help="compressor name or 'none'")
    p.add_argument("--out", default="trace.json", help="Chrome trace output path")
    p.add_argument("--metrics-out", default="metrics.jsonl", help="metrics JSONL path ('' skips)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("chaos", help="run a fault-injection scenario vs a clean baseline")
    p.add_argument("--scenario", default="mixed", choices=list(SCENARIOS["chaos"]))
    _add_shape_flags(p)
    p.add_argument("--json", default="", help="write the ChaosResult as JSON to this path")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "guard", help="guarded vs unguarded chaos run (remediation timeline)"
    )
    _add_shape_flags(p)
    p.add_argument("--corruption", type=float)
    p.add_argument("--json", default="", help="write the GuardRunResult as JSON to this path")
    p.set_defaults(func=cmd_guard)

    p = sub.add_parser(
        "overlap", help="compare blocking vs scheduled-overlap execution"
    )
    p.add_argument("--ranks", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--streams", type=int, help="comm streams per rank")
    p.add_argument(
        "--train-flops",
        type=float,
        help="modelled training throughput (FLOP/s); small so the tiny "
        "proxy's compute is on the same scale as its communication",
    )
    p.add_argument("--json", default="overlap.json", help="result JSON path ('' skips)")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("record", help="record a run ledger (guarded+overlapped by default)")
    p.add_argument("--preset", default="smoke", choices=list(SCENARIOS["record"]))
    p.add_argument("--out", default="run.ledger", help="ledger output path")
    _add_shape_flags(p)
    p.add_argument("--eb", type=float, help="override the preset's error bound")
    p.add_argument("--no-guard", action="store_true", help="disable the guard layer")
    p.add_argument("--no-overlap", action="store_true", help="disable the overlap runtime")
    p.add_argument(
        "--xray",
        action="store_true",
        default=None,
        help="fold per-step critical-path attribution records into the ledger",
    )
    p.set_defaults(func=cmd_record)

    p = sub.add_parser(
        "autotune",
        help="run a K-FAC job with the closed-loop online autotuner "
        "(optionally under a link-degradation window)",
    )
    p.add_argument("--preset", default="autotuned", choices=list(SCENARIOS["autotune"]))
    p.add_argument("--out", default="autotune.ledger", help="ledger output path")
    _add_shape_flags(p)
    p.add_argument("--channels", type=int, help="proxy model width")
    p.add_argument(
        "--latency-factor",
        type=float,
        help="link-degradation latency multiplier (degraded preset)",
    )
    p.add_argument(
        "--bandwidth-factor",
        type=float,
        help="link-degradation bandwidth divisor (degraded preset)",
    )
    p.add_argument("--warmup", type=int, help="steps before the first decision")
    p.add_argument("--min-dwell", type=int, help="min steps between decisions")
    p.add_argument(
        "--min-retunes",
        type=int,
        help="exit non-zero unless at least this many retunes fired (CI gate)",
    )
    p.add_argument(
        "--max-retunes",
        type=int,
        help="exit non-zero if more than this many retunes fired (CI gate)",
    )
    p.set_defaults(func=cmd_autotune)

    p = sub.add_parser("report", help="render a ledger as HTML dashboard + markdown")
    p.add_argument("ledger", help="path to a recorded .ledger file")
    p.add_argument("--html", default="", help="HTML output path (default: <ledger>.html)")
    p.add_argument("--md", default="", help="markdown output path (default: <ledger>.md)")
    p.set_defaults(func=cmd_view)

    p = sub.add_parser(
        "xray", help="render a ledger's critical-path attribution (flame view)"
    )
    p.add_argument("ledger", help="path to a ledger recorded with --xray")
    p.add_argument("--html", default="", help="HTML output path (default: <ledger>.xray.html)")
    p.add_argument("--md", default="", help="markdown output path (default: <ledger>.xray.md)")
    p.set_defaults(func=cmd_view)

    p = sub.add_parser("diff", help="compare two ledgers; exit non-zero on regression")
    p.add_argument("baseline", help="baseline .ledger")
    p.add_argument("candidate", help="candidate .ledger")
    p.add_argument(
        "--tol",
        action="append",
        metavar="METRIC=VALUE",
        help="tolerance override, e.g. final_loss=0.1, sim_time=abs:0.01 "
        "(VALUE is a relative band unless prefixed abs:)",
    )
    p.add_argument(
        "--attribute",
        action="store_true",
        help="name the critical-path segment responsible for a slowdown "
        "(both ledgers must be recorded with --xray)",
    )
    p.add_argument("--json", default="", help="write the diff result as JSON to this path")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "fleet",
        help="run a multi-job fleet on the shared simulated fabric",
    )
    p.add_argument(
        "--preset",
        choices=list(FLEETS),
        default="smoke",
        help="job mix: smoke (3 small jobs, CI-gated), scale (10 jobs at 1k-4k "
        "ranks), chaos-smoke (smoke + deterministic crash/failure plans, "
        "CI-gated), or storage-smoke (smoke + deterministic disk faults on the "
        "checkpoint store, CI-gated)",
    )
    p.add_argument("--out", default=None, help="directory for per-job ledgers")
    p.add_argument(
        "--store-dir",
        default=None,
        help="keep the per-job checkpoint stores under this directory (default: "
        "a temporary one removed after the run), e.g. for `repro fsck`",
    )
    p.add_argument("--json", default=None, help="also dump the fleet result as JSON")
    p.add_argument(
        "--chaos",
        action="store_true",
        help="attach seeded fault plans (stragglers, link degradation, node "
        "failures, job crashes) and fleet-wide fabric brownouts to the preset",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=1.0,
        help="chaos intensity: scales every fault probability (0 = faultless)",
    )
    p.add_argument("--chaos-seed", type=int, default=0, help="seed for the chaos draws")
    p.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="cap on simultaneously running jobs (arrivals beyond it queue or preempt)",
    )
    p.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        help="restarts allowed per job before it is marked failed",
    )
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "fsck",
        help="verify (and repair) checkpoint stores, archives, and run ledgers",
    )
    p.add_argument(
        "paths",
        nargs="+",
        help="a store directory, .npz checkpoint archive, .ledger/.jsonl run "
        "ledger, or a directory containing any mix of them",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt generations, adopt verified orphans, rebuild "
        "manifests, and repair crash-truncated ledgers (scan-only without this)",
    )
    p.add_argument("--json", default=None, help="dump per-object verdicts as JSON")
    p.set_defaults(func=cmd_fsck)

    sub.add_parser("experiments", help="list paper artefacts and benches").set_defaults(
        func=cmd_experiments
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `python -m repro experiments | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
