"""``python -m perfbench run | compare | noise``."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from perfbench import compare as cmp
from perfbench.scratch import ROOT, scratch_dir

_RUN = Path(__file__).resolve().parent / "run.py"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload in its own fresh process; returns its full result."""
    with scratch_dir("result-") as tmp:
        out = tmp / "result.json"
        argv = [
            sys.executable, str(_RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out),
        ]
        if quick:
            argv.append("--quick")
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} (seed {seed}) exited with {proc.returncode}")
        return json.loads(out.read_text())


def run_set(workloads, seeds, seconds: float, trace: bool, quick: bool, echo=print) -> dict:
    runs = []
    for seed in seeds:
        for workload in workloads:
            plain = one_run(workload, seed, seconds, False, quick)
            runs.append(plain)
            both = [plain]
            if trace:
                traced = one_run(workload, seed, seconds, True, quick)
                for key in ("inputs_sha256", "outputs_sha256"):
                    if traced[key] != plain[key]:
                        raise SystemExit(
                            f"{workload} seed {seed}: {key} differs between the traced "
                            f"and the untraced run: {traced['exact']} vs {plain['exact']}"
                        )
                runs.append(traced)
                both.append(traced)
            for run in both:
                echo(
                    f"== {workload} seed {seed} trace {int(run['trace'])}: "
                    f"{run['failed']}/{run['attempted']} failed, "
                    f"outputs {run['outputs_sha256'][:12]}"
                )
                for name, metric in run["metrics"].items():
                    echo(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
                for layer, share in run["info"].get("layer_self_share", {}).items():
                    echo(f"  budget: {layer:31s} {share:.4f} of host wall (self time)")
    return {"schema": 1, "host": runs[0]["host"], "runs": runs}


def _workloads(args, spec) -> list[str]:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; have {names}")
    return [args.workload] if args.workload else names


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = run_set(_workloads(args, spec), args.seed, seconds, args.trace, args.quick)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(r["correct"] for r in result["runs"]) else 1


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def cmd_compare(args) -> int:
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    try:
        rows = cmp.compare_sets(parent, change, load_spec())
    except cmp.HostMismatch as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("workload      metric             unit  parent median [q1, q3]            "
          "change median [q1, q3]            change/parent  bound  verdict")
    for r in rows:
        print(
            f"{r['workload']:13s} {r['metric']:18s} {r['unit']:5s} {_fmt(r['parent']):33s} "
            f"{_fmt(r['change']):33s} {r['ratio']:.4f} (n={r['runs'][0]},{r['runs'][1]})  "
            f"{r['bound']:<6g} {r['verdict']}"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def cmd_noise(args) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sets = []
    for k in range(args.sets):
        seeds = range(args.first_seed + k * args.seeds, args.first_seed + (k + 1) * args.seeds)
        sets.append(run_set(_workloads(args, spec), seeds, seconds, False, args.quick,
                            echo=lambda line: None))
        print(f"set {k + 1}/{args.sets} done (seeds {seeds[0]}..{seeds[-1]})", flush=True)
    rows, problems = cmp.check_noise(sets, spec)
    for r in rows:
        print(
            f"{r['workload']:13s} {r['metric']:18s} medians "
            + " ".join(f"{m:.5g}" for m in r["medians"])
            + " spreads " + " ".join(f"{s:.4f}" for s in r["spreads"])
            + f" drift {r['drift']:+.4f} bound {r['bound']}"
        )
    if args.out:
        record = {"schema": 1, "host": sets[0]["host"], "seconds": seconds,
                  "seeds_per_set": args.seeds, "rows": rows, "problems": problems}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", help="one workload (default: all four)")
        p.add_argument("--seconds", type=float, help="timed seconds per run "
                       "(default: run_seconds of BENCHMARK.json)")
        p.add_argument("--quick", action="store_true", help="tiny sizes, for the tests")

    p = sub.add_parser("run", help="run workloads, each in a fresh process, print every metric")
    p.add_argument("--seed", type=int, nargs="+", required=True, help="one run per seed")
    p.add_argument("--trace", action="store_true",
                   help="repeat each run traced: per-layer metrics, outputs asserted equal")
    p.add_argument("--out", help="write the set of runs here (input of compare)")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="parent set against change set, row by row")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("noise", help="sets of runs of one commit must agree within the bounds")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="write the observed medians and spreads here")
    common(p)
    p.set_defaults(func=cmd_noise)

    args = parser.parse_args(argv)
    return args.func(args)
