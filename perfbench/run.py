"""Contract entry point: one workload, one process, one result line.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Everything is read and written inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.host import fingerprint, pin_malloc, pin_threads  # noqa: E402
from perfbench.scratch import scratch_dir  # noqa: E402

# Before NumPy loads its BLAS: one thread, so that a run measures the
# program and not the scheduler; and a heap that keeps its pages.
pin_threads()
pin_malloc()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes, for the tests")
    p.add_argument("--out", help="also write the full result (digests, host) here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    import repro  # noqa: F401  (fails here, before any output, without src/)

    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - start
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    host = fingerprint()

    with scratch_dir(f"{args.workload}-") as workdir:
        tempfile.tempdir = str(workdir)  # nothing of this run lands outside the checkout
        result = run_workload(
            WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            quick=args.quick,
            workdir=workdir,
            import_s=import_s,
        )

    for name, metric in result.metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    for name, value in result.info.items():
        print(f"# {name}: {value}")
    if args.out:
        full = {
            "schema": 1,
            "seconds": args.seconds,
            "quick": args.quick,
            "host": host,
            **{k: v for k, v in vars(result).items() if k != "spans"},
        }
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
        if result.spans:
            with open(f"{args.out}.spans.jsonl", "w", encoding="utf-8") as fh:
                for span in result.spans:
                    fh.write(json.dumps(span._asdict()) + "\n")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
