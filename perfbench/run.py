"""Benchmark entry point: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {exact,service,portfolio} \
        [--seed N] [--seconds S] [--trace {0,1}]

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the nine end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it carries the
diagnostics (speed factor, raw values, guard results).  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("exact", "service", "portfolio")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args, tmp: Path) -> dict:
    from harness import Context
    from report import END_TO_END, PER_LAYER

    ctx = Context(root=ROOT, tmp=tmp, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    if args.workload == "service":
        import service_load

        outcome = service_load.run(ctx)
    else:
        import closed_loop

        outcome = closed_loop.run(ctx, args.workload)

    records = outcome["records"]
    calibrator = outcome["calibrator"]
    issues = list(outcome.get("issues", []))
    if not calibrator.guard_holds(outcome["sut_cpu_s"]):
        issues.append(
            f"SUT used {calibrator.leaked_cpu_s:.3f} CPU s during calibration "
            f"({calibrator.busy_windows} busy window(s))"
        )
    failed = [r for r in records if not r.ok]
    e2e = outcome["e2e"]
    if args.trace:
        layers = outcome["layers"]
        if layers["trace.negative_remainder_frac"] > 0.5:
            issues.append("the layer probes claim more than the untraced latency "
                          "for most requests (median remainder below tolerance)")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(records),
        "tail_percentile": e2e["_tail_percentile"],
        "host": calibrator.summary(),
        "granted_share_median": statistics.median(outcome["granted"] or [1.0]),
        "raw": e2e["_raw"],
        "calibration_guard": {"busy_windows": calibrator.busy_windows,
                              "leaked_cpu_s": calibrator.leaked_cpu_s,
                              "timed_cpu_s": outcome["sut_cpu_s"]},
        "issues": issues + [f"request {r.request.index}: {'; '.join(r.issues)}"
                            for r in failed[:10]],
    }
    return {
        "diagnostics": diagnostics,
        "result": {
            "correct": not failed and not issues,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    runs_dir = ROOT / ".perfbench_tmp"
    runs_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        report = _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        from repro.runtime.pool import shutdown_worker_pool

        shutdown_worker_pool()
    from calib import process_tree

    leftovers = multiprocessing.active_children() + process_tree(os.getpid())[1:]
    if leftovers:
        print(f"perfbench: child processes left behind: {leftovers}", file=sys.stderr)
        return 3
    print(json.dumps(report["diagnostics"], sort_keys=True))
    print(json.dumps(report["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
