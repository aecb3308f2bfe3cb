"""Run the interval-DP engine's timing gate.

Usage, from the repository root (every path is relative to the working
directory)::

    python benchdp/run.py --quick
    python benchdp/run.py

``--quick`` is CI's gate: it times the 5-case smoke matrix (5 repeats
after 1 warmup), validates and writes ``BENCH_smoke.json``, and exits 1
when a case's optimum changed or its ``engine_per_host`` exceeds 1.25x
the rolling median of the last 5 same-schema entries of
``BENCH_history.jsonl``.  Without it the full matrix is timed (3 repeats
after 1 warmup), written to ``BENCH_dp.json`` and appended to the
history as one line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Import this directory as the ``benchdp`` package, never its modules
    # by their bare names (``perfbench/`` has a ``report.py`` too), and
    # time the engine of this checkout.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

from benchdp.bench import run_bench  # noqa: E402
from benchdp.report import (  # noqa: E402
    REGRESSION_THRESHOLD,
    BenchSchemaError,
    append_history,
    compare_reports,
    rolling_median_reference,
    write_report,
)

FULL_REPORT = "BENCH_dp.json"
SMOKE_REPORT = "BENCH_smoke.json"
HISTORY = "BENCH_history.jsonl"

#: The quick gate's reference is the rolling median of this many history
#: entries, so one anomalously fast recorded run cannot ratchet the bar.
MEDIAN_WINDOW = 5


def _print_case(record) -> None:
    engine_ms = record["engine"]["median"] * 1000.0
    host_ms = record["host"]["median"] * 1000.0
    line = (
        f"{record['name']:<28} engine {engine_ms:>9.2f} ms   "
        f"host {host_ms:>6.2f} ms   "
        f"engine/host {record['engine_per_host']:>8.3f}"
    )
    if record["decomposed"] is not None:
        dec_ms = record["decomposed"]["median"] * 1000.0
        line += (
            f"   decomp {dec_ms:>9.2f} ms "
            f"({record['speedup_vs_mono']:.2f}x vs mono)"
        )
    print(line)


def _record_full_matrix() -> int:
    report = run_bench(quick=False, repeats=3, warmup=1, progress=_print_case)
    write_report(report, FULL_REPORT)
    entry = append_history(report, HISTORY)
    print(f"report written to {FULL_REPORT}")
    print(f"history appended to {HISTORY} ({entry['timestamp']})")
    return 0


def _gate(reference, entries_used: int) -> int:
    report = run_bench(quick=True, repeats=5, warmup=1, progress=_print_case)
    write_report(report, SMOKE_REPORT)
    print(f"report written to {SMOKE_REPORT}")
    outcome = compare_reports(report, reference)
    for warning in outcome["warnings"]:
        print(f"  note: {warning}")
    print(
        f"regression gate vs {HISTORY} (rolling median of last "
        f"{entries_used} entries): "
        f"{len(outcome['compared'])} cases compared, "
        f"{len(outcome['skipped'])} skipped (below the noise floor), "
        f"{len(outcome['unmatched'])} unmatched"
    )
    for entry in outcome["regressions"]:
        if entry["metric"] == "value":
            detail = (
                f"optimum {entry['fresh_value']} differs from "
                f"committed {entry['committed_value']}"
            )
        else:
            detail = (
                f"engine/host {entry['fresh_value']:.3f} vs committed "
                f"{entry['committed_value']:.3f} "
                f"({entry['ratio']:.2f}x > {REGRESSION_THRESHOLD:.2f}x)"
            )
        print(f"  REGRESSION {entry['name']}: {detail}")
    if outcome["regressions"]:
        return 1
    print(
        f"no case regressed: optima unchanged, engine/host within "
        f"{REGRESSION_THRESHOLD:.2f}x"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the interval-DP engine against a frozen host-speed "
        f"kernel: the full matrix into {FULL_REPORT} and {HISTORY}, or, with "
        "--quick, CI's regression gate."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"time the smoke matrix into {SMOKE_REPORT} and gate it against "
        f"the rolling median of {HISTORY}",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        return _record_full_matrix()
    # Read the reference before the (slow) run, so a missing or broken
    # history fails fast.
    try:
        reference, entries_used = rolling_median_reference(HISTORY, MEDIAN_WINDOW)
    except (OSError, BenchSchemaError) as exc:
        parser.error(f"cannot read the gate's reference {HISTORY!r}: {exc}")
    return _gate(reference, entries_used)


if __name__ == "__main__":
    sys.exit(main())
