"""Append-only benchmark history (``HISTORY.jsonl``) for trend tracking.

A single committed ``BENCH_dp.json`` answers "is the current engine as
fast as the last blessed run?"; the history file answers "how did we get
here?".  ``repro-sched bench --append HISTORY.jsonl`` adds one timestamped
line per benchmark run, so the per-PR performance trajectory accumulates
in-repo and stays grep/`jq`-able (one self-contained JSON object per
line, never rewritten).

Each line::

    {"schema": "repro.perf/bench-history/v1",
     "timestamp": "2026-08-07T12:34:56+00:00",
     "engine_version": "...", "quick": false,
     "cases": <number of cases>,
     "report": <the full validated bench report>}

The regression gate composes with this: ``--compare`` accepts either a
plain report file or a history file, gating against the **latest** history
entry — so a repo that appends on every PR gets "no worse than the
previous PR" for free (:func:`load_comparison_report` does the
dispatching).  ``--median-window K`` swaps the single-entry reference for
:func:`rolling_median_reference`, which synthesizes per-case timings from
the medians of the last ``K`` same-schema entries — one anomalously fast
blessed run can no longer ratchet the gate into permanent failure.
"""

from __future__ import annotations

import json
import statistics
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from .report import BENCH_SCHEMA, BenchSchemaError, validate_report

__all__ = [
    "HISTORY_SCHEMA",
    "append_history",
    "read_history",
    "latest_history_report",
    "rolling_median_reference",
    "load_comparison_report",
]

HISTORY_SCHEMA = "repro.perf/bench-history/v1"


def append_history(
    report: Dict, path: str, *, timestamp: Optional[str] = None
) -> Dict:
    """Validate ``report`` and append one history line to ``path``.

    Returns the entry that was written.  ``timestamp`` (ISO-8601) is
    injectable for tests; it defaults to the current UTC time.
    """
    validate_report(report)
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry = {
        "schema": HISTORY_SCHEMA,
        "timestamp": timestamp,
        "engine_version": report["engine"]["version"],
        "quick": report["quick"],
        "cases": len(report["cases"]),
        "report": report,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")
    return entry


def read_history(path: str) -> List[Dict]:
    """Parse every entry of a history file, oldest first.

    Blank lines are tolerated (hand-edits happen); anything else that is
    not a valid history entry raises :class:`BenchSchemaError` with its
    line number.
    """
    entries: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BenchSchemaError(
                    f"{path}:{number}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(entry, dict) or entry.get("schema") != HISTORY_SCHEMA:
                raise BenchSchemaError(
                    f"{path}:{number}: not a {HISTORY_SCHEMA!r} entry"
                )
            if not isinstance(entry.get("report"), dict):
                raise BenchSchemaError(f"{path}:{number}: missing embedded report")
            entries.append(entry)
    return entries


def latest_history_report(path: str) -> Dict:
    """The embedded report of the newest (last) history entry."""
    entries = read_history(path)
    if not entries:
        raise BenchSchemaError(f"{path}: history file has no entries")
    report = entries[-1]["report"]
    validate_report(report)
    return report


def _median_timing(blocks: List[Dict]) -> Dict:
    # The synthesized block is a legal timing block (validate_report checks
    # it like any other); ``runs`` carries the single synthesized median,
    # since per-run samples from different benchmark runs are not
    # meaningfully poolable.
    median = statistics.median(b["median"] for b in blocks)
    return {
        "best": statistics.median(b["best"] for b in blocks),
        "median": median,
        "mean": statistics.median(b["mean"] for b in blocks),
        "runs": [median],
    }


def rolling_median_reference(path: str, window: int) -> Tuple[Dict, int]:
    """Synthesize a comparison reference from the last ``window`` entries.

    Gating against the single latest history entry makes the gate as noisy
    as that one run: one anomalously *fast* blessed run tightens the bar
    for every later PR.  This builds a steadier reference: among the last
    ``window`` history entries whose embedded report matches the current
    ``BENCH_SCHEMA`` (older-schema entries are skipped, never coerced), each
    case present in the newest such report gets timing blocks whose
    best/median/mean are the **medians** of the corresponding fields across
    the entries that measured that case, an ``engine_per_host`` that is
    the median of those entries' ratios (the figure the gate compares),
    and a ``speedup_vs_mono`` recomputed from the synthesized blocks.
    Cases (or optional columns) that only the newest report carries keep
    the newest report's numbers.

    Returns ``(report, entries_used)``; the report passes
    :func:`~repro.perf.report.validate_report`.
    """
    if window < 1:
        raise ValueError(f"median window must be >= 1, got {window}")
    entries = read_history(path)
    reports = [
        entry["report"]
        for entry in entries
        if entry["report"].get("schema") == BENCH_SCHEMA
    ]
    if not reports:
        raise BenchSchemaError(
            f"{path}: no history entries with schema {BENCH_SCHEMA!r}"
        )
    tail = reports[-window:]
    for report in tail:
        validate_report(report)
    latest = tail[-1]
    if len(tail) == 1:
        return latest, 1
    synthesized: List[Dict] = []
    for case in latest["cases"]:
        siblings = [
            c for report in tail for c in report["cases"] if c["name"] == case["name"]
        ]
        new_case = dict(case)
        for key in ("engine", "host", "decomposed"):
            if case[key] is None:
                continue  # the newest run dropped this column; keep it null
            blocks = [c[key] for c in siblings if c[key] is not None]
            new_case[key] = _median_timing(blocks)
        new_case["engine_per_host"] = statistics.median(
            c["engine_per_host"] for c in siblings
        )
        if new_case["decomposed"] is not None:
            new_case["speedup_vs_mono"] = max(
                new_case["engine"]["median"], 1e-12
            ) / max(new_case["decomposed"]["median"], 1e-12)
        synthesized.append(new_case)
    reference = dict(latest, cases=synthesized)
    validate_report(reference)
    return reference, len(tail)


def load_comparison_report(path: str) -> Tuple[Dict, str]:
    """Load a comparison reference that is either a report or a history file.

    Returns ``(report, source)`` where ``source`` is ``"report"`` for a
    plain bench report and ``"history"`` for a JSONL history file (the
    latest entry's report).  Dispatch is on content, not file extension: a
    file whose first non-blank character is ``{`` *and* that parses as a
    single JSON document is a report; otherwise it is read as history.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and data.get("schema") != HISTORY_SCHEMA:
        validate_report(data)
        return data, "report"
    if isinstance(data, dict):
        # A single-line history file parses as one JSON object too.
        report = data["report"]
        validate_report(report)
        return report, "history"
    return latest_history_report(path), "history"
