"""The benchmark report (``BENCH_dp.json``), its history and the gate.

The report is a machine-readable artifact: CI uploads it on every push and
the gate validates it before writing it, so downstream tooling (trend
plots, regression gates) can rely on the keys below.  ``validate_report``
is deliberately strict in both directions — missing *and* unexpected keys
are schema drift.  Every full-matrix run appends one line to the history
(``BENCH_history.jsonl``), and :func:`compare_reports` is the regression
gate CI runs against :func:`rolling_median_reference` of that history.

Top-level keys::

    schema        the literal schema id (BENCH_SCHEMA)
    engine        {"name", "version"} of the engine family under test
    quick         whether this was the reduced CI smoke matrix
    seed          master instance-generator seed
    repeats       timed repetitions per case
    warmup        untimed warmup runs per case
    environment   {"python", "implementation", "platform"}
    cases         list of per-case records

Per-case keys::

    name            unique case id, e.g. "gap/uniform-n40-p3"
    objective       "gaps" | "power"
    family          generator family the instance came from
    num_jobs        n
    num_processors  p
    alpha           wake-up cost (null for the gap objective)
    value           optimal objective value (null when infeasible)
    engine          timing block for the interval-DP engine
    host            timing block for the frozen host kernel, one run just
                    before each timed engine repeat
    engine_per_host median of the per-repeat engine/host time ratios: the
                    machine-independent figure the gate compares
    decomposed      timing block for the decomposed façade solve, caches off
                    (null on cases without the decompose column)
    speedup_vs_mono engine median / decomposed median (null if not measured)
    engine_stats    pruning/memo counters of one engine run

Timing blocks::

    {"best": s, "median": s, "mean": s, "runs": [s, ...]}

Schema history: ``bench-dp/v1`` (PR 3) measured the trampoline engine
against the frozen seed solvers only; ``bench-dp/v2`` measures the
bottom-up engine and adds a column for the trampoline engine and its
speedup ratio while keeping the seed-solver column, so the committed
report carries the full seed -> v1 -> v2 trajectory; ``bench-dp/v3`` adds
the ``decomposed`` / ``speedup_vs_mono`` columns for the splittable
families solved through :mod:`repro.core.decompose` (the regression gate
still keys on the engine columns — decomposition speedups depend on core
count and are reported, not gated); ``bench-dp/v4`` added the
``engine_v3`` / ``speedup_vs_v2`` / ``engine_v3_stats`` columns for the
numpy-vectorized engine and the environment's numpy version;
``bench-dp/v5`` adds the nullable ``portfolio`` case block for the
budget-raced large-n family (per-member times and the realized certified
gap); ``bench-dp/v6`` extends the portfolio block for preemptive racing —
per-member ``kill_reason`` (``beaten`` / ``deadline`` / ``admission`` /
``error``), the ``killed`` member state, and the block-level ``backend``
/ ``preemptive`` flags; ``bench-dp/v7`` drops the v4 columns and the
numpy version again, along with the vectorized engine they measured;
``bench-dp/v8`` replaces the trampoline-engine, seed-solver and speedup
columns with the ``host`` block and the ``engine_per_host`` ratio,
because the code they timed was deleted (the v7 entry of
``BENCH_history.jsonl`` keeps the last seed -> v1 -> v2 trajectory);
``bench-dp/v9`` drops the ``portfolio`` case block with the budget-raced
family it described and makes ``host`` and ``engine_per_host`` required
on every case (a raced solve's wall time is pinned by its budget, and the
repository's ``perfbench`` ``portfolio`` workload measures races end to
end).
"""

from __future__ import annotations

import json
import platform
import statistics
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BENCH_SCHEMA",
    "HISTORY_SCHEMA",
    "BenchSchemaError",
    "environment_fingerprint",
    "validate_report",
    "write_report",
    "append_history",
    "read_history",
    "rolling_median_reference",
    "compare_reports",
    "REGRESSION_THRESHOLD",
    "MIN_ENGINE_PER_HOST",
]

#: The report's and a history line's schema ids.  They are data, named
#: after the package the gate used to live in: ``BENCH_dp.json`` and every
#: history line carry them, and the gate reads only matching entries.
BENCH_SCHEMA = "repro.perf/bench-dp/v9"
HISTORY_SCHEMA = "repro.perf/bench-history/v1"

#: A case regresses when its fresh ``engine_per_host`` ratio exceeds the
#: reference ratio by more than this factor.
REGRESSION_THRESHOLD = 1.25

#: Largest difference between a fresh and a reference optimum that still
#: counts as the same value (the power objective is a float).
VALUE_TOLERANCE = 1e-6

#: Cases whose reference ``engine_per_host`` is below this are excluded
#: from the timing gate: an engine run under a tenth of the host kernel's
#: time is dominated by timer and allocator noise.  The floor is relative
#: to the host kernel, as the gated figure is, so how busy the host was
#: when the reference was recorded does not decide which cases are timed.
MIN_ENGINE_PER_HOST = 0.1

_TOP_KEYS = {
    "schema",
    "engine",
    "quick",
    "seed",
    "repeats",
    "warmup",
    "environment",
    "cases",
}
_CASE_KEYS = {
    "name",
    "objective",
    "family",
    "num_jobs",
    "num_processors",
    "alpha",
    "value",
    "engine",
    "host",
    "engine_per_host",
    "decomposed",
    "speedup_vs_mono",
    "engine_stats",
}
_TIMING_KEYS = {"best", "median", "mean", "runs"}


class BenchSchemaError(ValueError):
    """Raised when a benchmark report does not match :data:`BENCH_SCHEMA`."""


def environment_fingerprint() -> Dict[str, Any]:
    """The environment block stamped into every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def _require_keys(name: str, data: Dict, expected: set) -> None:
    actual = set(data)
    missing = expected - actual
    unexpected = actual - expected
    if missing:
        raise BenchSchemaError(f"{name}: missing keys {sorted(missing)}")
    if unexpected:
        raise BenchSchemaError(f"{name}: unexpected keys {sorted(unexpected)}")


def _check_timing(name: str, block: Any) -> None:
    if not isinstance(block, dict):
        raise BenchSchemaError(f"{name}: timing block must be an object")
    _require_keys(name, block, _TIMING_KEYS)
    for key in ("best", "median", "mean"):
        if not isinstance(block[key], (int, float)) or block[key] < 0:
            raise BenchSchemaError(f"{name}.{key}: must be a non-negative number")
    runs = block["runs"]
    if not isinstance(runs, list) or not runs:
        raise BenchSchemaError(f"{name}.runs: must be a non-empty list")
    for value in runs:
        if not isinstance(value, (int, float)) or value < 0:
            raise BenchSchemaError(f"{name}.runs: entries must be non-negative numbers")


def _check_optional_comparison(
    label: str, case: Dict, timing_key: str, ratio_key: str
) -> None:
    """A nullable timing block paired with a ratio that must match its presence."""
    if case[timing_key] is not None:
        _check_timing(f"{label}.{timing_key}", case[timing_key])
        if not isinstance(case[ratio_key], (int, float)):
            raise BenchSchemaError(
                f"{label}.{ratio_key}: must be a number when {timing_key} is present"
            )
    elif case[ratio_key] is not None:
        raise BenchSchemaError(
            f"{label}.{ratio_key}: must be null without {timing_key}"
        )


def validate_report(data: Any) -> None:
    """Raise :class:`BenchSchemaError` unless ``data`` matches the schema exactly."""
    if not isinstance(data, dict):
        raise BenchSchemaError("report must be a JSON object")
    _require_keys("report", data, _TOP_KEYS)
    if data["schema"] != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"schema id {data['schema']!r} does not match {BENCH_SCHEMA!r}"
        )
    engine = data["engine"]
    if not isinstance(engine, dict):
        raise BenchSchemaError("report.engine must be an object")
    _require_keys("report.engine", engine, {"name", "version"})
    if not isinstance(data["quick"], bool):
        raise BenchSchemaError("report.quick must be a boolean")
    for key in ("seed", "repeats", "warmup"):
        if not isinstance(data[key], int):
            raise BenchSchemaError(f"report.{key} must be an integer")
    environment = data["environment"]
    if not isinstance(environment, dict):
        raise BenchSchemaError("report.environment must be an object")
    _require_keys(
        "report.environment", environment, {"python", "implementation", "platform"}
    )
    cases = data["cases"]
    if not isinstance(cases, list) or not cases:
        raise BenchSchemaError("report.cases must be a non-empty list")
    seen_names = set()
    for index, case in enumerate(cases):
        label = f"cases[{index}]"
        if not isinstance(case, dict):
            raise BenchSchemaError(f"{label}: must be an object")
        _require_keys(label, case, _CASE_KEYS)
        if not isinstance(case["name"], str) or not case["name"]:
            raise BenchSchemaError(f"{label}.name: must be a non-empty string")
        if case["name"] in seen_names:
            raise BenchSchemaError(f"{label}.name: duplicate case {case['name']!r}")
        seen_names.add(case["name"])
        if case["objective"] not in ("gaps", "power"):
            raise BenchSchemaError(f"{label}.objective: must be 'gaps' or 'power'")
        for key in ("num_jobs", "num_processors"):
            if not isinstance(case[key], int) or case[key] < 0:
                raise BenchSchemaError(f"{label}.{key}: must be a non-negative integer")
        if case["alpha"] is not None and not isinstance(case["alpha"], (int, float)):
            raise BenchSchemaError(f"{label}.alpha: must be a number or null")
        if case["value"] is not None and not isinstance(case["value"], (int, float)):
            raise BenchSchemaError(f"{label}.value: must be a number or null")
        _check_timing(f"{label}.engine", case["engine"])
        _check_timing(f"{label}.host", case["host"])
        if not isinstance(case["engine_per_host"], (int, float)):
            raise BenchSchemaError(f"{label}.engine_per_host: must be a number")
        _check_optional_comparison(label, case, "decomposed", "speedup_vs_mono")
        if not isinstance(case["engine_stats"], dict):
            raise BenchSchemaError(f"{label}.engine_stats: must be an object")
        for key, value in case["engine_stats"].items():
            if not isinstance(value, int):
                raise BenchSchemaError(
                    f"{label}.engine_stats[{key!r}]: counters must be integers"
                )


def write_report(data: Dict, path: str) -> None:
    """Validate ``data`` and write it as deterministic, indented JSON."""
    validate_report(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# the append-only history
# ---------------------------------------------------------------------------
def append_history(
    report: Dict, path: str, *, timestamp: Optional[str] = None
) -> Dict:
    """Validate ``report`` and append one history line to ``path``.

    Each line is one self-contained JSON object, never rewritten::

        {"schema": HISTORY_SCHEMA, "timestamp": "2026-08-07T12:34:56+00:00",
         "engine_version": "...", "quick": false,
         "cases": <number of cases>, "report": <the full validated report>}

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
    """Synthesize the gate's reference from the last ``window`` entries.

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
    :func:`validate_report`.
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


# ---------------------------------------------------------------------------
# the regression gate
# ---------------------------------------------------------------------------


def values_agree(a, b) -> bool:
    """Whether two optima (``None`` = infeasible) are the same value."""
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= VALUE_TOLERANCE


def compare_reports(fresh: Dict, reference: Dict) -> Dict[str, List]:
    """Gate a fresh report against a reference one.

    Cases are matched by name.  A shared case **regresses** when

    * its ``value`` differs from the reference one by more than
      :data:`VALUE_TOLERANCE`, or one side is infeasible (``null``) and the
      other is not (metric ``"value"``; checked on every shared exact
      case, below the noise floor too — the optima are deterministic), or
    * its fresh ``engine_per_host`` exceeds the reference one by more than
      :data:`REGRESSION_THRESHOLD` (metric ``"engine_per_host"``).  Each
      ratio divides the engine's time by a frozen host kernel timed just
      before it in the same run, so a machine uniformly slower or faster
      than the one that produced the reference leaves it unchanged, while
      an engine slowdown moves it by its full factor.

    Cases whose reference ``engine_per_host`` is under
    :data:`MIN_ENGINE_PER_HOST` are ``skipped`` by the timing gate (too
    noisy to gate), and names present in only one report are
    ``unmatched``.

    When the two reports were produced by different Python versions, a
    note is added to ``warnings`` — reported, never gated: the kernel and
    the engine do not speed up by the same factor across interpreters.

    Returns ``{"regressions": [...], "compared": [...], "skipped": [...],
    "unmatched": [...], "warnings": [...]}`` where
    each regression entry is ``{"name", "metric", "fresh_value",
    "committed_value", "ratio"}`` (``ratio`` is null for ``"value"``
    entries), and each warning is a human-readable string.
    """
    reference_by_name = {case["name"]: case for case in reference["cases"]}
    regressions: List[Dict] = []
    compared: List[str] = []
    skipped: List[str] = []
    unmatched: List[str] = []
    warnings: List[str] = []
    mine = (fresh.get("environment") or {}).get("python")
    theirs = (reference.get("environment") or {}).get("python")
    if mine != theirs:
        warnings.append(
            f"Python version differs between reports "
            f"(fresh: {mine or 'absent'}, reference: {theirs or 'absent'}); "
            "the engine and the host kernel need not speed up by the same "
            "factor across interpreters, so engine/host ratios shift"
        )
    fresh_names = set()
    for case in fresh["cases"]:
        name = case["name"]
        fresh_names.add(name)
        base = reference_by_name.get(name)
        if base is None:
            unmatched.append(name)
            continue
        if not values_agree(case["value"], base["value"]):
            regressions.append(
                {
                    "name": name,
                    "metric": "value",
                    "fresh_value": case["value"],
                    "committed_value": base["value"],
                    "ratio": None,
                }
            )
        if base["engine_per_host"] < MIN_ENGINE_PER_HOST:
            skipped.append(name)
            continue
        compared.append(name)
        fresh_value = case["engine_per_host"]
        committed_value = base["engine_per_host"]
        ratio = fresh_value / max(committed_value, 1e-12)
        if ratio > REGRESSION_THRESHOLD:
            regressions.append(
                {
                    "name": name,
                    "metric": "engine_per_host",
                    "fresh_value": fresh_value,
                    "committed_value": committed_value,
                    "ratio": ratio,
                }
            )
    unmatched.extend(sorted(set(reference_by_name) - fresh_names))
    return {
        "regressions": regressions,
        "compared": compared,
        "skipped": skipped,
        "unmatched": unmatched,
        "warnings": warnings,
    }
