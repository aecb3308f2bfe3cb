"""Stable JSON report schema for the interval-DP benchmark (``BENCH_dp.json``).

The report is a machine-readable artifact: CI uploads it on every push and
fails the build when its shape drifts, so downstream tooling (trend plots,
regression gates) can rely on the keys below.  ``validate_report`` is
deliberately strict in both directions — missing *and* unexpected keys are
schema drift.  :func:`compare_reports` is the regression gate CI runs
against the committed report.

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
                    before each timed engine repeat (null on portfolio cases)
    engine_per_host median of the per-repeat engine/host time ratios: the
                    machine-independent figure the gate compares (null on
                    portfolio cases)
    decomposed      timing block for the decomposed façade solve, caches off
                    (null on cases without the decompose column)
    speedup_vs_mono engine median / decomposed median (null if not measured)
    portfolio       budget-raced portfolio block (null on the exact-DP
                    cases): ``{"budget", "status", "winner", "upper",
                    "lower", "ratio", "backend", "preemptive", "members"}``
                    where ``members`` lists every roster member's
                    ``{"name", "state", "status", "wall_time",
                    "kill_reason"}`` — the state/reason pair explains where
                    the budget went (``killed``/``beaten`` means a finisher
                    pinned the optimum first); on portfolio cases the
                    ``engine`` block times the end-to-end raced solve and
                    every other timing column is null
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
``BENCH_history.jsonl`` keeps the last seed -> v1 -> v2 trajectory).
Portfolio cases carry no host column and their wall time is pinned by
the budget, not the machine, so :func:`compare_reports` lists them apart
instead of gating them.
"""

from __future__ import annotations

import json
import platform
from typing import Any, Dict, List

__all__ = [
    "BENCH_SCHEMA",
    "BenchSchemaError",
    "environment_fingerprint",
    "validate_report",
    "validate_report_file",
    "write_report",
    "load_report",
    "compare_reports",
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_REGRESSION_MIN_MEDIAN",
]

BENCH_SCHEMA = "repro.perf/bench-dp/v8"

#: A case regresses when its fresh ``engine_per_host`` ratio exceeds the
#: committed ratio by more than this factor.
DEFAULT_REGRESSION_THRESHOLD = 1.25

#: Largest difference between a fresh and a committed optimum that still
#: counts as the same value (the power objective is a float).
VALUE_TOLERANCE = 1e-6

#: Cases whose committed engine median is below this many seconds are
#: excluded from the regression gate: micro-cases are dominated by timer
#: and allocator noise, and a ratio gate on them would be flaky.
DEFAULT_REGRESSION_MIN_MEDIAN = 0.005

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
    "portfolio",
    "engine_stats",
}
_TIMING_KEYS = {"best", "median", "mean", "runs"}
_PORTFOLIO_KEYS = {
    "budget",
    "status",
    "winner",
    "upper",
    "lower",
    "ratio",
    "backend",
    "preemptive",
    "members",
}
_PORTFOLIO_MEMBER_KEYS = {"name", "state", "status", "wall_time", "kill_reason"}
_MEMBER_STATES = ("ran", "killed", "cancelled")
_KILL_REASONS = ("beaten", "deadline", "admission", "error")


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


def _check_portfolio(label: str, block: Any) -> None:
    """The nullable per-case portfolio block (budget race outcome)."""
    if not isinstance(block, dict):
        raise BenchSchemaError(f"{label}: portfolio block must be an object")
    _require_keys(label, block, _PORTFOLIO_KEYS)
    if not isinstance(block["budget"], (int, float)) or block["budget"] <= 0:
        raise BenchSchemaError(f"{label}.budget: must be a positive number")
    if not isinstance(block["status"], str) or not block["status"]:
        raise BenchSchemaError(f"{label}.status: must be a non-empty string")
    if block["winner"] is not None and not isinstance(block["winner"], str):
        raise BenchSchemaError(f"{label}.winner: must be a string or null")
    if not isinstance(block["upper"], (int, float)):
        raise BenchSchemaError(f"{label}.upper: must be a number")
    for key in ("lower", "ratio"):
        if block[key] is not None and not isinstance(block[key], (int, float)):
            raise BenchSchemaError(f"{label}.{key}: must be a number or null")
    if not isinstance(block["backend"], str) or not block["backend"]:
        raise BenchSchemaError(f"{label}.backend: must be a non-empty string")
    if not isinstance(block["preemptive"], bool):
        raise BenchSchemaError(f"{label}.preemptive: must be a boolean")
    members = block["members"]
    if not isinstance(members, list) or not members:
        raise BenchSchemaError(f"{label}.members: must be a non-empty list")
    for index, member in enumerate(members):
        member_label = f"{label}.members[{index}]"
        if not isinstance(member, dict):
            raise BenchSchemaError(f"{member_label}: must be an object")
        _require_keys(member_label, member, _PORTFOLIO_MEMBER_KEYS)
        if not isinstance(member["name"], str) or not member["name"]:
            raise BenchSchemaError(f"{member_label}.name: must be a non-empty string")
        if member["state"] not in _MEMBER_STATES:
            raise BenchSchemaError(
                f"{member_label}.state: must be one of {_MEMBER_STATES}"
            )
        if member["status"] is not None and not isinstance(member["status"], str):
            raise BenchSchemaError(f"{member_label}.status: must be a string or null")
        if member["wall_time"] is not None and not isinstance(
            member["wall_time"], (int, float)
        ):
            raise BenchSchemaError(
                f"{member_label}.wall_time: must be a number or null"
            )
        reason = member["kill_reason"]
        if member["state"] == "ran":
            if reason is not None:
                raise BenchSchemaError(
                    f"{member_label}.kill_reason: must be null for state 'ran'"
                )
        elif reason not in _KILL_REASONS:
            raise BenchSchemaError(
                f"{member_label}.kill_reason: must be one of {_KILL_REASONS} "
                f"for state {member['state']!r}"
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
        _check_optional_comparison(label, case, "host", "engine_per_host")
        _check_optional_comparison(label, case, "decomposed", "speedup_vs_mono")
        if case["portfolio"] is not None:
            _check_portfolio(f"{label}.portfolio", case["portfolio"])
        elif case["host"] is None:
            raise BenchSchemaError(
                f"{label}.host: exact-DP cases must carry the host column"
            )
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


def load_report(path: str) -> Dict:
    """Read a benchmark report from ``path`` (without validating it)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_report_file(path: str) -> Dict:
    """Load and validate a report file, returning the parsed data."""
    data = load_report(path)
    validate_report(data)
    return data


def values_agree(a, b) -> bool:
    """Whether two optima (``None`` = infeasible) are the same value."""
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= VALUE_TOLERANCE


def compare_reports(
    fresh: Dict,
    committed: Dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_median: float = DEFAULT_REGRESSION_MIN_MEDIAN,
) -> Dict[str, List]:
    """Gate a fresh report against a committed one.

    Cases are matched by name.  A shared exact-DP case **regresses** when

    * its ``value`` differs from the committed one by more than
      :data:`VALUE_TOLERANCE`, or one side is infeasible (``null``) and the
      other is not (metric ``"value"``; checked on every shared exact
      case, below the noise floor too — the optima are deterministic), or
    * its fresh ``engine_per_host`` exceeds the committed one by more than
      ``threshold`` (metric ``"engine_per_host"``).  Each ratio divides
      the engine's time by a frozen host kernel timed just before it in
      the same run, so a machine uniformly slower or faster than the one
      that produced the committed report leaves it unchanged, while an
      engine slowdown moves it by its full factor.

    Cases whose committed engine median is under ``min_median`` seconds
    are ``skipped`` by the timing gate (too noisy to gate), budget-raced
    portfolio cases are listed under ``portfolio`` and never gated (their
    wall time is pinned by the budget), and names present in only one
    report are ``unmatched``.

    When the two reports were produced by different Python versions, a
    note is added to ``warnings`` — reported, never gated: the kernel and
    the engine do not speed up by the same factor across interpreters.

    Returns ``{"regressions": [...], "compared": [...], "skipped": [...],
    "portfolio": [...], "unmatched": [...], "warnings": [...]}`` where
    each regression entry is ``{"name", "metric", "fresh_value",
    "committed_value", "ratio"}`` (``ratio`` is null for ``"value"``
    entries), and each warning is a human-readable string.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    committed_by_name = {case["name"]: case for case in committed["cases"]}
    regressions: List[Dict] = []
    compared: List[str] = []
    skipped: List[str] = []
    portfolio: List[str] = []
    unmatched: List[str] = []
    warnings: List[str] = []
    mine = (fresh.get("environment") or {}).get("python")
    theirs = (committed.get("environment") or {}).get("python")
    if mine != theirs:
        warnings.append(
            f"Python version differs between reports "
            f"(fresh: {mine or 'absent'}, committed: {theirs or 'absent'}); "
            "the engine and the host kernel need not speed up by the same "
            "factor across interpreters, so engine/host ratios shift"
        )
    fresh_names = set()
    for case in fresh["cases"]:
        name = case["name"]
        fresh_names.add(name)
        reference = committed_by_name.get(name)
        if reference is None:
            unmatched.append(name)
            continue
        if case["portfolio"] is not None or reference["portfolio"] is not None:
            portfolio.append(name)
            continue
        if not values_agree(case["value"], reference["value"]):
            regressions.append(
                {
                    "name": name,
                    "metric": "value",
                    "fresh_value": case["value"],
                    "committed_value": reference["value"],
                    "ratio": None,
                }
            )
        if reference["engine"]["median"] < min_median:
            skipped.append(name)
            continue
        compared.append(name)
        fresh_value = case["engine_per_host"]
        committed_value = reference["engine_per_host"]
        ratio = fresh_value / max(committed_value, 1e-12)
        if ratio > threshold:
            regressions.append(
                {
                    "name": name,
                    "metric": "engine_per_host",
                    "fresh_value": fresh_value,
                    "committed_value": committed_value,
                    "ratio": ratio,
                }
            )
    unmatched.extend(sorted(set(committed_by_name) - fresh_names))
    return {
        "regressions": regressions,
        "compared": compared,
        "skipped": skipped,
        "portfolio": portfolio,
        "unmatched": unmatched,
        "warnings": warnings,
    }
