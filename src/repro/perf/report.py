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
    repeats       timed repetitions per solver per case
    warmup        untimed warmup runs per solver per case
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
    engine          timing block for the v2 (bottom-up scalar) engine
    engine_v1       timing block for the v1 (trampoline) engine (null if skipped)
    baseline        timing block for the frozen seed solver (null if skipped)
    speedup         baseline median / engine median (null if baseline skipped)
    speedup_vs_v1   engine_v1 median / engine median (null if v1 skipped)
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
                    every other comparison column is null
    engine_stats    pruning/memo counters of one v2 engine run

Timing blocks::

    {"best": s, "median": s, "mean": s, "runs": [s, ...]}

Schema history: ``bench-dp/v1`` (PR 3) measured the trampoline engine
against the frozen seed solvers only; ``bench-dp/v2`` measures the
bottom-up engine and adds the ``engine_v1`` / ``speedup_vs_v1`` comparison
columns while keeping the seed-baseline column, so the committed report
carries the full seed -> v1 -> v2 trajectory; ``bench-dp/v3`` adds the
``decomposed`` / ``speedup_vs_mono`` columns for the splittable families
solved through :mod:`repro.core.decompose` (the regression gate still keys
on the engine columns — decomposition speedups depend on core count and
are reported, not gated); ``bench-dp/v4`` added the ``engine_v3`` /
``speedup_vs_v2`` / ``engine_v3_stats`` columns for the numpy-vectorized
engine and the environment's numpy version; ``bench-dp/v5`` adds the
nullable ``portfolio`` case block for the budget-raced large-n family
(per-member times and the realized certified gap); ``bench-dp/v6``
extends the portfolio block for preemptive racing — per-member
``kill_reason`` (``beaten`` / ``deadline`` / ``admission`` / ``error``),
the ``killed`` member state, and the block-level ``backend`` /
``preemptive`` flags; ``bench-dp/v7`` drops the v4 columns and the numpy
version again, along with the vectorized engine they measured.
Portfolio cases carry no v1 column and their wall time is pinned by the
budget, not the machine, so :func:`compare_reports` records them as
skipped instead of gating them.
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

BENCH_SCHEMA = "repro.perf/bench-dp/v7"

#: A case regresses when its fresh engine median exceeds the committed
#: median by more than this factor.
DEFAULT_REGRESSION_THRESHOLD = 1.25

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
    "engine_v1",
    "baseline",
    "speedup",
    "speedup_vs_v1",
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
        _check_optional_comparison(label, case, "baseline", "speedup")
        _check_optional_comparison(label, case, "engine_v1", "speedup_vs_v1")
        _check_optional_comparison(label, case, "decomposed", "speedup_vs_mono")
        if case["portfolio"] is not None:
            _check_portfolio(f"{label}.portfolio", case["portfolio"])
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


def compare_reports(
    fresh: Dict,
    committed: Dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_median: float = DEFAULT_REGRESSION_MIN_MEDIAN,
) -> Dict[str, List]:
    """Gate a fresh report against a committed one.

    Cases are matched by name.  When both reports carry the v1-comparison
    column, a case is gated on its v2-over-v1 speedup — the v1 engine is
    frozen code timed in the *same* run, so v2's advantage over it is a
    machine-independent measure and survives CI runners slower or faster
    than the machine that produced the committed report.  The speedup is
    computed from each side's **best** run rather than the median:
    best-of-N is the standard interference-robust estimator, and a ratio
    of medians on few-repeat ~10 ms cases would flap with scheduler noise.
    A case without the v1 column on either side falls back to the absolute
    engine-median ratio.  Either way, a case **regresses** when its ratio
    (committed speedup / fresh speedup, or fresh median / committed
    median) exceeds ``threshold``.

    Cases whose committed engine median is under ``min_median`` seconds
    are reported as ``skipped`` (too noisy to gate), and names present in
    only one report as ``unmatched``.

    When the two reports were produced by different Python versions,
    absolute timings are not comparable, so a note is added to
    ``warnings`` — reported, never gated.

    Returns ``{"regressions": [...], "compared": [...], "skipped": [...],
    "unmatched": [...], "warnings": [...]}`` where each regression entry
    is ``{"name", "metric", "fresh_value", "committed_value", "ratio"}``
    with ``metric`` one of ``"speedup_vs_v1"`` / ``"engine_median"``, and
    each warning is a human-readable string.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    committed_by_name = {case["name"]: case for case in committed["cases"]}
    regressions: List[Dict] = []
    compared: List[str] = []
    skipped: List[str] = []
    unmatched: List[str] = []
    warnings: List[str] = []
    mine = (fresh.get("environment") or {}).get("python")
    theirs = (committed.get("environment") or {}).get("python")
    if mine != theirs:
        warnings.append(
            f"Python version differs between reports "
            f"(fresh: {mine or 'absent'}, committed: {theirs or 'absent'}); "
            "absolute timings are not directly comparable across interpreters "
            "— the gate keys on within-run ratios where it can"
        )
    fresh_names = set()
    for case in fresh["cases"]:
        name = case["name"]
        fresh_names.add(name)
        reference = committed_by_name.get(name)
        if reference is None:
            unmatched.append(name)
            continue
        if case.get("portfolio") is not None or reference.get("portfolio") is not None:
            # Portfolio cases spend their wall-clock budget by design and
            # carry no within-run v1 ratio, so an absolute-time gate on
            # them would only measure the CI runner, not the code.
            skipped.append(name)
            continue
        if reference["engine"]["median"] < min_median:
            skipped.append(name)
            continue
        compared.append(name)
        fresh_v1 = case["engine_v1"]
        committed_v1 = reference["engine_v1"]
        if fresh_v1 is not None and committed_v1 is not None:
            metric = "speedup_vs_v1"
            fresh_value = fresh_v1["best"] / max(case["engine"]["best"], 1e-12)
            committed_value = committed_v1["best"] / max(
                reference["engine"]["best"], 1e-12
            )
            ratio = committed_value / max(fresh_value, 1e-12)
        else:
            metric = "engine_median"
            fresh_value = case["engine"]["median"]
            committed_value = reference["engine"]["median"]
            ratio = fresh_value / committed_value
        if ratio > threshold:
            regressions.append(
                {
                    "name": name,
                    "metric": metric,
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
        "unmatched": unmatched,
        "warnings": warnings,
    }
