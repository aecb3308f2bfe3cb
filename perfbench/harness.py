"""Shared machinery: run context, answer checks, the child SUT, metrics.

A *record* is one request as the caller saw it: its latency, the speed
factor of the block it ran in, the answer, and whether the answer passed
every check.  End-to-end metrics are computed from records alone, so the
three workloads report the same nine names with the same definitions.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from calib import (
    Calibrator,
    bracket,
    granted_share,
    host_ticks,
    percentile,
    smoothed,
    tail_percentile,
    tree_cpu_s,
)
from inputs import BUDGET, DP, HEURISTIC, Request

HERE = Path(__file__).resolve().parent

#: The seed whose optimal values are pinned in :data:`FIXTURE`.
DEFAULT_SEED = 0
FIXTURE = HERE / "fixtures" / "seed0.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SETUP_WINDOWS = 3

#: Requests needed for p90 to have ten samples beyond it.
MIN_REQUESTS = 100

#: The traced run reports medians only, so it may stop sooner.
MIN_TRACED_REQUESTS = 40

#: Seconds of work between two calibration windows.
CALIBRATE_EVERY_S = 0.25

#: Seconds a fresh SUT process may take to report ready.
READY_TIMEOUT_S = 60.0

#: A named remainder below this share of its request's latency means the
#: layer probes claim more time than the request took.
REMAINDER_TOLERANCE = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, dead SUT)."""


@dataclass
class Context:
    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool

    def env(self) -> Dict[str, str]:
        """Child environment: the checkout's sources, no inherited REPRO_* knobs."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(self.root / "src"), str(HERE)])
        return env

    def expected(self, workload: str) -> Optional[object]:
        """Fixture values for this workload, on the default seed only."""
        if self.seed != DEFAULT_SEED:
            return None
        with open(FIXTURE) as handle:
            return json.load(handle)[workload]


@dataclass
class Record:
    request: Request
    latency_s: float
    factor: float = 1.0
    cpu_bound: bool = True
    result: object = None
    ok: bool = False
    optimal: bool = False
    ratio: Optional[float] = None
    issues: List[str] = field(default_factory=list)
    probes: Dict[str, object] = field(default_factory=dict)
    #: service only: job id, client send time and answer-in-hand time
    times: Dict[str, object] = field(default_factory=dict)

    @property
    def norm_s(self) -> float:
        return self.latency_s / self.factor if self.cpu_bound else self.latency_s


# ---------------------------------------------------------------------------
# answer checks (never inside a timed span)
# ---------------------------------------------------------------------------
def check_answer(record: Record, expected_value=None) -> None:
    """Certify the answer, its bound, and (default seed) its value."""
    from repro.verify import certify_bound, certify_result
    from repro.verify.certificates import values_close

    problem, result = record.request.problem, record.result
    if result is None:
        record.issues.append("no answer within the request timeout")
        return
    cert = certify_result(problem, result)
    record.issues.extend(cert.issues)
    portfolio = result.extra.get("portfolio")
    if isinstance(portfolio, dict) and portfolio.get("lower_bound") is not None:
        record.issues.extend(certify_bound(problem, portfolio["lower_bound"]).issues)
    if expected_value is not None and result.value is not None:
        if not values_close(result.value, expected_value):
            record.issues.append(f"value {result.value} != fixture {expected_value}")
    record.optimal = result.status in ("optimal", "infeasible")
    gap = result.extra.get("optimality_gap")
    record.ratio = 1.0 if record.optimal else (gap or {}).get("ratio")
    if record.ratio is None:
        record.issues.append("answer carries no certified ratio")
    record.ok = not record.issues


def race_class(result) -> str:
    """Who settled a portfolio race, read from the member records."""
    members = result.extra["portfolio"]["members"]
    if any(m["kill_reason"] == "deadline" for m in members):
        return BUDGET
    if result.extra["portfolio"]["winner"] in ("gap-dp", "power-dp"):
        return DP
    return HEURISTIC


# ---------------------------------------------------------------------------
# the child process for the in-process workloads
# ---------------------------------------------------------------------------
class ChildSUT:
    """``sut_child.py`` in a fresh process; ``setup_s`` is start to ready."""

    def __init__(self, ctx: Context, workload: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sut_child.py"), workload],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ctx.tmp,
            env=ctx.env(),
        )
        self.pid = self.proc.pid
        try:
            reply = self._read(READY_TIMEOUT_S)
            if reply is None or reply[0] != "ready":
                raise BenchError(f"{workload} SUT did not become ready")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self, timeout: float):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            return None

    def request(self, request: Request, budget, trace: bool, timeout: float):
        pickle.dump(("solve", request.problem, budget, trace, request.race), self.proc.stdin)
        self.proc.stdin.flush()
        return self._read(timeout)

    def cpu_s(self) -> float:
        return tree_cpu_s(self.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                pickle.dump(("exit",), self.proc.stdin)
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Blocks:
    """Work between calibration windows, and the run's timed/CPU totals.

    :meth:`close` calibrates (the SUT must be idle) and charges the block
    the SUT CPU it used and the share of wanted CPU the VM was granted.
    :meth:`finish` then stamps every record with its block's factor (the
    smoothed speed factor over the granted share: wall-clock spans lose
    stolen time and then scale to the nominal host) and adds up the
    totals; CPU time, which never includes stolen time, is divided by the
    speed factor alone.  ``wall_s`` is a block's timed span when requests
    overlap (service); a closed loop with one caller times the sum of its
    request latencies.  A block that is not ``cpu_bound`` (a race its
    budget ended) keeps its raw times.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.cal = calibrator
        self.first = len(calibrator.factors)
        calibrator.measure()
        self.cpu_mark = calibrator.cpu_after
        self.ticks_mark = host_ticks()
        self.granted: List[float] = []
        self.blocks: List[tuple] = []
        self.records: List[Record] = []
        self.started = time.perf_counter()
        self.timed_raw = self.timed_norm = self.cpu_raw = self.cpu_norm = 0.0

    def due(self) -> bool:
        return time.perf_counter() - self.started >= CALIBRATE_EVERY_S

    def close(self, wall_s: Optional[float] = None, cpu_bound: bool = True) -> None:
        granted = granted_share(self.ticks_mark, host_ticks())
        self.cal.measure()
        self.ticks_mark = host_ticks()
        cpu = self.cal.cpu_before - self.cpu_mark
        after = len(self.cal.factors) - 1 - self.first
        self.granted.append(granted)
        self.blocks.append((self.records, wall_s, cpu, cpu_bound, after, granted))
        self.cpu_mark = self.cal.cpu_after
        self.records = []
        self.started = time.perf_counter()

    def finish(self) -> None:
        if self.records:
            self.close()
        factors = self.cal.factors[self.first:]
        for records, wall_s, cpu, cpu_bound, after, granted in self.blocks:
            speed = smoothed(factors, after)
            factor = speed / granted
            for record in records:
                record.factor = factor
            self.cpu_raw += cpu
            self.cpu_norm += cpu / speed if cpu_bound else cpu
            if wall_s is None:
                self.timed_raw += sum(r.latency_s for r in records)
                self.timed_norm += sum(r.norm_s for r in records)
            else:
                self.timed_raw += wall_s
                self.timed_norm += wall_s / factor


def measure_setups(make_sut, calibrator: Calibrator, count: int = SETUPS):
    """Start the SUT ``count`` times; keep the last, return it and the set-ups.

    Each set-up loses the time stolen from it and is normalized by the
    mean of :data:`SETUP_WINDOWS` calibration windows on each side of it.
    """
    def windows() -> float:
        return statistics.fmean(calibrator.measure() for _ in range(SETUP_WINDOWS))

    setups, sut = [], None
    before = windows()
    for _attempt in range(count):
        if sut is not None:
            sut.close()
        ticks = host_ticks()
        sut = make_sut()
        granted = granted_share(ticks, host_ticks())
        calibrator.sut_cpu = sut.cpu_s
        after = windows()
        setups.append((sut.setup_s, bracket(before, after) / granted))
        before = after
    return sut, setups


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(records: List[Record], setups, timed_norm_s: float, timed_raw_s: float,
               cpu_norm_s: float, cpu_raw_s: float, peak_rss_mb: float) -> Dict[str, Dict]:
    """The nine end-to-end metrics plus their unnormalized counterparts."""
    answered = [r for r in records if r.ok]
    attempted = max(len(records), 1)
    n_ans = max(len(answered), 1)
    norm = [r.norm_s * 1000.0 for r in records]
    raw = [r.latency_s * 1000.0 for r in records]
    tail_q, tail = tail_percentile(norm)
    _q, raw_tail = tail_percentile(raw)
    ratios = [r.ratio for r in answered if r.ratio is not None]
    metrics = {
        "setup_s": (statistics.median(s / f for s, f in setups), "s"),
        "answers_per_s": (len(answered) / timed_norm_s, "1/s"),
        "latency_p50_ms": (percentile(norm, 50), "ms"),
        "latency_p90_ms": (tail, "ms"),
        "cpu_ms_per_answer": (cpu_norm_s * 1000.0 / n_ans, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "answered_frac": (len(answered) / attempted, "fraction"),
        "optimal_frac": (sum(r.ok and r.optimal for r in records) / attempted, "fraction"),
        "ratio_mean": (statistics.fmean(ratios) if ratios else float("nan"), "ratio"),
    }
    raw_metrics = {
        "raw.setup_s": (statistics.median(s for s, _f in setups), "s"),
        "raw.answers_per_s": (len(answered) / timed_raw_s, "1/s"),
        "raw.latency_p50_ms": (percentile(raw, 50), "ms"),
        "raw.latency_p90_ms": (raw_tail, "ms"),
        "raw.cpu_ms_per_answer": (cpu_raw_s * 1000.0 / n_ans, "ms"),
    }
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    out["_raw"] = {name: value for name, (value, _unit) in raw_metrics.items()}
    out["_tail_percentile"] = tail_q
    return out


def diagnostics(calibrator: Calibrator, e2e: Dict) -> Dict[str, float]:
    """Per-layer diagnostics every traced run reports: host speed and raw values."""
    return {**calibrator.summary(), **e2e["_raw"]}


def median_of(records: List[Record], key: str, normalize: bool = True):
    """Median of one probe in ms over the records that carry it (0.0 when none do)."""
    values = [
        r.probes[key] * 1000.0 / (r.factor if normalize else 1.0)
        for r in records if key in r.probes
    ]
    return statistics.median(values) if values else 0.0
