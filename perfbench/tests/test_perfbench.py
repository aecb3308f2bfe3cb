"""Tests of the benchmark's own machinery (no system under test is started).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import statistics
import time
from pathlib import Path

import pytest

from calib import SMOOTH_WINDOWS, Calibrator, reference_kernel, smoothed, tail_percentile
from harness import Blocks, Record, race_class
from inputs import (
    BUDGET,
    DP,
    HEURISTIC,
    PORTFOLIO_PATTERN,
    SERVICE_PATTERN,
    exact_requests,
    service_requests,
)
from report import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def _work() -> int:
    """CPU-bound work unlike the kernel: sort and scan a list."""
    rng = random.Random(1)
    data = [rng.random() for _ in range(20_000)]
    data.sort()
    return sum(1 for a, b in zip(data, data[1:]) if b - a > 1e-5)


class _FakeCpu:
    """SUT CPU reader that advances by ``step`` on every read."""

    def __init__(self, step: float) -> None:
        self.now, self.step = 0.0, step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _normalized_work(slowdown: int) -> float:
    """Median normalized time of ``_work`` on a host ``slowdown`` times slower."""
    calibrator = Calibrator(kernel=lambda: [reference_kernel() for _ in range(slowdown)])
    blocks = Blocks(calibrator)
    done = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(slowdown):
            _work()
        done.append(Record(request=None, latency_s=time.perf_counter() - start))
        blocks.records.append(done[-1])
        blocks.close()
    blocks.finish()
    return statistics.median(r.norm_s for r in done)


def test_slower_host_leaves_normalized_time_unchanged():
    # Same work, with the host emulated 2x slower for both the kernel and
    # the workload: the normalized time must not follow the slowdown.
    ratios = [_normalized_work(2) / _normalized_work(1) for _ in range(3)]
    assert 0.7 < statistics.median(ratios) < 1.4


def test_budget_spans_and_their_cpu_stay_raw():
    calibrator = Calibrator(kernel=lambda: [reference_kernel() for _ in range(2)],
                            sut_cpu=_FakeCpu(0.0))
    blocks = Blocks(calibrator)
    raced = Record(request=None, latency_s=1.0, cpu_bound=False)
    solved = Record(request=None, latency_s=1.0)
    blocks.records.append(raced)
    blocks.close(cpu_bound=False)
    blocks.records.append(solved)
    blocks.close()
    blocks.finish()
    assert raced.norm_s == 1.0
    assert solved.norm_s == pytest.approx(1.0 / solved.factor)
    assert solved.factor > 1.0


def test_calibration_guard_flags_sut_work_in_the_window():
    busy = Calibrator(kernel=lambda: None, sut_cpu=_FakeCpu(0.5))
    busy.measure()
    assert busy.busy_windows == 1 and busy.leaked_cpu_s == pytest.approx(0.5)
    assert not busy.guard_holds(timed_cpu_s=10.0)
    assert busy.guard_holds(timed_cpu_s=100.0)
    idle = Calibrator(kernel=lambda: None, sut_cpu=_FakeCpu(0.0))
    idle.measure()
    assert idle.busy_windows == 0 and idle.guard_holds(timed_cpu_s=0.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(100)))[0] == 90.0
    q, value = tail_percentile(list(range(50)))
    assert q == pytest.approx(80.0) and value == pytest.approx(39.2)


def test_smoothed_factor_averages_neighbouring_windows():
    assert SMOOTH_WINDOWS == 4
    factors = [1.0] * 4 + [3.0] * 4 + [5.0] * 4
    assert smoothed(factors, 4) == pytest.approx(2.0)
    assert smoothed(factors, 0) == pytest.approx(1.0)
    assert smoothed(factors, 11) == pytest.approx(4.6)


def test_streams_are_deterministic_and_follow_their_design():
    from repro.api import to_json
    from repro.core.canonical import canonical_form

    first = [to_json(r.problem) for _, r in zip(range(6), exact_requests(3))]
    again = [to_json(r.problem) for _, r in zip(range(6), exact_requests(3))]
    assert first == again
    keys = {canonical_form(r.problem.instance).key for _, r in zip(range(24), exact_requests(3))}
    assert len(keys) == 24

    jobs = [r for _, r in zip(range(len(SERVICE_PATTERN)), service_requests(3, 1))]
    assert [r.kind[0].upper() for r in jobs] == list(SERVICE_PATTERN)
    assert sum(r.hits for r in jobs) == SERVICE_PATTERN.count("R")
    assert {r.problem.instance.num_jobs % 2 for r in jobs if r.kind == "tiny"} == {1}
    assert PORTFOLIO_PATTERN.count("B") / len(PORTFOLIO_PATTERN) <= 0.08


def test_race_class_reads_the_member_records():
    class _Result:
        def __init__(self, winner, reasons):
            members = [{"name": n, "kill_reason": r} for n, r in reasons.items()]
            self.extra = {"portfolio": {"winner": winner, "members": members}}

    assert race_class(_Result("gap-dp", {"edf-gap": None, "gap-dp": None})) == DP
    assert race_class(_Result("localsearch-gap", {"gap-dp": "beaten"})) == HEURISTIC
    assert race_class(_Result("localsearch-power", {"power-dp": "deadline"})) == BUDGET


def test_benchmark_manifest_matches_the_printed_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER
    assert {w["name"] for w in manifest["workloads"]} == {"exact", "service", "portfolio"}
