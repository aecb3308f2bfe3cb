"""The ``exact`` and ``portfolio`` workloads: one caller, one request at a time.

The caller is :mod:`sut_child`, a fresh process that calls
:func:`repro.api.solve` in-process.  This runner hands it one request,
waits for the answer, checks it, and calibrates whenever a quarter second
of work has passed.  A budget race gets calibration windows of its own, so
its raw (budget-set) CPU time never mixes with normalized work.
"""

from __future__ import annotations

import time
from typing import Dict, List

from calib import Calibrator, tree_peak_rss_mb
from harness import (
    MIN_REQUESTS,
    MIN_TRACED_REQUESTS,
    SETUPS,
    Blocks,
    ChildSUT,
    Context,
    Record,
    check_answer,
    end_to_end,
    diagnostics,
    measure_setups,
    race_class,
)
from inputs import BUDGET, PORTFOLIO_PATTERN, EXACT_SHAPES, STREAMS, Request
from report import layer_metrics

#: Wall-clock budget of every portfolio race, in seconds.
BUDGET_S = 1.0

#: Per-request timeouts: a request not answered by then counts as failed.
TIMEOUT_S = {"exact": 20.0, "portfolio": BUDGET_S + 10.0}

#: Requests per input cycle; runs stop on a whole cycle so every run
#: solves the same mix.
CYCLE = {"exact": len(EXACT_SHAPES), "portfolio": len(PORTFOLIO_PATTERN)}

_EXACT_MEMBERS = {"gap-dp": "dp", "power-dp": "dp"}


def _check_design(record: Record, counters: Dict[str, int]) -> None:
    request = record.request
    if counters["fresh"] != request.fresh or counters["hits"] != request.hits:
        record.issues.append(
            f"cache traffic fresh={counters['fresh']} hits={counters['hits']}, "
            f"designed fresh={request.fresh} hits={request.hits}"
        )
    if request.race is not None and record.result is not None:
        observed = race_class(record.result)
        if observed != request.race:
            record.issues.append(f"race settled by {observed}, designed {request.race}")
    record.ok = record.ok and not record.issues


def _race_probes(record: Record) -> None:
    """What the race recorded about itself: pin time, overshoot, winner."""
    portfolio = record.result.extra["portfolio"]
    winner = portfolio["winner"]
    record.probes["winner"] = _EXACT_MEMBERS.get(winner, winner.split("-")[0])
    if record.request.race == BUDGET:
        record.probes["overshoot_s"] = record.latency_s - BUDGET_S
    else:
        pin = next(m for m in portfolio["members"] if m["name"] == winner)
        record.probes["pin_s"] = pin["wall_time"]


def run(ctx: Context, workload: str) -> Dict:
    budget = BUDGET_S if workload == "portfolio" else None
    expected = ctx.expected(workload)
    # The portfolio races three members on two cores, so it calibrates
    # with both CPUs loaded; the exact caller runs on one.
    calibrator = Calibrator(width=2 if workload == "portfolio" else 1)
    sut = None
    records: List[Record] = []
    try:
        sut, setups = measure_setups(
            lambda: ChildSUT(ctx, workload), calibrator, count=1 if ctx.trace else SETUPS
        )
        blocks = Blocks(calibrator)
        stream = STREAMS[workload](ctx.seed)
        start = time.perf_counter()
        least = MIN_TRACED_REQUESTS if ctx.trace else MIN_REQUESTS
        while True:
            whole = len(records) % CYCLE[workload] == 0
            if whole and len(records) >= least and time.perf_counter() - start >= ctx.seconds:
                break
            if expected is not None and len(records) >= len(expected):
                break
            request: Request = next(stream)
            race_to_budget = request.race == BUDGET
            if race_to_budget and blocks.records:
                blocks.close()
            reply = sut.request(request, budget, ctx.trace, TIMEOUT_S[workload])
            if reply is None:
                records.append(Record(request, TIMEOUT_S[workload]))
                check_answer(records[-1])
                break  # the caller is stuck; the run ends here
            _kind, latency, result, counters, probes = reply
            record = Record(request, latency, cpu_bound=not race_to_budget,
                            result=result, probes={**probes, **counters})
            records.append(record)
            blocks.records.append(record)
            if race_to_budget or blocks.due():
                blocks.close(cpu_bound=not race_to_budget)
            check_answer(record, None if expected is None else expected[request.index])
            _check_design(record, counters)
            if workload == "portfolio" and record.result is not None:
                _race_probes(record)
        blocks.finish()
        peak_rss = tree_peak_rss_mb(sut.pid)
    finally:
        if sut is not None:
            sut.close()
        calibrator.close()

    e2e = end_to_end(records, setups, blocks.timed_norm, blocks.timed_raw,
                     blocks.cpu_norm, blocks.cpu_raw, peak_rss)
    outcome = {"records": records, "e2e": e2e, "calibrator": calibrator,
               "sut_cpu_s": blocks.cpu_raw, "granted": blocks.granted}
    if ctx.trace:
        extra = diagnostics(calibrator, e2e)
        outcome["layers"] = layer_metrics(workload, records, extra)
    return outcome
