"""Metric names, units and the per-layer aggregation of a traced run.

Every workload prints every metric.  A per-layer metric whose layer the
workload never reaches reads 0.0; a layer that is reached always reads
above zero.  Times are medians per request in milliseconds, divided by
the speed factor of the request's block unless a budget sets them.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from harness import REMAINDER_TOLERANCE, Record, median_of
from inputs import BUDGET, DP, HEURISTIC

END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_answer": "ms",
    "peak_rss_mb": "MB",
    "answered_frac": "fraction",
    "optimal_frac": "fraction",
    "ratio_mean": "ratio",
}

PER_LAYER = {
    "core.interval_dp.solve_ms": "ms",
    "core.interval_dp.states": "count",
    "core.vector_kernels.node_frac": "fraction",
    "core.canonical.form_ms": "ms",
    "core.list_heuristics.edf_ms": "ms",
    "core.list_heuristics.localsearch_ms": "ms",
    "api.decomposition.try_ms": "ms",
    "api.facade.remainder_ms": "ms",
    "api.serialization.to_json_ms": "ms",
    "api.serialization.from_json_ms": "ms",
    "api.solvers.fresh_solves": "count/answer",
    "api.solvers.cache_hit_frac": "fraction",
    "service.http.submit_ms": "ms",
    "service.queue.wait_ms": "ms",
    "service.queue.wait_p90_ms": "ms",
    "service.daemon.run_ms": "ms",
    "service.http.fetch_ms": "ms",
    "service.daemon.jobs_per_round": "count",
    "service.queue.submit_ms": "ms",
    "service.queue.claim_ms": "ms",
    "service.queue.complete_ms": "ms",
    "bounds.lower_bound_ms": "ms",
    "portfolio.race.pin_ms": "ms",
    "portfolio.race.remainder_ms": "ms",
    "portfolio.race.overshoot_ms": "ms",
    "portfolio.race.win_share.edf": "fraction",
    "portfolio.race.win_share.localsearch": "fraction",
    "portfolio.race.win_share.dp": "fraction",
    "runtime.pool.kill_ms": "ms",
    "runtime.pool.respawns_per_race": "count",
    "host.speed_factor": "ratio",
    "host.speed_factor_q1": "ratio",
    "host.speed_factor_q3": "ratio",
    "raw.setup_s": "s",
    "raw.answers_per_s": "1/s",
    "raw.latency_p50_ms": "ms",
    "raw.latency_p90_ms": "ms",
    "raw.cpu_ms_per_answer": "ms",
    "trace.overhead_frac": "fraction",
    "trace.negative_remainder_frac": "fraction",
}

#: Probe keys whose seconds count toward the traced run's overhead.
_PROBE_SECONDS = (
    "engine_s", "canonical_s", "to_json_s", "from_json_s", "decompose_s",
    "lower_bound_s", "edf_s", "localsearch_s", "kill_s",
    "queue_submit_s", "queue_claim_s", "queue_complete_s",
)


def _remainders(records: List[Record], layer_keys) -> List[float]:
    """Per request: latency minus the named layers, normalized, in ms."""
    return [
        (r.latency_s - sum(r.probes.get(k, 0.0) for k in layer_keys)) * 1000.0 / r.factor
        for r in records
    ]


def _negative_share(records: List[Record], remainders: List[float]) -> float:
    if not records:
        return 0.0
    limit = [-REMAINDER_TOLERANCE * r.norm_s * 1000.0 for r in records]
    return sum(rem < lim for rem, lim in zip(remainders, limit)) / len(records)


def layer_metrics(workload: str, records: List[Record], extra: Dict[str, float]) -> Dict[str, float]:
    """Aggregate a traced run's probes into the per-layer metric values.

    ``extra`` carries what the workload measured itself (host, raw,
    service-only figures); it overrides the defaults computed here.
    """
    values = {name: 0.0 for name in PER_LAYER}
    answered = [r for r in records if r.ok] or records
    values["core.canonical.form_ms"] = median_of(records, "canonical_s")
    values["api.serialization.to_json_ms"] = median_of(records, "to_json_s")
    values["api.serialization.from_json_ms"] = median_of(records, "from_json_s")
    engine = [r for r in records if "engine_s" in r.probes]
    if engine:
        values["core.interval_dp.solve_ms"] = median_of(engine, "engine_s")
        values["core.interval_dp.states"] = statistics.median(r.probes["states"] for r in engine)
        vector = [r.probes["vector_frac"] for r in engine if "vector_frac" in r.probes
                  and r.request.problem.objective == "power"
                  and getattr(r.request.problem.instance, "num_processors", 1) >= 2]
        if vector:
            values["core.vector_kernels.node_frac"] = statistics.fmean(vector)
    probe_s = sum(sum(r.probes.get(k, 0.0) for k in _PROBE_SECONDS) for r in records)
    latency_s = sum(r.latency_s for r in records) or 1.0
    values["trace.overhead_frac"] = probe_s / latency_s

    if workload == "exact":
        fresh = sum(r.probes.get("fresh", 0) for r in records)
        hits = sum(r.probes.get("hits", 0) for r in records)
        values["api.solvers.fresh_solves"] = fresh / len(answered)
        values["api.solvers.cache_hit_frac"] = hits / max(fresh + hits, 1)
        values["api.decomposition.try_ms"] = median_of(records, "decompose_s")
        rem = _remainders(records, ("engine_s", "canonical_s", "decompose_s"))
        values["api.facade.remainder_ms"] = statistics.median(rem)
        values["trace.negative_remainder_frac"] = _negative_share(records, rem)
    elif workload == "portfolio":
        values["bounds.lower_bound_ms"] = median_of(records, "lower_bound_s")
        values["core.list_heuristics.edf_ms"] = median_of(records, "edf_s")
        values["core.list_heuristics.localsearch_ms"] = median_of(records, "localsearch_s")
        values["runtime.pool.kill_ms"] = median_of(records, "kill_s")
        values["runtime.pool.respawns_per_race"] = statistics.fmean(
            r.probes.get("killed", 0) for r in records)
        pinned = [r for r in records if r.request.race in (HEURISTIC, DP) and "pin_s" in r.probes]
        if pinned:
            values["portfolio.race.pin_ms"] = median_of(pinned, "pin_s")
            rem = _remainders(pinned, ("lower_bound_s", "pin_s"))
            values["portfolio.race.remainder_ms"] = statistics.median(rem)
            values["trace.negative_remainder_frac"] = _negative_share(pinned, rem)
        budget = [r for r in records if r.request.race == BUDGET and "overshoot_s" in r.probes]
        if budget:
            values["portfolio.race.overshoot_ms"] = median_of(budget, "overshoot_s", normalize=False)
        winners = [r.probes["winner"] for r in records if "winner" in r.probes]
        for kind in ("edf", "localsearch", "dp"):
            values[f"portfolio.race.win_share.{kind}"] = (
                sum(w == kind for w in winners) / len(winners) if winners else 0.0)
    values.update(extra)
    return values
