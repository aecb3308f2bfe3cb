"""O(n log n) lower bounds on gaps, power, and feasibility.

Every bound here is *valid by construction* on single-processor
one-interval instances (the large-n regime the portfolio targets) and
returns a :class:`~repro.bounds.certificate.BoundCertificate` whose witness
re-checks in :func:`repro.verify.certificates.certify_bound` without
re-running the sweep that found it.

The structural fact all value bounds share: every complete schedule's busy
slots lie inside the union of the jobs' execution windows.  When that union
splits into ``k`` maximal intervals ("window components") separated by
uncovered time, each component holds at least one busy slot, so at least
``k - 1`` idle periods separate busy periods — that is ``k - 1`` gaps for
the gap objective, and for the power objective each seam's idle period is
at least as wide as the uncovered stretch, costing ``min(width, alpha)``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..core.jobs import (
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
)
from ..matching import hopcroft_karp
from .certificate import BoundCertificate

__all__ = [
    "window_components",
    "gap_lower_bound",
    "power_lower_bound",
    "hall_deficiency",
    "matching_feasibility",
    "multiproc_gap_lower_bound",
    "multiproc_power_lower_bound",
    "union_components",
    "multi_interval_gap_lower_bound",
    "multi_interval_power_lower_bound",
    "lower_bound_for",
]

#: Edge-count ceiling above which :func:`matching_feasibility` refuses to
#: materialise the job/slot bipartite graph.
MATCHING_EDGE_LIMIT = 500_000


def window_components(instance: OneIntervalInstance) -> List[Tuple[int, int]]:
    """Maximal intervals of the union of execution windows.

    Two windows belong to the same component when their union is contiguous
    (touching counts: ``[0, 2]`` and ``[3, 5]`` merge, ``[0, 2]`` and
    ``[4, 5]`` do not — slot 3 is uncovered and forces idleness).
    """
    windows = sorted(job.window for job in instance.jobs)
    components: List[Tuple[int, int]] = []
    for release, deadline in windows:
        if components and release <= components[-1][1] + 1:
            start, end = components[-1]
            components[-1] = (start, max(end, deadline))
        else:
            components.append((release, deadline))
    return components


def interval_coverage(releases: List[int], deadlines: List[int], length: int) -> int:
    """Max number of job windows intersecting any interval of ``length`` slots.

    ``releases`` and ``deadlines`` are the jobs' release times and
    deadlines, each in ascending order, so a caller probing several
    lengths sorts once.  Window ``[r, d]`` intersects ``[t, t + length -
    1]`` exactly when ``t in [r - length + 1, d]``, so this is an O(n)
    max-overlap sweep over those shifted intervals.
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    best = active = 0
    i = j = 0
    n = len(releases)
    shift = length - 1
    while i < n:
        # Window [r, d] is active on the sweep positions [r - length + 1, d];
        # break ties by deactivating before activating at the same position.
        if deadlines[j] + 1 <= releases[i] - shift:
            active -= 1
            j += 1
        else:
            active += 1
            i += 1
            if active > best:
                best = active
    return best


def _block_length_cap(instance: OneIntervalInstance) -> Optional[Dict[str, int]]:
    """A certified cap on the length of any busy block, or ``None``.

    A contiguous busy block of length ``l`` schedules ``l`` distinct jobs
    whose windows all intersect the block's interval, so
    ``interval_coverage(l) < l`` proves no block reaches length ``l``.  The
    probe schedule is geometric with a one-sided binary refinement; any
    *tested* failing ``l`` yields the valid cap ``l - 1``.
    """
    n = instance.num_jobs
    if n == 0:
        return None
    lo_r, hi_d = instance.horizon
    horizon = hi_d - lo_r + 1
    releases = sorted(instance.releases)
    deadlines = sorted(instance.deadlines)
    failing: Optional[int] = None
    passing = 1  # interval_coverage(1) >= 1 whenever a window exists
    probe = 2
    while probe < horizon:
        if interval_coverage(releases, deadlines, probe) < probe:
            failing = probe
            break
        passing = probe
        probe *= 2
    if failing is None:
        return None
    while failing - passing > 1:
        mid = (failing + passing) // 2
        if interval_coverage(releases, deadlines, mid) < mid:
            failing = mid
        else:
            passing = mid
    cap = failing - 1
    return {
        "probe": failing,
        "coverage": interval_coverage(releases, deadlines, failing),
        "cap": cap,
        "bound": (n + cap - 1) // cap - 1,
    }


def gap_lower_bound(instance: OneIntervalInstance) -> BoundCertificate:
    """Structural lower bound on the single-processor gap optimum.

    Combines two independent arguments and takes the better one:

    * **components** — ``k`` window components force ``k - 1`` gaps;
    * **density** — a certified block-length cap ``c`` (every busy block
      has at most ``c`` slots) forces ``ceil(n / c) - 1`` gaps.
    """
    components = window_components(instance)
    component_bound = max(0, len(components) - 1)
    density = _block_length_cap(instance)
    density_bound = density["bound"] if density else 0
    return BoundCertificate(
        kind="gap-structure",
        objective="gaps",
        value=max(component_bound, density_bound),
        witness={
            "components": [list(span) for span in components],
            "density": density,
        },
    )


def power_lower_bound(
    instance: OneIntervalInstance, alpha: float
) -> BoundCertificate:
    """``opt_power >= n + alpha + sum(min(seam_i, alpha))`` on one processor.

    ``n`` busy slots are unavoidable, the first wake-up costs ``alpha``,
    and the idle period crossing the ``i``-th uncovered seam between
    window components is at least ``seam_i`` slots wide, costing
    ``min(seam_i, alpha)`` whether the scheduler sleeps through it or not.
    """
    alpha = float(alpha)
    components = window_components(instance)
    n = instance.num_jobs
    seams = [
        components[i + 1][0] - components[i][1] - 1
        for i in range(len(components) - 1)
    ]
    density = _block_length_cap(instance)
    # Two incomparable charges for the idle periods: the seams between
    # window components each cost min(seam, alpha), while a density gap
    # count of G charges every gap at the min(1, alpha) floor.  They count
    # overlapping gaps, so take the max rather than the sum.
    seam_charge = sum(min(seam, alpha) for seam in seams)
    density_gaps = density["bound"] if density else 0
    idle_charge = max(seam_charge, density_gaps * min(1.0, alpha))
    value = n + alpha + idle_charge if n else 0.0
    return BoundCertificate(
        kind="power-structure",
        objective="power",
        value=value,
        witness={
            "components": [list(span) for span in components],
            "seams": seams,
            "density": density,
            "num_jobs": n,
        },
        alpha=alpha,
    )


class _MaxAddTree:
    """Segment tree over a fixed array supporting prefix add and argmax.

    Stores, for each leaf ``i``, a value ``base[i]`` plus every prefix
    increment applied so far; exposes the global maximum and the leftmost
    leaf attaining it.  Everything the Hall sweep needs, nothing more.
    """

    def __init__(self, base: List[float]) -> None:
        self.n = len(base)
        size = 1
        while size < self.n:
            size *= 2
        self.size = size
        neg = float("-inf")
        self.mx = [neg] * (2 * size)
        self.lazy = [0.0] * (2 * size)
        for i, v in enumerate(base):
            self.mx[size + i] = v
        for i in range(size - 1, 0, -1):
            self.mx[i] = max(self.mx[2 * i], self.mx[2 * i + 1])

    def add_prefix(self, last: int, delta: float) -> None:
        """Add ``delta`` to every leaf ``0..last`` (inclusive)."""
        self._add(1, 0, self.size - 1, 0, last, delta)

    def _add(self, node: int, lo: int, hi: int, a: int, b: int, delta: float) -> None:
        if b < lo or hi < a:
            return
        if a <= lo and hi <= b:
            self.mx[node] += delta
            self.lazy[node] += delta
            return
        mid = (lo + hi) // 2
        self._add(2 * node, lo, mid, a, b, delta)
        self._add(2 * node + 1, mid + 1, hi, a, b, delta)
        self.mx[node] = max(self.mx[2 * node], self.mx[2 * node + 1]) + self.lazy[node]

    def prefix_max(self, last: int) -> Tuple[float, int]:
        """``(max, argmax)`` over leaves ``0..last`` (inclusive)."""
        return self._query(1, 0, self.size - 1, last, 0.0)

    def _query(
        self, node: int, lo: int, hi: int, last: int, acc: float
    ) -> Tuple[float, int]:
        if lo > last:
            return (float("-inf"), -1)
        if hi <= last:
            return (self.mx[node] + acc, self._argmax_in(node, lo, hi))
        acc += self.lazy[node]
        mid = (lo + hi) // 2
        left = self._query(2 * node, lo, mid, last, acc)
        right = self._query(2 * node + 1, mid + 1, hi, last, acc)
        return left if left[0] >= right[0] else right

    def _argmax_in(self, node: int, lo: int, hi: int) -> int:
        # A node's pending lazy shifts both children equally, so the
        # descent can compare the stored child maxima directly.
        while lo < hi:
            mid = (lo + hi) // 2
            if self.mx[2 * node] >= self.mx[2 * node + 1]:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid + 1
        return lo


def hall_deficiency(instance, num_processors: int = 1) -> BoundCertificate:
    """Maximum Hall deficiency ``demand([x, y]) - p * (y - x + 1)`` in O(n log n).

    A positive value certifies infeasibility with the overloaded window as
    witness; a non-positive value certifies, by Hall's theorem for interval
    bipartite graphs, that a complete schedule exists.  This is the
    sweepline form of :func:`repro.matching.hall.hall_violation`, which
    enumerates all release/deadline pairs and is quadratic.
    """
    if isinstance(instance, MultiprocessorInstance):
        num_processors = instance.num_processors
    windows = [job.window for job in instance.jobs]
    p = int(num_processors)
    if p < 1:
        raise ValueError(f"num_processors must be positive, got {p}")
    if not windows:
        return BoundCertificate(
            kind="hall-deficiency", objective="feasibility", value=0, witness={}
        )

    releases = sorted({r for r, _d in windows})
    # v(x) = #{jobs seen so far with r_j >= x} + p * x; the deficiency of
    # window [x, y] is then v(x) - p * (y + 1) once every job with
    # d_j <= y has been folded in.
    tree = _MaxAddTree([float(p * x) for x in releases])
    by_deadline = sorted(windows, key=lambda w: w[1])

    best = float("-inf")
    best_window: Optional[Tuple[int, int]] = None
    i = 0
    m = len(by_deadline)
    while i < m:
        y = by_deadline[i][1]
        while i < m and by_deadline[i][1] == y:
            r = by_deadline[i][0]
            tree.add_prefix(bisect_right(releases, r) - 1, 1.0)
            i += 1
        # Only x <= y yields a real window; larger releases would score
        # phantom deficiency from the p * x offset alone.
        last = bisect_right(releases, y) - 1
        top, arg = tree.prefix_max(last)
        deficiency = top - p * (y + 1)
        if deficiency > best:
            best = deficiency
            best_window = (releases[arg], y)

    value = int(round(best))
    witness: Dict[str, object] = {"num_processors": p}
    if best_window is not None:
        x, y = best_window
        demand = sum(1 for r, d in windows if r >= x and d <= y)
        witness.update(
            {
                "x": x,
                "y": y,
                "demand": demand,
                "capacity": p * (y - x + 1),
            }
        )
    return BoundCertificate(
        kind="hall-deficiency", objective="feasibility", value=value, witness=witness
    )


def matching_feasibility(instance) -> BoundCertificate:
    """Feasibility via maximum bipartite matching, packaged as a certificate.

    ``value`` is the shortfall ``n - |matching|``; positive means
    infeasible.  Refuses instances whose job/slot graph would exceed
    :data:`MATCHING_EDGE_LIMIT` edges — use :func:`hall_deficiency` there.
    """
    from ..core.feasibility import build_job_slot_graph

    jobs = instance.jobs
    edges = sum(
        (job.window_length if hasattr(job, "window_length") else len(job.times))
        for job in jobs
    )
    if edges > MATCHING_EDGE_LIMIT:
        raise ValueError(
            f"job/slot graph has ~{edges} edges, above the "
            f"{MATCHING_EDGE_LIMIT} matching limit; use hall_deficiency"
        )
    graph = build_job_slot_graph(instance)
    match_left, _match_right = hopcroft_karp(graph)
    size = sum(1 for m in match_left if m != -1)
    n = len(jobs)
    return BoundCertificate(
        kind="matching-feasibility",
        objective="feasibility",
        value=n - size,
        witness={"matching_size": size, "num_jobs": n, "edges": edges},
    )


# ---------------------------------------------------------------------------
# multiprocessor bounds (Hall-deficiency per window component)
# ---------------------------------------------------------------------------
def _processor_requirement(instance: OneIntervalInstance) -> Dict[str, object]:
    """Minimal ``p`` with non-positive Hall deficiency, plus the proof.

    Returns ``{"processors": p_min, "window": [x, y] | None, "demand": D |
    None}``.  When ``p_min > 1`` the window certifies that ``p_min - 1``
    processors are overloaded: ``D`` jobs live entirely inside ``[x, y]``
    but only ``(p_min - 1) * (y - x + 1)`` slots exist there.  Binary
    search over ``p`` — ``hall_deficiency`` is monotone in ``p``.
    """
    n = instance.num_jobs
    if n == 0:
        return {"processors": 0, "window": None, "demand": None}
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if hall_deficiency(instance, mid).value <= 0:
            hi = mid
        else:
            lo = mid + 1
    if lo == 1:
        return {"processors": 1, "window": None, "demand": None}
    short = hall_deficiency(instance, lo - 1).witness
    return {
        "processors": lo,
        "window": [short["x"], short["y"]],
        "demand": short["demand"],
    }


def _component_requirements(
    base: OneIntervalInstance,
) -> List[Dict[str, object]]:
    """Per-window-component processor requirements with Hall witnesses."""
    components = window_components(base)
    starts = [a for a, _b in components]
    buckets: List[List] = [[] for _ in components]
    for job in base.jobs:
        buckets[bisect_right(starts, job.release) - 1].append(job)
    entries = []
    for span, jobs in zip(components, buckets):
        need = _processor_requirement(OneIntervalInstance(jobs))
        entries.append({"span": list(span), **need})
    return entries


def multiproc_gap_lower_bound(
    instance: MultiprocessorInstance,
) -> BoundCertificate:
    """``opt_gaps >= sum_i m_i - p`` on ``p`` processors.

    ``m_i`` is the minimal processor count on which window component ``i``
    alone is feasible (Hall's condition).  Any complete schedule has at
    least ``m_i`` processors busy inside component ``i``; a processor busy
    in ``c`` components has at least ``c - 1`` gaps, so summing over
    processors gives at least ``sum_i m_i - p`` gaps in total.
    """
    base = instance.single_processor_view()
    entries = _component_requirements(base)
    total = sum(entry["processors"] for entry in entries)
    return BoundCertificate(
        kind="multiproc-gap-structure",
        objective="gaps",
        value=max(0, total - instance.num_processors),
        witness={
            "num_processors": instance.num_processors,
            "components": entries,
        },
    )


def multiproc_power_lower_bound(
    instance: MultiprocessorInstance, alpha: float
) -> BoundCertificate:
    """``opt_power >= n + q * alpha + max(0, sum_i m_i - q) * min(1, alpha)``.

    ``q`` is the minimal processor count for the whole instance (each of
    the at-least-``q`` busy processors pays its first wake-up), and the
    component argument of :func:`multiproc_gap_lower_bound` charges every
    forced extra gap at the ``min(1, alpha)`` floor.
    """
    alpha = float(alpha)
    base = instance.single_processor_view()
    n = base.num_jobs
    entries = _component_requirements(base)
    total = sum(entry["processors"] for entry in entries)
    overall = _processor_requirement(base)
    q = overall["processors"]
    value = n + q * alpha + max(0, total - q) * min(1.0, alpha) if n else 0.0
    return BoundCertificate(
        kind="multiproc-power-structure",
        objective="power",
        value=value,
        witness={
            "num_processors": instance.num_processors,
            "num_jobs": n,
            "min_processors": overall,
            "components": entries,
        },
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# multi-interval bounds (components of the union of allowed times)
# ---------------------------------------------------------------------------
def union_components(instance: MultiIntervalInstance) -> List[Tuple[int, int]]:
    """Maximal runs of consecutive slots in the union of allowed times."""
    components: List[Tuple[int, int]] = []
    for t in instance.all_times:
        if components and t == components[-1][1] + 1:
            components[-1] = (components[-1][0], t)
        else:
            components.append((t, t))
    return components


def _pinned_components(
    instance: MultiIntervalInstance, components: List[Tuple[int, int]]
) -> List[List[int]]:
    """``[component_index, job_index]`` pairs for jobs stuck in one run.

    A job whose allowed times all fall inside one component must execute
    there; each such component therefore holds a busy slot.  Jobs whose
    times straddle several components pin nothing.
    """
    starts = [a for a, _b in components]
    pinned: Dict[int, int] = {}
    for idx, job in enumerate(instance.jobs):
        lo, hi = min(job.times), max(job.times)
        pos = bisect_right(starts, lo) - 1
        if hi <= components[pos][1] and pos not in pinned:
            pinned[pos] = idx
    return [[pos, pinned[pos]] for pos in sorted(pinned)]


def multi_interval_gap_lower_bound(
    instance: MultiIntervalInstance,
) -> BoundCertificate:
    """``opt_gaps >= (#pinned components) - 1`` for multi-interval jobs.

    Busy slots appear in every component that wholly contains some job's
    allowed set, and distinct components are separated by slots no job may
    use — forced idle time, hence a gap between each consecutive pair.
    """
    components = union_components(instance)
    pinned = _pinned_components(instance, components)
    return BoundCertificate(
        kind="multiinterval-gap-structure",
        objective="gaps",
        value=max(0, len(pinned) - 1),
        witness={
            "components": [list(span) for span in components],
            "pinned": pinned,
        },
    )


def multi_interval_power_lower_bound(
    instance: MultiIntervalInstance, alpha: float
) -> BoundCertificate:
    """``opt_power >= n + alpha + sum(min(uncovered_i, alpha))``.

    ``uncovered_i`` is the number of slots between consecutive *pinned*
    components that belong to no job's allowed set: those slots are idle
    in every schedule, and the idle intervals between two pinned busy
    regions cost at least ``min(total width, alpha)`` (sub-additivity of
    ``min(., alpha)``).
    """
    alpha = float(alpha)
    components = union_components(instance)
    pinned = _pinned_components(instance, components)
    n = instance.num_jobs
    seams = []
    for (i, _j1), (k, _j2) in zip(pinned, pinned[1:]):
        between = components[k][0] - components[i][1] - 1
        covered = sum(b - a + 1 for a, b in components[i + 1 : k])
        seams.append(between - covered)
    idle_charge = sum(min(float(s), alpha) for s in seams)
    value = n + alpha + idle_charge if n else 0.0
    return BoundCertificate(
        kind="multiinterval-power-structure",
        objective="power",
        value=value,
        witness={
            "components": [list(span) for span in components],
            "pinned": pinned,
            "seams": seams,
            "num_jobs": n,
        },
        alpha=alpha,
    )


def lower_bound_for(problem) -> Optional[BoundCertificate]:
    """The cheap lower bound matching ``problem``'s objective, or ``None``.

    Covers single-processor one-interval instances (the large-n regime the
    portfolio's heuristics target), ``p``-processor instances via
    per-component Hall deficiency, and multi-interval instances via the
    components of the union of allowed times.  Only the ``"throughput"``
    objective is left unbounded.
    """
    instance = problem.instance
    if isinstance(instance, MultiprocessorInstance) and instance.num_processors == 1:
        instance = instance.single_processor_view()
    if isinstance(instance, MultiprocessorInstance):
        if problem.objective == "gaps":
            return multiproc_gap_lower_bound(instance)
        if problem.objective == "power":
            return multiproc_power_lower_bound(instance, problem.alpha)
        return None
    if isinstance(instance, MultiIntervalInstance):
        if problem.objective == "gaps":
            return multi_interval_gap_lower_bound(instance)
        if problem.objective == "power":
            return multi_interval_power_lower_bound(instance, problem.alpha)
        return None
    if not isinstance(instance, OneIntervalInstance):
        return None
    if problem.objective == "gaps":
        return gap_lower_bound(instance)
    if problem.objective == "power":
        return power_lower_bound(instance, problem.alpha)
    return None
