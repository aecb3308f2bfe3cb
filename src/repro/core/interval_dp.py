"""The unified interval dynamic-programming engine behind Theorems 1 and 2.

Both exact results of the paper — multiprocessor gap minimization
(Theorem 1) and multiprocessor power minimization (Theorem 2) — are the same
Baptiste-style interval dynamic program over the state space
``(t1, t2, k, q, b1, b2)``: schedule the ``k`` earliest-deadline jobs
released in the candidate-column interval ``[t1, t2]``, with ``q``
processors at column ``t2`` already taken by enclosing subproblems and
boundary parameters ``b1`` / ``b2`` at the two end columns.  The recursion
branches on the execution column ``t'`` of the latest-deadline job; jobs
released after ``t'`` form the right subproblem and the rest the left one.

What differs between the two theorems is only the *value algebra*:

* :class:`GapObjective` — the subproblem value is a vector indexed by the
  exact maximum column occupancy of the subinterval (so the root can apply
  the ``- used processors`` correction of Lemma 1 without losing
  optimality); boundary parameters count the subproblem's *own* jobs at the
  end columns and splits pay a run-start charge.
* :class:`PowerObjective` — the subproblem value is a scalar power cost;
  boundary parameters count *active* processors and splits pay the
  closed-form bridging charge ``min(stretch, alpha)`` per processor active
  on both sides of an idle stretch (Lemma 2).

:class:`IntervalDPEngine` evaluates either objective; every solver, the
façade, the runtime and the service run it, with no optional dependency.
It evaluates **bottom-up**: a discovery pass walks the ``(t1, t2, k)`` node
graph from the root, propagating the set of reachable ``q`` values per
node, and the evaluation pass then processes nodes in increasing
interval-length / job-count order.  Every node's ``(q, b1, b2)`` boundary
variants live in one flat list indexed by the packed variant offset, so
the hot combine loop reads child tables by direct list indexing — no
generators, no suspension objects, and no dict hashing.  Node job sets are
built incrementally (released-job lists extend their length-minus-one
predecessor; split counts come from a two-pointer merge instead of
per-column bisects).  Hall-condition pre-pruning (a violated
prefix/suffix count proves every boundary variant of a node empty),
dominance pruning of the gap objective's occupancy vectors, and iterative
schedule reconstruction keep it exact and in O(1) native stack depth.

The solvers in :mod:`repro.core.multiproc_gap_dp` and
:mod:`repro.core.multiproc_power_dp` are thin bindings of these objectives
onto the engine; :mod:`repro.verify` certifies engine results against brute
force and :mod:`repro.perf` times the engine against a frozen host-speed
reference kernel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .dp_profile import IntervalDecomposition
from .exceptions import InvalidInstanceError
from .jobs import MultiprocessorInstance
from .schedule import MultiprocessorSchedule

__all__ = [
    "ENGINE_NAME",
    "ENGINE_VERSION",
    "BOTTOM_UP_ENGINE_VERSION",
    "EngineStats",
    "EngineOutcome",
    "GapObjective",
    "PowerObjective",
    "IntervalDPEngine",
    "staircase_schedule",
]

ENGINE_NAME = "interval-dp"
#: Version of the current engine generation.  This is what namespaces the
#: canonicalization and disk caches — bumping it silently invalidates every
#: previously cached entry, so replayed engine metadata always matches the
#: code that would recompute it (4.0 retired the numpy-kernel evaluator,
#: whose entries carried metadata no remaining code produces).
ENGINE_VERSION = "4.0"
#: Version of the bottom-up, array-packed scalar evaluator (the
#: ``extra.engine.version`` every envelope carries).
BOTTOM_UP_ENGINE_VERSION = "2.0"

_INF = float("inf")

#: Node job-count below which the Hall pre-check is skipped: the check costs
#: O(k log C) per node, and below a few jobs the states it could prune are
#: cheaper than the check.
_HALL_CHECK_MIN_JOBS = 4

# Choice records stored in the value tables; reconstruction replays them.
_EMPTY_CHOICE = ("empty",)


@dataclass
class EngineStats:
    """Counters describing one engine run (exposed as JSON-native ints).

    ``states_computed`` counts DP states whose value table was
    materialised, ``memo_hits`` counts child-table reads served from the
    already-computed flat tables, and ``peak_stack_depth`` is the longest
    dependency chain of the node DAG; it is at least 1 whenever any state
    was computed.
    """

    states_computed: int = 0
    memo_hits: int = 0
    hall_pruned: int = 0
    dominance_dropped: int = 0
    plans_built: int = 0
    peak_stack_depth: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "states_computed": self.states_computed,
            "memo_hits": self.memo_hits,
            "hall_pruned": self.hall_pruned,
            "dominance_dropped": self.dominance_dropped,
            "plans_built": self.plans_built,
            "peak_stack_depth": self.peak_stack_depth,
        }


@dataclass
class EngineOutcome:
    """Raw outcome of one engine run: optimal value and a witnessing assignment."""

    feasible: bool
    value: Optional[float]
    assignment: Optional[Dict[int, int]]  # job index -> execution time
    stats: EngineStats


def _hall_feasible(
    jobs, columns: List[int], p: int, node_jobs: Tuple[int, ...],
    releases: List[int], t1: int, t2: int,
) -> bool:
    """Necessary Hall-style feasibility of the node jobs on candidate columns.

    Checks prefix intervals ``[t1, d]`` over clipped deadlines and suffix
    intervals ``[r, t2]`` over releases (already inside the interval by
    construction) against capacity ``p`` per candidate column.  A violation
    proves the state (under *any* boundary parameters) admits no
    assignment, so the whole ``(q, b1, b2)`` family is pruned; passing
    proves nothing and the state is evaluated normally.
    """
    lo = bisect_left(columns, t1)
    hi = bisect_right(columns, t2)
    # Prefix: node jobs arrive in deadline order, so clipped deadlines are
    # non-decreasing and prefix counts are positional.
    for count, j in enumerate(node_jobs, start=1):
        d = jobs[j].deadline
        if d > t2:
            d = t2
        if count > p * (bisect_right(columns, d, lo, hi) - lo):
            return False
    # Suffix: same argument over releases, scanned from the right.
    for count, r in enumerate(reversed(releases), start=1):
        if count > p * (hi - bisect_left(columns, r, lo, hi)):
            return False
    return True


class GapObjective:
    """Value algebra of Theorem 1: gap count via occupancy-indexed vectors.

    Boundary parameters count the subproblem's own jobs at the end columns;
    the table maps each achievable exact maximum occupancy ``M`` to the
    cheapest run-start count, and the root applies ``+ b1 - M`` (first
    column's run-starts minus used processors).
    """

    name = "gaps"

    def __init__(self, num_processors: int) -> None:
        self.p = num_processors
        #: Size of the value-table label space (occupancies 0..p).
        self.num_labels = num_processors + 1
        self._charges: Dict = {}

    def invalid_state(self, k: int, q: int, b1: int, b2: int) -> bool:
        return b1 > k or b2 > k or q + b2 > self.p

    def pre_branch_invalid(self, k: int, b1: int, b2: int) -> bool:
        return b1 + b2 > k

    def single_column(self, k, q, b1, b2, node_jobs, t):
        # All k jobs execute at the single column; boundary counts must agree.
        if b1 != b2 or b1 != k:
            return ()
        if k == 0:
            return ((q, (0, _EMPTY_CHOICE)),)
        if k + q > self.p:
            return ()
        return ((k + q, (0, ("column", node_jobs, t))),)

    def empty_interval(self, q, b1, b2, t1, t2):
        if b1 != 0 or b2 != 0:
            return ()
        return ((q, (q, _EMPTY_CHOICE)),)

    def right_end_child(self, k, q, b1, b2):
        if b2 < 1 or q + 1 > self.p:
            return None
        return (q + 1, b1, b2 - 1)

    def left_boundary(self, b1: int, at_left_edge: bool) -> Optional[int]:
        # The latest-deadline job running at t1 counts toward the boundary.
        if at_left_edge:
            return b1 - 1 if b1 >= 1 else None
        return b1

    def left_b2_values(self) -> Iterable[int]:
        # Own jobs of the left child at t'; jmax occupies one more slot (q=1).
        return range(self.p)

    def right_b1_values(self, q: int, right_touches_t2: bool) -> Iterable[int]:
        extra = q if right_touches_t2 else 0
        return range(self.p - extra + 1)

    def charge_matrix(self, q, adjacent, stretch, right_touches_t2):
        # Run-starts at the first column of the right subproblem: busy slots
        # there not already busy at the previous column (jmax's column when
        # the columns are adjacent, an idle column otherwise).  The matrix is
        # indexed ``[left_b2][right_b1]`` and cached — it only depends on the
        # external occupancy carried over and the column adjacency.
        extra = q if right_touches_t2 else 0
        key = (extra, adjacent)
        matrix = self._charges.get(key)
        if matrix is None:
            matrix = [
                [
                    max(0, rb + extra - (lb + 1 if adjacent else 0))
                    for rb in range(self.p + 1)
                ]
                for lb in range(self.p + 1)
            ]
            self._charges[key] = matrix
        return matrix

    def grid_key(self, k: int) -> int:
        # Variant validity depends on k only through ``b1 > k``, ``b2 > k``
        # and ``b1 + b2 > k`` with ``b1, b2 <= p``, so every ``k >= 2p``
        # yields the same variant grid and can share one cache entry.
        return k if k < 2 * self.p else 2 * self.p

    def root_total(self, b1: int, label: int, cost: int) -> Optional[int]:
        if label <= 0:
            return None
        return b1 + cost - label

    def prune_arrays(self, costs: List, choices: List, stats: EngineStats) -> None:
        # Occupancy labels combine by max up the split tree and the final
        # max is subtracted exactly once at the root, so an entry's value in
        # any enclosing context is (its cost + context costs) - max(M, X)
        # for some context label X.  An entry (M2, c2) with 1 <= M2 < M1
        # therefore dominates (M1, c1) whenever c2 - M2 <= c1 - M1: for
        # X <= M2 the root-corrected values tie at worst, and for X > M2 the
        # lower-occupancy entry is strictly better (it never raises the
        # combined max).  M = 0 entries are exempt on both sides — they can
        # be unusable at the root (the max must be positive), so they
        # neither dominate nor get dominated safely.  Dominated labels are
        # blanked to +inf in the dense label-indexed arrays.
        best_corrected = None
        for label in range(1, len(costs)):
            cost = costs[label]
            if cost == _INF:
                continue
            corrected = cost - label
            if best_corrected is not None and corrected >= best_corrected:
                costs[label] = _INF
                choices[label] = None
                stats.dominance_dropped += 1
            else:
                best_corrected = corrected

    def zero_value(self):
        return 0


class PowerObjective:
    """Value algebra of Theorem 2: scalar power with the min(stretch, alpha) bridge.

    Boundary parameters count *active* processors at the end columns; idle
    stretches between consecutive candidate columns are folded into the
    closed-form bridging charge, which keeps the DP on the polynomial
    candidate-column set.
    """

    name = "power"
    #: Scalar value algebra: a single table label (0).
    num_labels = 1

    def __init__(self, num_processors: int, alpha: float) -> None:
        if alpha < 0:
            raise InvalidInstanceError(f"alpha must be non-negative, got {alpha}")
        self.p = num_processors
        self.alpha = float(alpha)
        self._charges: Dict = {}

    def bridge_charge(self, stretch: int, active_before: int, active_after: int) -> float:
        """Cost of the columns strictly between two boundary columns plus the right column.

        Each processor active on both sides either stays active through the
        stretch (cost ``stretch``) or sleeps and wakes (cost ``alpha``);
        processors newly active on the right pay a wake-up.  The active time
        of the right boundary column itself is included.
        """
        shared = active_before if active_before < active_after else active_after
        newly_active = active_after - active_before
        if newly_active < 0:
            newly_active = 0
        return (
            float(active_after)
            + shared * min(float(stretch), self.alpha)
            + newly_active * self.alpha
        )

    def invalid_state(self, k: int, q: int, b1: int, b2: int) -> bool:
        return q > b2

    def pre_branch_invalid(self, k: int, b1: int, b2: int) -> bool:
        return False

    def single_column(self, k, q, b1, b2, node_jobs, t):
        if b1 != b2 or k + q > b1:
            return ()
        if k == 0:
            return ((0, (0.0, _EMPTY_CHOICE)),)
        return ((0, (0.0, ("column", node_jobs, t))),)

    def empty_interval(self, q, b1, b2, t1, t2):
        return ((0, (self.bridge_charge(t2 - t1 - 1, b1, b2), _EMPTY_CHOICE)),)

    def right_end_child(self, k, q, b1, b2):
        if q + 1 > b2:
            return None
        return (q + 1, b1, b2)

    def left_boundary(self, b1: int, at_left_edge: bool) -> Optional[int]:
        return b1

    def left_b2_values(self) -> Iterable[int]:
        # Total active processors at jmax's column; at least jmax's own.
        return range(1, self.p + 1)

    def right_b1_values(self, q: int, right_touches_t2: bool) -> Iterable[int]:
        return range(self.p + 1)

    def charge_matrix(self, q, adjacent, stretch, right_touches_t2):
        # Bridging cost indexed ``[active_mid][active_next]``; it depends
        # only on the idle stretch length, so the matrix is cached per stretch.
        matrix = self._charges.get(stretch)
        if matrix is None:
            matrix = [
                [self.bridge_charge(stretch, lb, rb) for rb in range(self.p + 1)]
                for lb in range(self.p + 1)
            ]
            self._charges[stretch] = matrix
        return matrix

    def grid_key(self, k: int) -> int:
        # Power variant validity (``q > b2``) never reads k: one grid per qmask.
        return 0

    def root_total(self, b1: int, label: int, cost: float) -> float:
        # First-column active processors pay their active time plus a wake-up.
        return b1 * (1.0 + self.alpha) + cost

    def prune_arrays(self, costs: List, choices: List, stats: EngineStats) -> None:
        # Scalar tables hold a single label; nothing to prune.
        return None

    def zero_value(self):
        return 0.0


# ---------------------------------------------------------------------------
# Bottom-up, array-packed evaluation
# ---------------------------------------------------------------------------

# Node kinds of the node graph.
_PRUNED, _SINGLE, _EMPTY, _BRANCH = 0, 1, 2, 3


class IntervalDPEngine:
    """Bottom-up evaluator of the ``(t1, t2, k, q, b1, b2)`` interval DP (v2).

    Evaluation runs in two passes:

    1. **Discovery** walks the ``(i1, i2, k)`` *node* graph from the root,
       classifying each node (single-column, empty-interval, branch, or
       pruned), building split plans, and propagating the set of reachable
       ``q`` values per node as a bitmask (left children always see
       ``q = 1``, right children inherit the parent's ``q``, right-end
       children see ``q + 1``).  Expansion is demand-driven — a node is
       walked only when the first bit reaches it — so subtrees no
       enclosing subproblem can ask for are never built, and the table
       pass never materialises a boundary family nobody queries.
       Capacity-dead splits (left child exceeding ``p`` slots per column
       minus jmax's, right child exceeding raw column capacity) are
       dropped at plan time.
    2. **Evaluation** processes nodes in increasing ``(interval length,
       job count)`` order — every dependency of a node strictly precedes it
       — writing each node's ``(q, b1, b2)`` variants into one flat list
       indexed by the packed variant offset ``(q*P + b1)*P + b2``.  The
       combine loop reads child tables by direct list indexing and keeps
       per-variant values in dense label-indexed cost arrays, so the hot
       path contains no generators, no dict hashing, and no per-state
       suspension objects.

    Node job sets are built incrementally: the released-job list of
    ``[t1, t2]`` extends the list of ``[t1, t2 - 1]`` by a rank-order merge
    with the jobs released exactly at ``t2``, sorted node releases extend
    their ``k - 1`` predecessor by one insertion, and split counts come
    from a two-pointer sweep instead of a bisect per candidate column.

    Parameters
    ----------
    decomp:
        The shared :class:`~repro.core.dp_profile.IntervalDecomposition`
        (candidate columns and job-set queries).
    objective:
        A :class:`GapObjective` or :class:`PowerObjective` (or any object
        implementing the same value-algebra interface).
    """

    version = BOTTOM_UP_ENGINE_VERSION

    def __init__(self, decomp: IntervalDecomposition, objective) -> None:
        self.decomp = decomp
        self.objective = objective
        self.p = decomp.num_processors
        self.stats = EngineStats()
        self._C = len(decomp.columns)
        self._P = self.p + 1
        self._labels = objective.num_labels
        # Per-column job lists (deadline-rank order) and rank lookup, the
        # substrate of the incremental released-list construction.
        self._rank = {j: r for r, j in enumerate(decomp.deadline_order)}
        self._col_jobs: List[Tuple[int, ...]] = [() for _ in range(self._C)]
        by_col: Dict[int, List[int]] = {}
        for j in decomp.deadline_order:
            by_col.setdefault(decomp.jobs[j].release, []).append(j)
        for release, ids in by_col.items():
            idx = decomp.column_index.get(release)
            if idx is not None:
                self._col_jobs[idx] = tuple(ids)
        self._released_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._releases_cache: Dict[Tuple[int, int, int], List[int]] = {}
        self._grid_cache: Dict[Tuple[int, int], Tuple[List, List]] = {}
        # Node graph (filled by _ensure_tables).
        self._key_to_id: Dict[int, int] = {}
        self._node_i1: List[int] = []
        self._node_i2: List[int] = []
        self._node_k: List[int] = []
        self._node_kind: List[int] = []
        self._node_jobs_list: List[Optional[Tuple[int, ...]]] = []
        self._node_plan: List[Optional[Tuple]] = []
        self._node_qmask: List[int] = []
        self._node_expanded: List[bool] = []
        self._tables: Optional[List[Optional[List]]] = None
        self._root_id: Optional[int] = None

    # -- public API -------------------------------------------------------------
    def solve(self) -> EngineOutcome:
        """Evaluate the DP bottom-up and reconstruct an optimal assignment."""
        obj = self.objective
        if len(self.decomp.jobs) == 0:
            return EngineOutcome(
                feasible=True, value=obj.zero_value(), assignment={}, stats=self.stats
            )
        self._ensure_tables()
        best: Optional[Tuple[float, int, int]] = None  # (total, variant, label)
        table = self._tables[self._root_id]
        if table is not None:
            P = self._P
            for b1 in range(P):
                base = b1 * P  # root variants have q = 0
                for b2 in range(P):
                    entry = table[base + b2]
                    if entry is None:
                        continue
                    for label, cost in entry[2]:
                        total = obj.root_total(b1, label, cost)
                        if total is None:
                            continue
                        if best is None or total < best[0]:
                            best = (total, base + b2, label)
        if best is None:
            return EngineOutcome(
                feasible=False, value=None, assignment=None, stats=self.stats
            )
        assignment = self._reconstruct(self._root_id, best[1], best[2])
        return EngineOutcome(
            feasible=True, value=best[0], assignment=assignment, stats=self.stats
        )

    def metadata(self) -> Dict:
        """JSON-native engine identification and pruning/memo statistics."""
        return {
            "name": ENGINE_NAME,
            "version": self.version,
            "objective": self.objective.name,
            "stats": self.stats.as_dict(),
        }

    # -- incremental node-job machinery ------------------------------------------
    def _released(self, i1: int, i2: int) -> Tuple[int, ...]:
        """Jobs released in columns ``[i1, i2]`` in deadline order.

        Built incrementally: the list for ``[i1, i2]`` extends the cached
        list for ``[i1, i2 - 1]`` by a rank-order merge with the jobs
        released exactly at column ``i2``, so no interval is ever rescanned
        from scratch.
        """
        cache = self._released_cache
        got = cache.get((i1, i2))
        if got is not None:
            return got
        j = i2
        while j > i1 and (i1, j - 1) not in cache:
            j -= 1
        if j == i1:
            current = self._col_jobs[i1]
            cache[(i1, i1)] = current
            j = i1 + 1
        else:
            current = cache[(i1, j - 1)]
        rank = self._rank
        col_jobs = self._col_jobs
        for idx in range(j, i2 + 1):
            newcomers = col_jobs[idx]
            if newcomers:
                merged: List[int] = []
                a, b = 0, 0
                la, lb = len(current), len(newcomers)
                while a < la and b < lb:
                    if rank[current[a]] <= rank[newcomers[b]]:
                        merged.append(current[a])
                        a += 1
                    else:
                        merged.append(newcomers[b])
                        b += 1
                merged.extend(current[a:])
                merged.extend(newcomers[b:])
                current = tuple(merged)
            cache[(i1, idx)] = current
        return current

    def _sorted_releases(self, i1: int, i2: int, k: int, node: Tuple[int, ...]) -> List[int]:
        """Ascending releases of the node jobs, extended from the ``k - 1`` node."""
        cache = self._releases_cache
        got = cache.get((i1, i2, k))
        if got is not None:
            return got
        prev = cache.get((i1, i2, k - 1)) if k > 1 else []
        jobs = self.decomp.jobs
        if prev is not None and len(prev) == k - 1:
            releases = list(prev)
            insort(releases, jobs[node[-1]].release)
        else:
            releases = sorted(jobs[j].release for j in node)
        cache[(i1, i2, k)] = releases
        return releases

    # -- discovery ---------------------------------------------------------------
    def _node_id(self, i1: int, i2: int, k: int) -> int:
        """Allocate (or look up) a node entry without expanding it.

        Expansion is demand-driven: a node is classified and its plan built
        only when the q-mask propagation first reaches it with a non-empty
        bitmask, so subtrees no enclosing subproblem can ask for (e.g.
        right-end chains whose shifted mask overflows past ``p``) are never
        walked at all.
        """
        key = (i1 * self._C + i2) * (len(self.decomp.jobs) + 1) + k
        nid = self._key_to_id.get(key)
        if nid is None:
            nid = len(self._node_i1)
            self._key_to_id[key] = nid
            self._node_i1.append(i1)
            self._node_i2.append(i2)
            self._node_k.append(k)
            self._node_kind.append(_PRUNED)
            self._node_jobs_list.append(None)
            self._node_plan.append(None)
            self._node_qmask.append(0)
            self._node_expanded.append(False)
        return nid

    def _expand(self, nid: int) -> None:
        """Classify one node and, for branch nodes, build its split plan."""
        decomp = self.decomp
        columns = decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        if k == 0:
            self._node_kind[nid] = _SINGLE if i1 == i2 else _EMPTY
            self._node_jobs_list[nid] = ()
            return
        released = self._released(i1, i2)
        if k > len(released) or k > self.p * (i2 - i1 + 1):
            return  # unreachable / over capacity: stays _PRUNED with no children
        node = released[:k]
        t1, t2 = columns[i1], columns[i2]
        releases = self._sorted_releases(i1, i2, k, node)
        if k >= _HALL_CHECK_MIN_JOBS and not _hall_feasible(
            decomp.jobs, columns, self.p, node, releases, t1, t2
        ):
            self.stats.hall_pruned += 1
            return
        self._node_jobs_list[nid] = node
        if i1 == i2:
            self._node_kind[nid] = _SINGLE
            return
        self._node_kind[nid] = _BRANCH
        jmax = node[-1]
        candidate_cols = decomp.candidate_columns_for_job(jmax, t1, t2)
        right_end = bool(candidate_cols) and candidate_cols[-1] == i2
        splits = []
        p = self.p
        ptr = 0  # two-pointer sweep: releases and candidate columns both ascend
        for ci in candidate_cols:
            t_prime = columns[ci]
            if t_prime == t2:
                continue
            while ptr < k and releases[ptr] <= t_prime:
                ptr += 1
            k_right = k - ptr
            k_left = k - 1 - k_right
            if k_left < 0:
                continue
            # Capacity gate: the left child always runs with q = 1 (jmax
            # occupies one slot at t'), so it is empty under every boundary
            # when its jobs exceed p per column minus that slot; likewise
            # the right child when its jobs exceed raw column capacity.
            # Dead splits never materialise their subtrees.
            if k_left > p * (ci - i1 + 1) - 1:
                continue
            idx_next = ci + 1
            if k_right > p * (i2 - idx_next + 1):
                continue
            t_next = columns[idx_next]
            left_id = self._node_id(i1, ci, k_left)
            right_id = self._node_id(idx_next, i2, k_right)
            splits.append(
                (
                    t_prime,
                    left_id,
                    right_id,
                    t_next == t_prime + 1,
                    t_next - t_prime - 1,
                    idx_next == i2,
                )
            )
        right_end_id = self._node_id(i1, i2, k - 1) if right_end else None
        self._node_plan[nid] = (jmax, tuple(splits), right_end_id)
        self.stats.plans_built += 1

    def _ensure_tables(self) -> None:
        """Run demand-driven discovery and the dependency-ordered table pass once.

        Discovery and q-mask propagation are one interleaved worklist: a
        node is expanded (classified, plan built, children allocated) the
        first time a non-empty bitmask of reachable ``q`` values arrives,
        and each new bit flows onward through the already-built plan.
        Nodes that never receive a bit are never expanded — their subtrees
        do not exist as far as the table pass is concerned.
        """
        if self._tables is not None:
            return
        n = len(self.decomp.jobs)
        self._root_id = self._node_id(0, self._C - 1, n)
        masks = self._node_qmask
        kinds = self._node_kind
        plans = self._node_plan
        expanded = self._node_expanded
        full = (1 << self._P) - 1
        left_bit = 1 << 1  # left children are always evaluated with q = 1
        masks[self._root_id] = 1  # the root is queried with q = 0
        worklist: List[Tuple[int, int]] = [(self._root_id, 1)]
        while worklist:
            nid, bits = worklist.pop()
            if not expanded[nid]:
                expanded[nid] = True
                self._expand(nid)
            if kinds[nid] != _BRANCH:
                continue
            _jmax, splits, right_end_id = plans[nid]
            for _t_prime, left_id, right_id, _adj, _stretch, _rt2 in splits:
                add = left_bit & ~masks[left_id]
                if add:
                    masks[left_id] |= add
                    worklist.append((left_id, add))
                add = bits & ~masks[right_id]
                if add:
                    masks[right_id] |= add
                    worklist.append((right_id, add))
            if right_end_id is not None:
                shifted = (bits << 1) & full
                add = shifted & ~masks[right_end_id]
                if add:
                    masks[right_end_id] |= add
                    worklist.append((right_end_id, add))
        self._evaluate_all()

    # -- bottom-up evaluation -----------------------------------------------------
    def _evaluate_all(self) -> None:
        """Process every node in increasing (interval length, job count) order."""
        num = len(self._node_i1)
        i1s, i2s, ks = self._node_i1, self._node_i2, self._node_k
        order = sorted(range(num), key=lambda nid: (i2s[nid] - i1s[nid], ks[nid]))
        tables: List[Optional[List]] = [None] * num
        depths = [0] * num
        kinds = self._node_kind
        stats = self.stats
        peak = stats.peak_stack_depth
        for nid in order:
            if self._node_qmask[nid] == 0:
                continue
            kind = kinds[nid]
            if kind == _PRUNED:
                # A pruned node's boundary variants are all computed to be
                # empty; each still counts as one computed state.
                q_count = bin(self._node_qmask[nid]).count("1")
                stats.states_computed += q_count * self._P * self._P
                depth = 1
            elif kind == _BRANCH:
                tables[nid] = self._branch_tables(nid, tables)
                _jmax, splits, right_end_id = self._node_plan[nid]
                depth = 0
                for _t, left_id, right_id, _adj, _stretch, _rt2 in splits:
                    if depths[left_id] > depth:
                        depth = depths[left_id]
                    if depths[right_id] > depth:
                        depth = depths[right_id]
                if right_end_id is not None and depths[right_end_id] > depth:
                    depth = depths[right_end_id]
                depth += 1
            else:
                tables[nid] = self._leaf_tables(nid, kind)
                depth = 1
            depths[nid] = depth
            if depth > peak:
                peak = depth
        stats.peak_stack_depth = peak
        self._tables = tables

    def _variant_grid(self, nid: int) -> Tuple[List[int], List[Tuple[int, int, List]]]:
        """Reachable ``q`` values and the valid variants grouped by ``(q, b2)``.

        Grids only depend on the node through ``(objective.grid_key(k),
        qmask)``, so they are cached per run and shared across nodes.
        """
        obj = self.objective
        k = self._node_k[nid]
        mask = self._node_qmask[nid]
        gk = getattr(obj, "grid_key", None)
        key = (gk(k) if gk is not None else k, mask)
        got = self._grid_cache.get(key)
        if got is not None:
            return got
        P = self._P
        q_list = [q for q in range(P) if mask >> q & 1]
        invalid = obj.invalid_state
        pre_invalid = obj.pre_branch_invalid
        groups: List[Tuple[int, int, List]] = []
        for q in q_list:
            for b2 in range(P):
                b1_list = []
                for b1 in range(P):
                    if invalid(k, q, b1, b2) or pre_invalid(k, b1, b2):
                        continue
                    b1_list.append((b1, (q * P + b1) * P + b2))
                if b1_list:
                    groups.append((q, b2, b1_list))
        got = (q_list, groups)
        self._grid_cache[key] = got
        return got

    def _seal(self, out: List, q_count: int) -> Optional[List]:
        """Prune, freeze sparse entry views, and count one node's tables."""
        obj = self.objective
        stats = self.stats
        L = self._labels
        any_entry = False
        if L == 1:
            # Scalar value algebra: nothing to prune, one possible entry.
            for vi, tbl in enumerate(out):
                if tbl is None:
                    continue
                c0 = tbl[0][0]
                if c0 != _INF:
                    out[vi] = (tbl[0], tbl[1], ((0, c0),))
                    any_entry = True
                else:
                    out[vi] = None
            stats.states_computed += q_count * self._P * self._P
            return out if any_entry else None
        for vi, tbl in enumerate(out):
            if tbl is None:
                continue
            costs, choices = tbl
            obj.prune_arrays(costs, choices, stats)
            entries = tuple(
                (label, costs[label]) for label in range(L) if costs[label] != _INF
            )
            if entries:
                out[vi] = (costs, choices, entries)
                any_entry = True
            else:
                out[vi] = None
        stats.states_computed += q_count * self._P * self._P
        return out if any_entry else None

    def _leaf_tables(self, nid: int, kind: int) -> Optional[List]:
        """Tables of a single-column or empty-interval node, all variants at once."""
        obj = self.objective
        P = self._P
        L = self._labels
        columns = self.decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        node = self._node_jobs_list[nid]
        t1, t2 = columns[i1], columns[i2]
        mask = self._node_qmask[nid]
        q_list = [q for q in range(P) if mask >> q & 1]
        invalid = obj.invalid_state
        out: List[Optional[Tuple]] = [None] * (P * P * P)
        for q in q_list:
            base_q = q * P
            for b1 in range(P):
                base = (base_q + b1) * P
                for b2 in range(P):
                    if invalid(k, q, b1, b2):
                        continue
                    if kind == _SINGLE:
                        table = obj.single_column(k, q, b1, b2, node, t1)
                    else:
                        table = obj.empty_interval(q, b1, b2, t1, t2)
                    if not table:
                        continue
                    costs = [_INF] * L
                    choices: List = [None] * L
                    for label, (cost, choice) in table:
                        costs[label] = cost
                        choices[label] = choice
                    out[base + b2] = [costs, choices]
        return self._seal(out, len(q_list))

    def _branch_tables(self, nid: int, tables: List) -> Optional[List]:
        """Tables of one branch node: combine child tables over every split."""
        obj = self.objective
        P = self._P
        columns = self.decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        t1, t2 = columns[i1], columns[i2]
        jmax, splits, right_end_id = self._node_plan[nid]
        q_list, groups = self._variant_grid(nid)
        out: List[Optional[List]] = [None] * (P * P * P)
        if not groups:
            return self._seal(out, len(q_list))
        L = self._labels
        scalar = L == 1
        left_range = list(obj.left_b2_values())
        left_boundary = obj.left_boundary
        lookups = 0
        for t_prime, left_id, right_id, adjacent, stretch, rt2 in splits:
            left_tables = tables[left_id]
            right_tables = tables[right_id]
            if left_tables is None or right_tables is None:
                continue
            at_edge = t_prime == t1
            # Left children always run with q = 1; prefetch their sparse
            # entry views once per split, shared by every parent variant.
            left_by_b1: List[List] = []
            for lb1 in range(P):
                base = (P + lb1) * P
                entries = []
                for lb2 in left_range:
                    e = left_tables[base + lb2]
                    if e is not None:
                        entries.append((lb2, e[2], base + lb2))
                left_by_b1.append(entries)
            lookups += P * len(left_range)
            for q, b2, b1_list in groups:
                right_range = obj.right_b1_values(q, rt2)
                rbase = q * P * P + b2
                right_entries = []
                for rb1 in right_range:
                    rvi = rbase + rb1 * P
                    e = right_tables[rvi]
                    if e is not None:
                        right_entries.append((rb1, e[2], rvi))
                lookups += len(right_range)
                if not right_entries:
                    continue
                charges = obj.charge_matrix(q, adjacent, stretch, rt2)
                if scalar:
                    # Scalar value algebra (power): the best right boundary
                    # for a given mid-boundary lb2 is independent of b1, so
                    # hoist the min over rb1 out of the b1 loop.
                    best_right = []
                    for lb2 in range(P):
                        charge_row = charges[lb2]
                        bv = _INF
                        brvi = -1
                        for rb1, r_entries, rvi in right_entries:
                            cost = charge_row[rb1] + r_entries[0][1]
                            if cost < bv:
                                bv = cost
                                brvi = rvi
                        best_right.append((bv, brvi))
                    for b1, vi in b1_list:
                        lb1 = left_boundary(b1, at_edge)
                        if lb1 is None:
                            continue
                        left_entries = left_by_b1[lb1]
                        if not left_entries:
                            continue
                        tbl = out[vi]
                        if tbl is None:
                            costs = [_INF]
                            choices: List = [None]
                            tbl = out[vi] = [costs, choices]
                        else:
                            costs, choices = tbl
                        for lb2, l_entries, lvi in left_entries:
                            bv, brvi = best_right[lb2]
                            cost = l_entries[0][1] + bv
                            if cost < costs[0]:
                                costs[0] = cost
                                choices[0] = (
                                    "split", jmax, t_prime,
                                    left_id, lvi, 0, right_id, brvi, 0,
                                )
                    continue
                for b1, vi in b1_list:
                    lb1 = left_boundary(b1, at_edge)
                    if lb1 is None:
                        continue
                    left_entries = left_by_b1[lb1]
                    if not left_entries:
                        continue
                    tbl = out[vi]
                    if tbl is None:
                        costs = [_INF] * L
                        choices = [None] * L
                        tbl = out[vi] = [costs, choices]
                    else:
                        costs, choices = tbl
                    for lb2, l_entries, lvi in left_entries:
                        charge_row = charges[lb2]
                        for rb1, r_entries, rvi in right_entries:
                            charge = charge_row[rb1]
                            for ll, cl in l_entries:
                                base_cost = cl + charge
                                for lr, cr in r_entries:
                                    lab = ll if ll >= lr else lr
                                    cost = base_cost + cr
                                    if cost < costs[lab]:
                                        costs[lab] = cost
                                        choices[lab] = (
                                            "split", jmax, t_prime,
                                            left_id, lvi, ll, right_id, rvi, lr,
                                        )
        # Case t' == t2: the latest-deadline job runs at the right boundary.
        if right_end_id is not None:
            child_tables = tables[right_end_id]
            if child_tables is not None:
                for q, b2, b1_list in groups:
                    for b1, vi in b1_list:
                        child = obj.right_end_child(k, q, b1, b2)
                        if child is None:
                            continue
                        cq, cb1, cb2 = child
                        cvi = (cq * P + cb1) * P + cb2
                        lookups += 1
                        e = child_tables[cvi]
                        if e is None:
                            continue
                        tbl = out[vi]
                        if tbl is None:
                            costs = [_INF] * L
                            choices = [None] * L
                            tbl = out[vi] = [costs, choices]
                        else:
                            costs, choices = tbl
                        for lab, cost in e[2]:
                            if cost < costs[lab]:
                                costs[lab] = cost
                                choices[lab] = (
                                    "right_end", right_end_id, cvi, lab, jmax, t2,
                                )
        self.stats.memo_hits += lookups
        return self._seal(out, len(q_list))

    # -- reconstruction ----------------------------------------------------------
    def _reconstruct(self, node_id: int, variant: int, label: int) -> Dict[int, int]:
        """Replay table choices into a ``job -> time`` assignment, iteratively."""
        assignment: Dict[int, int] = {}
        tables = self._tables
        stack: List[Tuple[int, int, int]] = [(node_id, variant, label)]
        while stack:
            nid, vi, lab = stack.pop()
            entry = tables[nid][vi]
            if entry is None:
                raise AssertionError("reconstruction reached a pruned table entry")
            choice = entry[1][lab]
            if choice is None:
                raise AssertionError("reconstruction reached a pruned table entry")
            tag = choice[0]
            if tag == "empty":
                continue
            if tag == "column":
                for job_idx in choice[1]:
                    assignment[job_idx] = choice[2]
                continue
            if tag == "right_end":
                _tag, child_id, child_vi, child_label, jmax, t2 = choice
                assignment[jmax] = t2
                stack.append((child_id, child_vi, child_label))
                continue
            if tag == "split":
                (_tag, jmax, t_prime, left_id, lvi, ll, right_id, rvi, lr) = choice
                assignment[jmax] = t_prime
                stack.append((left_id, lvi, ll))
                stack.append((right_id, rvi, lr))
                continue
            raise AssertionError(f"unknown reconstruction tag {tag!r}")
        return assignment


def staircase_schedule(
    instance: MultiprocessorInstance, times: Dict[int, int]
) -> MultiprocessorSchedule:
    """Stack a ``job -> time`` assignment onto processors in staircase order."""
    by_time: Dict[int, List[int]] = {}
    for job_idx, t in times.items():
        by_time.setdefault(t, []).append(job_idx)
    assignment: Dict[int, Tuple[int, int]] = {}
    for t, job_indices in by_time.items():
        for level, job_idx in enumerate(sorted(job_indices), start=1):
            assignment[job_idx] = (level, t)
    schedule = MultiprocessorSchedule(instance=instance, assignment=assignment)
    schedule.validate()
    return schedule
