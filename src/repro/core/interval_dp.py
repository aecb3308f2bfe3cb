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
interval-length / job-count order.  The tables hold **values only**: each
node keeps one list indexed by packed boundary variant, holding the cost
itself (``+inf`` when absent) under the scalar algebra (power, and gaps at
``p = 1``, where every entry a branch reads has occupancy 1) and the tuple
of surviving ``(label, cost)`` entries under the gap objective's label
vectors.  The combine records no choices; schedule reconstruction replays
one variant's candidates in evaluation order and takes the first whose cost
equals the stored optimum, which is exactly the candidate a strict-``<``
scan would have recorded.  Both combines fold the right child's boundary
range into a vector per ``(right child, q, b2)`` once and reuse it for
every parent variant and every parent node that shares the child; the
scalar one runs its min-plus products in builtins (``min(map(add, ...))``)
over strided slices of the child cost lists.  Subproblems without jobs
get no node per interval: their tables are closed-form in the
interval's span, so one shared leaf per distinct span serves every
interval of that span.  Node job sets are built
incrementally (released-job lists extend their length-minus-one
predecessor; split counts come from a two-pointer merge instead of
per-column bisects).  Hall limits reject empty subproblems before they
exist: per column interval and per ``q`` (the slots enclosing subproblems
hold at its right-end column), the smallest job count whose node violates
a prefix or suffix Hall count.  A violation proves every boundary variant
of the node empty at that ``q``, so discovery drops a split before it
allocates a child over its limit and never propagates a ``q`` bit past
one; values and schedules are those of the unpruned DP.  Dominance
pruning of the gap objective's occupancy vectors and iterative schedule
reconstruction keep it exact and in O(1) native stack depth.

:func:`solve_exact` is the one binding of these objectives onto the
engine, Baptiste's single-processor algorithm being its ``p = 1`` case;
:func:`schedule_from_times` alone decides which schedule type a solve
returns.  The façade's exact adapter, its cache, the decomposed solve and
the repository's engine timing gate (``benchdp/``) all call them;
:mod:`repro.verify` certifies engine results against brute force.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .dp_profile import IntervalDecomposition
from .exceptions import InvalidInstanceError
from .jobs import MultiprocessorInstance, OneIntervalInstance
from .schedule import MultiprocessorSchedule, Schedule, staircase_normalize

__all__ = [
    "ENGINE_NAME",
    "ENGINE_VERSION",
    "BOTTOM_UP_ENGINE_VERSION",
    "EngineStats",
    "EngineOutcome",
    "GapObjective",
    "PowerObjective",
    "IntervalDPEngine",
    "ExactSolution",
    "solve_exact",
    "schedule_from_times",
    "times_from_schedule",
]

ENGINE_NAME = "interval-dp"
#: Version of the current engine generation.  This is what namespaces the
#: canonicalization and disk caches — bumping it silently invalidates every
#: previously cached entry, so replayed engine metadata always matches the
#: code that would recompute it (4.0 retired the numpy-kernel evaluator,
#: whose entries carried metadata no remaining code produces; 4.1 moved the
#: Hall check to per-interval limits applied at plan time, and 4.2 shared
#: the ``k = 0`` leaves, each change moving the engine counters every entry
#: replays).
ENGINE_VERSION = "4.2"
#: Version of the bottom-up, array-packed scalar evaluator (the
#: ``extra.engine.version`` every envelope carries; 2.1 counts the states,
#: plans and Hall rejections of plan-time Hall limits, 2.2 counts each
#: shared ``k = 0`` leaf's states once).
BOTTOM_UP_ENGINE_VERSION = "2.2"

_INF = float("inf")


@dataclass
class EngineStats:
    """Counters describing one engine run (exposed as JSON-native ints).

    ``states_computed`` counts DP states whose value table was
    materialised; a ``k = 0`` leaf is one table shared by every interval
    of its span, so its states count once per run, at the ``q`` values
    any of those intervals is queried with.  ``peak_stack_depth`` is the
    longest dependency chain of the node DAG; it is at least 1 whenever
    any state was computed.
    ``memo_hits`` counts logical child-table reads: ``P * |left b2 range|``
    per split whose children both have tables, ``|right b1 range|`` per
    such split and ``(q, b2)`` variant group, and one per right-end
    variant with a valid child.  It counts reads, not the work done for
    them, so combine restructurings (such as the memoized right-child
    folds) leave it unchanged and envelopes stay comparable across them.
    ``hall_pruned`` counts the candidates the Hall limits reject at plan
    time: splits dropped because a child is over its limit, right-end
    cases dropped because their child is over it at ``q = 1``, and a root
    over its limit at ``q = 0``.  The ``q`` bits withheld from nodes are
    not counted; they show in ``states_computed``.
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


class GapObjective:
    """Value algebra of Theorem 1: gap count via occupancy-indexed vectors.

    Boundary parameters count the subproblem's own jobs at the end columns;
    the table maps each achievable exact maximum occupancy ``M`` to the
    cheapest run-start count, and the root applies ``+ b1 - M`` (first
    column's run-starts minus used processors).
    """

    name = "gaps"
    #: The label of every entry under the scalar combine (p = 1).
    scalar_label = 1

    def __init__(self, num_processors: int) -> None:
        self.p = num_processors
        #: Size of the value-table label space (occupancies 0..p).  At p = 1
        #: it is one label: left children run at q = 1, where every entry
        #: has occupancy 1, so every combined entry and every root entry
        #: has occupancy 1 (a right ``k = 0`` leaf's 0 is absorbed by the
        #: max) and dominance has no second label to compare.  The engine
        #: then runs the scalar combine with :attr:`scalar_label` implied;
        #: label vectors at p = 1 (``num_labels = 2``) give the same
        #: values, schedules and counters.
        self.num_labels = 1 if num_processors == 1 else num_processors + 1
        self._charges: Dict = {}

    def invalid_state(self, k: int, q: int, b1: int, b2: int) -> bool:
        return b1 > k or b2 > k or q + b2 > self.p

    def pre_branch_invalid(self, k: int, b1: int, b2: int) -> bool:
        return b1 + b2 > k

    def single_column(self, k, q, b1, b2):
        # All k jobs execute at the single column; boundary counts must agree.
        if b1 != b2 or b1 != k:
            return ()
        if k == 0:
            return ((q, 0),)
        if k + q > self.p:
            return ()
        return ((k + q, 0),)

    def empty_interval(self, q, b1, b2, t1, t2):
        if b1 != 0 or b2 != 0:
            return ()
        return ((q, q),)

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

    def prune_arrays(self, costs: List, stats: EngineStats) -> None:
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
    #: The label of every entry under the scalar combine.
    scalar_label = 0

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

    def single_column(self, k, q, b1, b2):
        if b1 != b2 or k + q > b1:
            return ()
        return ((0, 0.0),)

    def empty_interval(self, q, b1, b2, t1, t2):
        return ((0, self.bridge_charge(t2 - t1 - 1, b1, b2)),)

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

    def zero_value(self):
        return 0.0


# ---------------------------------------------------------------------------
# Bottom-up, values-only evaluation
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
       **Hall limits** (:meth:`_hall_limits`, one per column interval and
       ``q``) reject empty subproblems before they exist: a split whose
       left child is over its limit at ``q = 1`` or whose right child is
       over it at ``q = 0`` is dropped before either child is allocated,
       and each node receives only the ``q`` bits under its limit.  A
       child without jobs is the shared leaf of its span (see
       :meth:`_node_id`), built once per run.
    2. **Evaluation** processes the shared leaves, then every other node
       in increasing ``(interval length, job count)`` order — every
       dependency of a node strictly precedes it — and stores each node's values in one list indexed by the packed
       variant offset ``vi = (q*P + b1)*P + b2``.  Under the scalar algebra
       (one label: power, and gaps at ``p = 1``) entry ``vi`` is the cost,
       ``+inf`` when absent; under label vectors (gaps at ``p >= 2``) it is
       the tuple of the variant's surviving ``(label, cost)`` entries,
       ``None`` when absent.  For a split and a ``(q, b2)`` group, the
       right child's ``rb1`` range is folded into one vector per ``lb2`` —
       ``min_rb1(charge[lb2][rb1] + right[rb1])``, per right label for
       gaps — memoized per ``(right child, q, b2)``: a right child with
       jobs fixes ``t'``, the idle stretch, the adjacency and whether it
       touches ``t2``, hence the charge matrix; a shared ``k = 0`` leaf
       does not, so its memo key also carries the split's stretch.
       Each ``b1`` then combines its left row with the folded vector.  The
       scalar fold and combine are ``min(map(add, ...))`` over strided
       slices of the child cost lists, and every candidate keeps the
       association ``left + (charge + right)``, so float bits are the same
       for any ``alpha``; gap costs are integers, so their regrouping is
       exact.

    The tables record no choices.  :meth:`_reconstruct` re-derives each
    step of the optimal schedule by replaying one variant's candidates in
    evaluation order — splits in plan order, then ``lb2``, ``rb1``, the
    left label and the right label, then the right-end child — and taking
    the first whose cost equals the stored value: the candidate a
    strict-``<`` scan would have recorded.  Only the ``O(n)`` nodes on the
    optimal path are replayed.

    Node job sets are built incrementally: the released-job list of
    ``[t1, t2]`` extends the list of ``[t1, t2 - 1]`` by a rank-order merge
    with the jobs released exactly at ``t2``, sorted node releases extend
    their ``k - 1`` predecessor by one insertion, and split counts come
    from a two-pointer sweep instead of a bisect per candidate column.
    Every release and deadline is a candidate column, so all of this, and
    the Hall limits, run on column indices.

    Parameters
    ----------
    decomp:
        The shared :class:`~repro.core.dp_profile.IntervalDecomposition`
        (candidate columns and the deadline order).
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
        self._scalar_label = objective.scalar_label
        # Objective lookups the combine reads instead of calling the
        # objective per variant (built with the first branch grid, so runs
        # that prune at the root never pay for them): the left b2 range, the
        # left child's b1 per (t' at t1, parent b1) with -1 where none
        # exists, and the right child's b1-range length per (q, t2 touch).
        self._left_range: List[int] = []
        self._left_b1: List[List[int]] = []
        self._right_len: List[List[int]] = []
        column_index = decomp.column_index
        self._release_col = [column_index[job.release] for job in decomp.jobs]
        self._deadline_col = [column_index[job.deadline] for job in decomp.jobs]
        # Deadline column per deadline rank (ascending): the prefix walks.
        self._rank_deadline = [self._deadline_col[j] for j in decomp.deadline_order]
        # Per-column job lists (deadline-rank order) and rank lookup, the
        # substrate of the incremental released-list construction.
        self._rank = [0] * len(decomp.jobs)
        for r, j in enumerate(decomp.deadline_order):
            self._rank[j] = r
        self._col_jobs: List[Tuple[int, ...]] = [() for _ in range(self._C)]
        by_col: Dict[int, List[int]] = {}
        for j in decomp.deadline_order:
            by_col.setdefault(self._release_col[j], []).append(j)
        for idx, ids in by_col.items():
            self._col_jobs[idx] = tuple(ids)
        self._released_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._releases_cache: Dict[int, List[int]] = {}
        # Hall limits (see _hall_limits): per interval, and the prefix and
        # suffix walks they are read from, per anchor column.
        self._released_upto = [0] * (self._C + 1)  # jobs released before column c
        # Largest left excess ending at column c: max over c' <= c of the
        # jobs released in [c', c] minus p per column (Kadane), which tells
        # a suffix walk when no column range further left can overflow.
        self._left_excess = [0] * self._C
        run = 0
        for c in range(self._C):
            released = len(self._col_jobs[c])
            self._released_upto[c + 1] = self._released_upto[c] + released
            run = released - self.p + (run if run > 0 else 0)
            self._left_excess[c] = run
        self._limits_cache: Dict[int, Tuple[int, ...]] = {}
        self._prefix_walks: Dict[int, Tuple[int, int]] = {}
        self._suffix_walks: Dict[int, List[Tuple[int, ...]]] = {}
        self._grid_cache: Dict[Tuple[int, int], Tuple] = {}
        # Right-child folds per (fold identity, q, b2), shared across
        # parents; a k = 0 right child's identity also carries the split's
        # stretch (see _expand).
        self._fold_cache: Dict[int, object] = {}
        # Node graph (filled by _ensure_tables); k = 0 leaves are keyed by
        # span alone.
        self._key_to_id: Dict[int, int] = {}
        self._leaf_ids: Dict[int, int] = {}
        self._node_i1: List[int] = []
        self._node_i2: List[int] = []
        self._node_k: List[int] = []
        self._node_kind: List[int] = []
        self._node_jobs_list: List[Optional[Tuple[int, ...]]] = []
        self._node_plan: List[Optional[Tuple]] = []
        self._node_qmask: List[int] = []
        # The q bits each node may receive: those under its Hall limits.
        self._node_allowed: List[int] = []
        self._node_expanded: List[bool] = []
        # Per node, a list indexed by packed variant (None when the node has
        # no finite entry at all): the cost itself (+inf when absent) for
        # the scalar algebra, the tuple of surviving (label, cost) entries
        # (None when absent) for label vectors.
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
        P = self._P
        has_table = self._tables[self._root_id] is not None
        for vi in range(P * P if has_table else 0):  # root q = 0: vi = b1 * P + b2
            for label, cost in self._variant_entries(self._root_id, vi):
                total = obj.root_total(vi // P, label, cost)
                if total is None:
                    continue
                if best is None or total < best[0]:
                    best = (total, vi, label)
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

    def _sorted_releases(self, i1: int, i2: int, k: int) -> List[int]:
        """Ascending release columns of node ``(i1, i2, k)``'s jobs.

        Extended from the ``k - 1`` node by one insertion: node ``k``'s
        jobs are node ``k - 1``'s plus the ``k``-th released job.
        """
        cache = self._releases_cache
        key = (i1 * self._C + i2) * (len(self.decomp.jobs) + 1) + k
        got = cache.get(key)
        if got is not None:
            return got
        release_col = self._release_col
        released = self._released(i1, i2)
        prev = cache.get(key - 1) if k > 1 else []
        if prev is not None:
            releases = list(prev)
            insort(releases, release_col[released[k - 1]])
        else:
            releases = sorted(release_col[j] for j in released[:k])
        cache[key] = releases
        return releases

    def _hall_limits(self, i1: int, i2: int) -> Tuple[int, ...]:
        """Per-``q`` Hall limits of the column interval ``[i1, i2]``.

        Entry ``q`` is the smallest job count ``k`` whose node ``(i1, i2,
        k)`` violates a Hall count when ``q`` of the ``p`` slots at column
        ``i2`` are held by enclosing subproblems, or the number of jobs
        released in the interval plus one when no node does.  The counts
        are the prefixes ``[i1, d]``, ``d < i2``, over deadline columns and
        the suffixes ``[r, i2]`` over release columns, each against ``p``
        slots per candidate column and ``p - q`` at ``i2`` (the prefix
        ``[i1, i2]`` is the suffix ``r = i1``).  Every release and deadline
        is a candidate column, so each count is an index difference.

        A violation proves every ``(b1, b2)`` variant of the node empty at
        that ``q`` (Hall's condition is necessary for a schedule), and node
        ``k``'s jobs are a prefix of node ``k + 1``'s, so a node is dead at
        ``q`` exactly when ``k >= limits[q]``; the limits never increase
        with ``q``.  Both walks they are read from are shared by every
        interval with the same anchor column and run in deadline-rank
        space: the limit is the position, among the interval's released
        jobs, of the first rank whose arrival overflows a count.
        """
        key = i1 * self._C + i2
        got = self._limits_cache.get(key)
        if got is not None:
            return got
        n = len(self.decomp.jobs)
        first = self._prefix_walks.get(i1)
        if first is None:
            first = self._prefix_walks[i1] = self._prefix_walk(i1)
        prefix = first[1] if first[0] < i2 else n
        table = self._suffix_walks.get(i2)
        if table is None:
            table = self._suffix_walks[i2] = self._suffix_walk(i2)
        suffix = table[i2 - i1] if i2 - i1 < len(table) else table[-1]
        if prefix == n and suffix[-1] == n:
            count = self._released_upto[i2 + 1] - self._released_upto[i1]
            limits = (count + 1,) * self._P
        else:
            # A finite threshold is the rank of one of the interval's own
            # released jobs; its limit is that job's position plus one.
            released = self._released(i1, i2)
            order = self.decomp.deadline_order
            found = []
            for threshold in suffix:
                if prefix < threshold:
                    threshold = prefix
                if threshold == n:
                    found.append(len(released) + 1)
                else:
                    found.append(released.index(order[threshold]) + 1)
            limits = tuple(found)
        self._limits_cache[key] = limits
        return limits

    def _prefix_walk(self, i1: int) -> Tuple[int, int]:
        """The first overflowing prefix count ``[i1, d]`` as ``(d, rank)``.

        Walks deadline columns up from ``i1`` over the jobs released at or
        after ``i1``, in deadline-rank order.  The count over ``[i1, d]``
        overflows once the job at index ``p * (d - i1 + 1)`` of that walk
        is in a node; a later prefix can only overflow at a later job, so
        the first overflow is the only one any interval ``[i1, i2 > d]``
        needs.  Returns ``(C, n)`` when no prefix overflows.
        """
        p = self.p
        order = self.decomp.deadline_order
        release_col, rank_deadline = self._release_col, self._rank_deadline
        n = len(order)
        remaining = n - self._released_upto[i1]
        r = bisect_left(rank_deadline, i1)
        count = 0
        for d in range(i1, self._C - 1):
            cap = p * (d - i1 + 1)
            if cap >= remaining:
                break
            while r < n and rank_deadline[r] == d:
                if release_col[order[r]] >= i1:
                    if count == cap:
                        return d, r
                    count += 1
                r += 1
        return self._C, n

    def _suffix_walk(self, i2: int) -> List[Tuple[int, ...]]:
        """Per-``q`` suffix thresholds of every interval ending at ``i2``.

        Walks release columns ``r`` down from ``i2``.  Entry ``i2 - i1``
        holds, per ``q``, the smallest deadline rank whose arrival in a
        node of ``[i1, i2]`` overflows some suffix ``[r, i2]``, ``r >= i1``,
        with ``p * (i2 + 1 - r) - q`` slots (``n`` when none does).  A
        suffix can overflow at some ``q`` only while its jobs exceed
        ``p * (i2 - r)``, so the walk stops at the first column whose
        excess, plus the largest left excess ending just before it
        (:attr:`_left_excess`), leaves every suffix further left within
        that; the last entry then holds for every interval further left.
        """
        p = self.p
        n = len(self.decomp.jobs)
        rank = self._rank
        col_jobs = self._col_jobs
        left_excess = self._left_excess
        qs = range(self._P)
        ranks: List[int] = []
        best = [n] * self._P
        current = tuple(best)
        table: List[Tuple[int, ...]] = []
        cap = 0
        for col in range(i2, -1, -1):
            cap += p
            for j in col_jobs[col]:
                insort(ranks, rank[j])
            m = len(ranks)
            if cap - p < m:
                for q in qs:
                    if cap - q < m and ranks[cap - q] < best[q]:
                        best[q] = ranks[cap - q]
                current = tuple(best)
            table.append(current)
            if col == 0 or m - cap + left_excess[col - 1] + p <= 0:
                break
        return table

    # -- discovery ---------------------------------------------------------------
    def _node_id(
        self, i1: int, i2: int, k: int, limits: Optional[Tuple[int, ...]] = None
    ) -> int:
        """Allocate (or look up) a node entry without expanding it.

        Expansion is demand-driven: a node is classified and its plan built
        only when the q-mask propagation first reaches it with a non-empty
        bitmask, so subtrees no enclosing subproblem can ask for (e.g.
        right-end chains whose shifted mask overflows past ``p``) are never
        walked at all.  A new node records the ``q`` bits it may receive:
        those under its interval's Hall limits (``limits``, looked up when
        not given), which never increase with ``q``, so the allowed bits
        are always ``0 .. j`` for some ``j``.

        ``k = 0`` asks for a shared leaf.  A node without jobs has a
        closed-form table in ``(q, b1, b2)`` and the span ``t2 - t1`` alone
        (``single_column`` at span 0, ``empty_interval`` otherwise), so one
        leaf per distinct span serves every interval of that span.  It
        keeps the first interval that asked for it, is classified at once,
        and takes every ``q``.
        """
        if k:
            ids = self._key_to_id
            key = (i1 * self._C + i2) * (len(self.decomp.jobs) + 1) + k
        else:
            ids = self._leaf_ids
            key = self.decomp.columns[i2] - self.decomp.columns[i1]
        nid = ids.get(key)
        if nid is None:
            nid = ids[key] = len(self._node_i1)
            self._node_i1.append(i1)
            self._node_i2.append(i2)
            self._node_k.append(k)
            self._node_plan.append(None)
            self._node_qmask.append(0)
            open_bits = self._P
            if k:
                self._node_kind.append(_PRUNED)
                self._node_jobs_list.append(None)
                self._node_expanded.append(False)
                if limits is None:
                    limits = self._hall_limits(i1, i2)
                if k >= limits[-1]:
                    open_bits = 0
                    while k < limits[open_bits]:
                        open_bits += 1
            else:
                self._node_kind.append(_SINGLE if key == 0 else _EMPTY)
                self._node_jobs_list.append(())
                self._node_expanded.append(True)
            self._node_allowed.append((1 << open_bits) - 1)
        return nid

    def _expand(self, nid: int) -> None:
        """Classify one node and, for branch nodes, build its split plan.

        Only nodes under their Hall limit for some ``q`` are ever expanded,
        and a split is dropped before either child is allocated when its
        left child is over its limit at ``q = 1`` (the only ``q`` a left
        child is queried at) or its right child at ``q = 0``; the right-end
        case is dropped when its child is over its limit at ``q = 1``.
        Each drop counts in ``hall_pruned``.  ``k = 0`` children are the
        shared leaves, which no limit rejects.

        A split is ``(t', left id, right id, stretch, right child touches
        t2, fold identity)``.  The fold identity keys the right-child fold
        memo: the right child's id when it has jobs (it fixes ``t'``, hence
        the charge matrix), otherwise a negative code of the leaf's span
        and the split's stretch, since a shared leaf meets many stretches;
        the stretch fixes the adjacency and, with the span, whether the
        leaf touches ``t2``.
        """
        decomp = self.decomp
        columns = decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        node = self._released(i1, i2)[:k]
        self._node_jobs_list[nid] = node
        if i1 == i2:
            self._node_kind[nid] = _SINGLE
            return
        self._node_kind[nid] = _BRANCH
        jmax = node[-1]
        releases = self._sorted_releases(i1, i2, k)
        # jmax runs at a candidate column of its window clipped to [i1, i2]:
        # every release and deadline is a candidate column, so those are
        # the indices from its release column to its deadline column.
        last = self._deadline_col[jmax]
        right_end = last >= i2
        if right_end:
            last = i2 - 1
        splits = []
        pruned = 0
        key_to_id = self._key_to_id  # _node_id's lookup, inlined for hits
        allowed = self._node_allowed
        limits_cache = self._limits_cache
        hall_limits = self._hall_limits
        leaf_ids = self._leaf_ids
        t1, t2 = columns[i1], columns[i2]
        H1 = columns[-1] - columns[0] + 1  # exceeds every stretch
        C = self._C
        N1 = len(decomp.jobs) + 1
        ptr = 0  # two-pointer sweep: release columns and candidates both ascend
        for ci in range(self._release_col[jmax], last + 1):
            while ptr < k and releases[ptr] <= ci:
                ptr += 1
            # ptr counts jmax itself (released at or before ci).
            k_right = k - ptr
            k_left = ptr - 1
            idx_next = ci + 1
            # A child that exists already carries its allowed q bits; a new
            # one is checked against its interval's limits first, so a dead
            # split never allocates either child.
            left_limits = right_limits = None
            if k_left:
                left_id = key_to_id.get((i1 * C + ci) * N1 + k_left)
                if left_id is None:
                    left_limits = limits_cache.get(i1 * C + ci) or hall_limits(i1, ci)
                    if k_left >= left_limits[1]:
                        pruned += 1
                        continue
                elif not allowed[left_id] & 2:
                    pruned += 1
                    continue
            else:
                left_id = leaf_ids.get(columns[ci] - t1)
            if k_right:
                right_id = key_to_id.get((idx_next * C + i2) * N1 + k_right)
                if right_id is None:
                    right_limits = (
                        limits_cache.get(idx_next * C + i2) or hall_limits(idx_next, i2)
                    )
                    if k_right >= right_limits[0]:
                        pruned += 1
                        continue
            else:
                right_id = leaf_ids.get(t2 - columns[idx_next])
            if left_id is None:
                left_id = self._node_id(i1, ci, k_left, left_limits)
            if right_id is None:
                right_id = self._node_id(idx_next, i2, k_right, right_limits)
            t_prime = columns[ci]
            stretch = columns[idx_next] - t_prime - 1
            fold = right_id if k_right else ~((t2 - t_prime - 1 - stretch) * H1 + stretch)
            splits.append((t_prime, left_id, right_id, stretch, idx_next == i2, fold))
        right_end_id = None
        if right_end:
            # The right-end child is only ever queried at q >= 1.
            right_end_id = key_to_id.get((i1 * C + i2) * N1 + k - 1)
            if right_end_id is None:
                limits = limits_cache.get(i1 * C + i2) or hall_limits(i1, i2)
                if k - 1 < limits[1]:
                    right_end_id = self._node_id(i1, i2, k - 1, limits)
            elif not allowed[right_end_id] & 2:
                right_end_id = None
            if right_end_id is None:
                pruned += 1
        self._node_plan[nid] = (jmax, tuple(splits), right_end_id)
        self.stats.plans_built += 1
        self.stats.hall_pruned += pruned

    def _ensure_tables(self) -> None:
        """Run demand-driven discovery and the dependency-ordered table pass once.

        Discovery and q-mask propagation are one interleaved worklist: a
        node is expanded (classified, plan built, children allocated) the
        first time a non-empty bitmask of reachable ``q`` values arrives,
        and each new bit flows onward through the already-built plan, to
        the bits each child's Hall limits allow.  Nodes that never receive
        a bit are never expanded — their subtrees do not exist as far as
        the table pass is concerned.  A root over its own limit at
        ``q = 0`` stays pruned: every variant of it is empty.
        """
        if self._tables is not None:
            return
        n = len(self.decomp.jobs)
        self._root_id = self._node_id(0, self._C - 1, n)
        masks = self._node_qmask
        kinds = self._node_kind
        plans = self._node_plan
        expanded = self._node_expanded
        allowed = self._node_allowed
        left_bit = 1 << 1  # left children are always evaluated with q = 1
        masks[self._root_id] = 1  # the root is queried with q = 0
        worklist: List[Tuple[int, int]] = [(self._root_id, 1)]
        if not allowed[self._root_id] & 1:
            self.stats.hall_pruned += 1
            worklist.clear()
        while worklist:
            nid, bits = worklist.pop()
            first_visit = not expanded[nid]
            if first_visit:
                expanded[nid] = True
                self._expand(nid)
            if kinds[nid] != _BRANCH:
                continue
            _jmax, splits, right_end_id = plans[nid]
            for _t_prime, left_id, right_id, _stretch, _rt2, _fold in splits:
                # A left child's only bit never changes, so it flows on the
                # parent's first visit alone.
                if first_visit and not masks[left_id] & left_bit:
                    masks[left_id] |= left_bit
                    worklist.append((left_id, left_bit))
                add_bits = bits & allowed[right_id] & ~masks[right_id]
                if add_bits:
                    masks[right_id] |= add_bits
                    worklist.append((right_id, add_bits))
            if right_end_id is not None:
                add_bits = (bits << 1) & allowed[right_end_id] & ~masks[right_end_id]
                if add_bits:
                    masks[right_end_id] |= add_bits
                    worklist.append((right_end_id, add_bits))
        self._evaluate_all()

    # -- bottom-up evaluation -----------------------------------------------------
    def _evaluate_all(self) -> None:
        """Process every node in increasing (interval length, job count) order.

        The shared ``k = 0`` leaves go first: one of them stands for
        intervals of many index lengths, and it depends on nothing.
        """
        num = len(self._node_i1)
        i1s, i2s, ks = self._node_i1, self._node_i2, self._node_k
        N1 = len(self.decomp.jobs) + 1
        order = sorted(
            range(num),
            key=lambda nid: (i2s[nid] - i1s[nid] + 1) * N1 + ks[nid] if ks[nid] else 0,
        )
        tables: List[Optional[List]] = [None] * num
        branch = self._scalar_branch if self._labels == 1 else self._vector_branch
        depths = [0] * num
        kinds = self._node_kind
        masks = self._node_qmask
        plans = self._node_plan
        stats = self.stats
        states_per_q = self._P * self._P
        peak = stats.peak_stack_depth
        for nid in order:
            mask = masks[nid]
            if mask == 0:
                continue
            # Every boundary variant of a reachable node counts as computed,
            # including those of pruned nodes (all computed to be empty).
            stats.states_computed += bin(mask).count("1") * states_per_q
            kind = kinds[nid]
            if kind == _PRUNED:
                depth = 1
            elif kind == _BRANCH:
                tables[nid] = branch(nid, tables)
                _jmax, splits, right_end_id = plans[nid]
                depth = 0
                for _t, left_id, right_id, _stretch, _rt2, _fold in splits:
                    if depths[left_id] > depth:
                        depth = depths[left_id]
                    if depths[right_id] > depth:
                        depth = depths[right_id]
                if right_end_id is not None and depths[right_end_id] > depth:
                    depth = depths[right_end_id]
                depth += 1
            else:
                tables[nid] = self._leaf_table(nid, kind)
                depth = 1
            depths[nid] = depth
            if depth > peak:
                peak = depth
        stats.peak_stack_depth = peak
        self._tables = tables

    def _variant_grid(self, nid: int) -> Tuple:
        """The valid boundary variants of one branch node, precomputed.

        Returns ``(groups, variants, split_reads, right_end_pairs)``:
        ``groups`` lists ``(q, b2, [(b1, vi), ...])`` per ``(q, b2)``;
        ``variants`` is the flat list of every ``vi``; ``split_reads[rt2]``
        is the ``memo_hits`` count of one live split; ``right_end_pairs``
        maps each variant to its right-end child variant, where one exists.
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
        if not self._left_range:
            self._left_range = list(obj.left_b2_values())
            for at_edge in (False, True):
                row = []
                for b1 in range(P):
                    lb1 = obj.left_boundary(b1, at_edge)
                    row.append(-1 if lb1 is None else lb1)
                self._left_b1.append(row)
            self._right_len = [
                [len(obj.right_b1_values(q, rt2)) for rt2 in (False, True)]
                for q in range(P)
            ]
        invalid = obj.invalid_state
        pre_invalid = obj.pre_branch_invalid
        groups: List[Tuple[int, int, List[Tuple[int, int]]]] = []
        variants: List[int] = []
        right_end_pairs: List[Tuple[int, int]] = []
        for q in range(P):
            if not mask >> q & 1:
                continue
            for b2 in range(P):
                b1_list = []
                for b1 in range(P):
                    if invalid(k, q, b1, b2) or pre_invalid(k, b1, b2):
                        continue
                    vi = (q * P + b1) * P + b2
                    b1_list.append((b1, vi))
                    variants.append(vi)
                    child = obj.right_end_child(k, q, b1, b2)
                    if child is not None:
                        cq, cb1, cb2 = child
                        right_end_pairs.append((vi, (cq * P + cb1) * P + cb2))
                if b1_list:
                    groups.append((q, b2, b1_list))
        left_reads = P * len(self._left_range)
        split_reads = tuple(
            left_reads + sum(self._right_len[q][rt2] for q, _b2, _b1s in groups)
            for rt2 in (False, True)
        )
        got = (groups, variants, split_reads, right_end_pairs)
        self._grid_cache[key] = got
        return got

    def _leaf_table(self, nid: int, kind: int):
        """Table of a single-column or empty-interval node, all variants at once."""
        obj = self.objective
        P = self._P
        L = self._labels
        columns = self.decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        t1, t2 = columns[i1], columns[i2]
        mask = self._node_qmask[nid]
        invalid = obj.invalid_state
        scalar = L == 1
        out: List = [_INF if scalar else None] * (P * P * P)
        touched: List[int] = []
        for q in range(P):
            if not mask >> q & 1:
                continue
            for b1 in range(P):
                base = (q * P + b1) * P
                for b2 in range(P):
                    if invalid(k, q, b1, b2):
                        continue
                    if kind == _SINGLE:
                        table = obj.single_column(k, q, b1, b2)
                    else:
                        table = obj.empty_interval(q, b1, b2, t1, t2)
                    if not table:
                        continue
                    if scalar:
                        out[base + b2] = table[0][1]
                        touched.append(base + b2)
                        continue
                    costs = [_INF] * L
                    for label, cost in table:
                        costs[label] = cost
                    out[base + b2] = costs
                    touched.append(base + b2)
        if scalar:
            return out if touched else None
        return self._seal(out, touched)

    def _seal(self, work: List, variants: List[int]) -> Optional[List]:
        """Prune one label-vector node's variants into their entry tuples.

        Visits only ``variants`` (the node's grid) and replaces each label
        vector by the tuple of its surviving ``(label, cost)`` entries;
        returns ``None`` when no variant kept one.  Only label-vector
        objectives implement ``prune_arrays``: the scalar algebra has
        nothing to prune and never seals.
        """
        prune = self.objective.prune_arrays
        stats = self.stats
        entries: Optional[List] = None
        for vi in variants:
            vector = work[vi]
            if vector is None:
                continue
            prune(vector, stats)
            kept = tuple(
                [(label, cost) for label, cost in enumerate(vector) if cost != _INF]
            )
            if not kept:
                continue
            if entries is None:
                entries = [None] * len(work)
            entries[vi] = kept
        return entries

    def _scalar_branch(self, nid: int, tables: List) -> Optional[List]:
        """Cost list of one branch node under the scalar value algebra.

        Power runs here at every ``p``, and gaps at ``p = 1``, where the
        objective's one label is implied (see ``GapObjective.num_labels``).
        """
        obj = self.objective
        P = self._P
        PP = P * P
        t1 = self.decomp.columns[self._node_i1[nid]]
        _jmax, splits, right_end_id = self._node_plan[nid]
        groups, _variants, split_reads, right_end_pairs = self._variant_grid(nid)
        if not groups:
            return None
        out = [_INF] * (PP * P)
        left_range = self._left_range
        lo, hi = left_range[0], left_range[-1] + 1
        left_b1 = self._left_b1
        right_len = self._right_len
        charge_matrix = obj.charge_matrix
        folds = self._fold_cache
        lookups = 0
        for t_prime, left_id, right_id, stretch, rt2, fold in splits:
            left = tables[left_id]
            right = tables[right_id]
            if left is None or right is None:
                continue
            lookups += split_reads[rt2]
            lb1_of = left_b1[t_prime == t1]
            # Left children always run with q = 1: row lb1 holds their costs
            # over the left b2 range.
            rows = [left[(P + lb1) * P + lo:(P + lb1) * P + hi] for lb1 in range(P)]
            for q, b2, b1_list in groups:
                key = (fold * P + q) * P + b2
                bridge = folds.get(key)
                if bridge is None:
                    charges = charge_matrix(q, stretch == 0, stretch, rt2)
                    base = q * PP + b2
                    column = right[base:base + right_len[q][rt2] * P:P]
                    bridge = [min(map(add, charges[lb2], column)) for lb2 in left_range]
                    folds[key] = bridge
                for b1, vi in b1_list:
                    lb1 = lb1_of[b1]
                    if lb1 < 0:
                        continue
                    cost = min(map(add, rows[lb1], bridge))
                    if cost < out[vi]:
                        out[vi] = cost
        # Case t' == t2: the latest-deadline job runs at the right boundary.
        if right_end_id is not None:
            child = tables[right_end_id]
            if child is not None:
                lookups += len(right_end_pairs)
                for vi, cvi in right_end_pairs:
                    cost = child[cvi]
                    if cost < out[vi]:
                        out[vi] = cost
        self.stats.memo_hits += lookups
        return out if min(out) < _INF else None

    def _fold_right(self, right: List, q: int, b2: int, charges: List, rt2: bool) -> Tuple:
        """Fold a right child's ``rb1`` range into one label vector per ``lb2``.

        Entry ``lb2`` holds ``(lr, min over rb1 of charge[lb2][rb1] + cost)``
        for each right label ``lr`` with a finite value; the empty tuple
        stands for a right column with no entries at all.  Gap costs are
        integers, so the regrouped sums are exact.
        """
        L = self._labels
        P = self._P
        base = q * P * P + b2
        column = right[base:base + self._right_len[q][rt2] * P:P]
        if not any(column):
            return ()
        folded = []
        for lb2 in self._left_range:
            charge_row = charges[lb2]
            best = [_INF] * L
            for rb1, r_entries in enumerate(column):
                if r_entries is None:
                    continue
                charge = charge_row[rb1]
                for lr, cr in r_entries:
                    cost = charge + cr
                    if cost < best[lr]:
                        best[lr] = cost
            folded.append(
                tuple([(lr, cost) for lr, cost in enumerate(best) if cost != _INF])
            )
        return tuple(folded)

    def _vector_branch(self, nid: int, entries: List) -> Optional[List]:
        """Entry table of one branch node under label vectors (gaps)."""
        obj = self.objective
        P = self._P
        PP = P * P
        L = self._labels
        t1 = self.decomp.columns[self._node_i1[nid]]
        _jmax, splits, right_end_id = self._node_plan[nid]
        groups, variants, split_reads, right_end_pairs = self._variant_grid(nid)
        if not groups:
            return None
        work: List[Optional[List]] = [None] * (PP * P)
        left_range = self._left_range
        lo, hi = left_range[0], left_range[-1] + 1
        left_b1 = self._left_b1
        charge_matrix = obj.charge_matrix
        folds = self._fold_cache
        lookups = 0
        for t_prime, left_id, right_id, stretch, rt2, fold in splits:
            left = entries[left_id]
            right = entries[right_id]
            if left is None or right is None:
                continue
            lookups += split_reads[rt2]
            lb1_of = left_b1[t_prime == t1]
            # Left children always run with q = 1; gather their entry views
            # once per split, shared by every parent variant.
            left_by_b1 = []
            for lb1 in range(P):
                base = (P + lb1) * P
                left_by_b1.append(
                    [
                        (lb2, e)
                        for lb2, e in zip(left_range, left[base + lo:base + hi])
                        if e is not None
                    ]
                )
            for q, b2, b1_list in groups:
                key = (fold * P + q) * P + b2
                folded = folds.get(key)
                if folded is None:
                    folded = self._fold_right(
                        right, q, b2, charge_matrix(q, stretch == 0, stretch, rt2), rt2
                    )
                    folds[key] = folded
                if not folded:
                    continue
                for b1, vi in b1_list:
                    lb1 = lb1_of[b1]
                    if lb1 < 0:
                        continue
                    left_entries = left_by_b1[lb1]
                    if not left_entries:
                        continue
                    costs = work[vi]
                    if costs is None:
                        costs = work[vi] = [_INF] * L
                    for lb2, l_entries in left_entries:
                        r_entries = folded[lb2 - lo]
                        for ll, cl in l_entries:
                            for lr, cr in r_entries:
                                lab = ll if ll >= lr else lr
                                cost = cl + cr
                                if cost < costs[lab]:
                                    costs[lab] = cost
        # Case t' == t2: the latest-deadline job runs at the right boundary.
        if right_end_id is not None:
            child = entries[right_end_id]
            if child is not None:
                lookups += len(right_end_pairs)
                for vi, cvi in right_end_pairs:
                    e = child[cvi]
                    if e is None:
                        continue
                    costs = work[vi]
                    if costs is None:
                        costs = work[vi] = [_INF] * L
                    for lab, cost in e:
                        if cost < costs[lab]:
                            costs[lab] = cost
        self.stats.memo_hits += lookups
        return self._seal(work, variants)

    # -- reconstruction ----------------------------------------------------------
    def _variant_entries(self, nid: int, vi: int) -> Tuple[Tuple[int, float], ...]:
        """The finite ``(label, cost)`` entries of one variant of a node."""
        table = self._tables[nid]
        if table is None:
            return ()
        if self._labels > 1:
            return table[vi] or ()
        cost = table[vi]
        return ((self._scalar_label, cost),) if cost != _INF else ()

    def _reconstruct(self, node_id: int, variant: int, label: int) -> Dict[int, int]:
        """Replay optimal choices into a ``job -> time`` assignment, iteratively."""
        assignment: Dict[int, int] = {}
        columns = self.decomp.columns
        kinds = self._node_kind
        stack: List[Tuple[int, int, int]] = [(node_id, variant, label)]
        while stack:
            nid, vi, lab = stack.pop()
            target = dict(self._variant_entries(nid, vi)).get(lab)
            if target is None:
                raise AssertionError("reconstruction reached a pruned table entry")
            kind = kinds[nid]
            if kind == _SINGLE:
                t = columns[self._node_i1[nid]]
                for job_idx in self._node_jobs_list[nid]:
                    assignment[job_idx] = t
                continue
            if kind == _EMPTY:
                continue
            t, children = self._replay(nid, vi, lab, target)
            assignment[self._node_plan[nid][0]] = t
            stack.extend(children)
        return assignment

    def _replay(self, nid: int, vi: int, lab: int, target: float) -> Tuple:
        """The first candidate of variant ``vi`` / label ``lab`` costing ``target``.

        Candidates are visited in evaluation order — splits in plan order,
        then ``lb2``, ``rb1``, the left label and the right label, then the
        right-end child — and each cost is computed with the combine's own
        arithmetic, so the first exact match is the candidate a strict-``<``
        scan records.  Returns ``(time of jmax, child (node, variant,
        label) triples)``; raises if no candidate matches.
        """
        obj = self.objective
        P = self._P
        PP = P * P
        q, rest = divmod(vi, PP)
        b1, b2 = divmod(rest, P)
        columns = self.decomp.columns
        i1, i2, k = self._node_i1[nid], self._node_i2[nid], self._node_k[nid]
        t1 = columns[i1]
        _jmax, splits, right_end_id = self._node_plan[nid]
        tables = self._tables
        left_range = self._left_range
        for t_prime, left_id, right_id, stretch, rt2, _fold in splits:
            left, right = tables[left_id], tables[right_id]
            if left is None or right is None:
                continue
            lb1 = self._left_b1[t_prime == t1][b1]
            if lb1 < 0:
                continue
            charges = obj.charge_matrix(q, stretch == 0, stretch, rt2)
            rlen = self._right_len[q][rt2]
            rbase = q * PP + b2
            lbase = (P + lb1) * P
            if self._labels == 1:
                column = right[rbase:rbase + rlen * P:P]
                for lb2 in left_range:
                    charge_row = charges[lb2]
                    bridge = min(map(add, charge_row, column))
                    if left[lbase + lb2] + bridge != target:
                        continue
                    for rb1 in range(rlen):
                        if charge_row[rb1] + column[rb1] == bridge:
                            return t_prime, (
                                (left_id, lbase + lb2, lab),
                                (right_id, rbase + rb1 * P, lab),
                            )
                continue
            for lb2 in left_range:
                l_entries = left[lbase + lb2]
                if l_entries is None:
                    continue
                charge_row = charges[lb2]
                for rb1 in range(rlen):
                    rvi = rbase + rb1 * P
                    r_entries = right[rvi]
                    if r_entries is None:
                        continue
                    charge = charge_row[rb1]
                    for ll, cl in l_entries:
                        base_cost = cl + charge
                        for lr, cr in r_entries:
                            if (ll if ll >= lr else lr) == lab and base_cost + cr == target:
                                return t_prime, (
                                    (left_id, lbase + lb2, ll),
                                    (right_id, rvi, lr),
                                )
        if right_end_id is not None:
            child = obj.right_end_child(k, q, b1, b2)
            if child is not None:
                cq, cb1, cb2 = child
                cvi = (cq * P + cb1) * P + cb2
                for clab, cost in self._variant_entries(right_end_id, cvi):
                    if clab == lab and cost == target:
                        return columns[i2], ((right_end_id, cvi, lab),)
        raise AssertionError(
            f"no candidate of node {nid} variant {vi} label {lab} reproduces "
            f"its stored optimum {target!r}"
        )


@dataclass
class ExactSolution:
    """One exact solve: the optimum, a witnessing schedule, engine metadata.

    ``value`` is the gap count (an ``int``) or the power (a ``float``);
    ``schedule`` and ``times`` (its ``job -> execution time`` map) are
    ``None`` when the instance is infeasible.  ``engine`` is
    :meth:`IntervalDPEngine.metadata` either way.
    """

    feasible: bool
    value: Optional[float]
    schedule: Optional[Union[Schedule, MultiprocessorSchedule]]
    times: Optional[Dict[int, int]]
    engine: Dict


def solve_exact(
    instance: Union[OneIntervalInstance, MultiprocessorInstance],
    objective: str,
    alpha: Optional[float] = None,
) -> ExactSolution:
    """Solve ``instance`` exactly for ``"gaps"`` (Theorem 1) or ``"power"`` (Theorem 2).

    A one-interval instance is the ``p = 1`` case, Baptiste's problem.
    ``alpha`` is the wake-up cost and is read only for ``"power"``.
    """
    if isinstance(instance, OneIntervalInstance):
        lifted = instance.to_multiprocessor(1)
    else:
        lifted = instance
    p = lifted.num_processors
    if objective == "gaps":
        algebra = GapObjective(p)
    elif objective == "power" and alpha is not None:
        algebra = PowerObjective(p, alpha)
    else:
        raise ValueError(
            f"solve_exact needs objective 'gaps', or 'power' with alpha; "
            f"got {objective!r} with alpha={alpha!r}"
        )
    engine = IntervalDPEngine(IntervalDecomposition(lifted), algebra)
    outcome = engine.solve()
    if not outcome.feasible:
        return ExactSolution(False, None, None, None, engine.metadata())
    value = int(outcome.value) if objective == "gaps" else float(outcome.value)
    times = outcome.assignment
    schedule = schedule_from_times(instance, times)
    return ExactSolution(True, value, schedule, times, engine.metadata())


def schedule_from_times(
    instance: Union[OneIntervalInstance, MultiprocessorInstance],
    times: Dict[int, int],
) -> Union[Schedule, MultiprocessorSchedule]:
    """The validated schedule of a ``job -> time`` map, typed by the input.

    A one-interval instance gets a :class:`~repro.core.schedule.Schedule`;
    any multiprocessor instance, ``p = 1`` included, gets a
    :class:`~repro.core.schedule.MultiprocessorSchedule` in staircase order
    (:func:`~repro.core.schedule.staircase_normalize`): the jobs run at one
    time sit on processors ``1, 2, ...`` by job index.
    """
    if isinstance(instance, OneIntervalInstance):
        schedule = Schedule(instance=instance, assignment=dict(times))
    else:
        slots = staircase_normalize({job: (1, t) for job, t in times.items()})
        schedule = MultiprocessorSchedule(instance=instance, assignment=slots)
    schedule.validate()
    return schedule


def times_from_schedule(
    schedule: Union[Schedule, MultiprocessorSchedule]
) -> Dict[int, int]:
    """The ``job -> time`` map of a schedule: the inverse of :func:`schedule_from_times`."""
    return {
        job: (slot[1] if isinstance(slot, tuple) else slot)
        for job, slot in schedule.assignment.items()
    }

