"""Aliases of :func:`~repro.core.interval_dp.solve_exact` at ``p = 1``.

Their one caller is ``perfbench/layers.py``'s engine probe, which the
benchmark harness imports at start-up and which reads only ``.engine``;
everything else calls ``solve_exact``, whose ``p = 1`` case is Baptiste's
single-processor algorithm.  The module goes once that probe calls
``solve_exact`` itself.
"""

from __future__ import annotations

from .interval_dp import ExactSolution, solve_exact


def minimize_gaps_single_processor(instance) -> ExactSolution:
    return solve_exact(instance, "gaps")


def minimize_power_single_processor(instance, alpha: float) -> ExactSolution:
    return solve_exact(instance, "power", alpha)
