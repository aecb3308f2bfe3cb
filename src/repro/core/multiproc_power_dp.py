"""A solver-object alias of ``solve_exact(instance, "power", alpha)``.

Its one caller is ``perfbench/layers.py``'s engine probe, which the
benchmark harness imports at start-up; everything else calls
:func:`repro.core.interval_dp.solve_exact`.  The module goes once that
probe calls ``solve_exact`` itself.
"""

from __future__ import annotations

from typing import Dict

from .interval_dp import ExactSolution, solve_exact


class MultiprocessorPowerSolver:
    """``solve()`` runs :func:`solve_exact`; ``engine_metadata()`` reads its engine block."""

    def __init__(self, instance, alpha: float) -> None:
        self.instance = instance
        self.alpha = alpha
        self.solution = None

    def solve(self) -> ExactSolution:
        self.solution = solve_exact(self.instance, "power", self.alpha)
        return self.solution

    def engine_metadata(self) -> Dict:
        return self.solution.engine
