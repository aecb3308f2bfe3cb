"""End-to-end integration tests spanning generators, solvers and analysis."""

import pytest

from repro.core import MultiIntervalInstance, solve_exact
from repro.analysis import power_breakdown, schedule_summary
from repro.core.greedy_gap import greedy_gap_schedule
from repro.core.power_approx import approximate_power_schedule
from repro.core.throughput import greedy_throughput_schedule
from repro.generators import (
    bursty_server_instance,
    periodic_sensor_instance,
    random_multiprocessor_instance,
)
from repro.power import PowerModel, SleepStatePolicy, simulate_schedule
from repro.reductions import build_gap_gadget
from repro.setcover import exact_set_cover
from repro.generators.random_jobs import random_set_cover_instance


class TestDatacenterPipeline:
    """Generator -> exact solvers -> simulator, as used by the datacenter example."""

    def test_gap_and_power_solvers_agree_on_structure(self):
        instance = bursty_server_instance(
            num_bursts=3, jobs_per_burst=3, burst_spacing=8, slack=2, num_processors=3
        )
        gap_solution = solve_exact(instance, "gaps")
        power_solution = solve_exact(instance, "power", alpha=4.0)
        assert gap_solution.feasible and power_solution.feasible
        # The power optimum can always be realised with at most as much power
        # as the gap-optimal schedule costs.
        gap_schedule_power = gap_solution.schedule.power_cost(4.0)
        assert power_solution.value <= gap_schedule_power + 1e-9

    def test_simulator_confirms_power_numbers(self):
        instance = bursty_server_instance(
            num_bursts=2, jobs_per_burst=2, burst_spacing=10, slack=2, num_processors=2
        )
        solution = solve_exact(instance, "power", alpha=2.5)
        schedule = solution.schedule
        sim = simulate_schedule(schedule, PowerModel(alpha=2.5))
        assert sim.total_energy == pytest.approx(solution.value)
        breakdown = power_breakdown(schedule, alpha=2.5)
        assert breakdown["total"] == pytest.approx(solution.value)


class TestSensorPipeline:
    """Sensor workload -> Theorem 3 approximation -> summary metrics."""

    def test_approximation_pipeline(self):
        instance = periodic_sensor_instance(
            num_sensors=4, readings_per_sensor=2, period=12, window=3, seed=0
        )
        result = approximate_power_schedule(instance, alpha=5.0)
        result.schedule.validate()
        summary = schedule_summary(result.schedule, alpha=5.0)
        assert summary["jobs_scheduled"] == instance.num_jobs
        assert summary["power"] == pytest.approx(result.power)


class TestConsultantPipeline:
    """Multi-interval workload -> throughput greedy under a restart budget."""

    def test_budget_sweep_is_monotone(self):
        instance = periodic_sensor_instance(
            num_sensors=3, readings_per_sensor=2, period=10, window=2, seed=1
        )
        scheduled = []
        for budget in range(0, 5):
            result = greedy_throughput_schedule(instance, max_gaps=budget)
            result.schedule.validate(require_complete=False)
            scheduled.append(result.num_scheduled)
        assert scheduled == sorted(scheduled)


class TestHardnessPipeline:
    """Set cover -> gadget -> scheduling solvers -> back to covers."""

    def test_gap_gadget_roundtrip_with_greedy_baseline(self):
        source = random_set_cover_instance(
            num_elements=5, num_sets=5, max_set_size=3, seed=21
        )
        gadget = build_gap_gadget(source)
        cover = exact_set_cover(source)
        schedule = gadget.cover_to_schedule(cover)
        recovered = gadget.schedule_to_cover(schedule)
        assert source.is_cover(recovered)
        assert len(recovered) <= len(cover)


class TestBaselineComparison:
    def test_exact_beats_or_ties_greedy_and_both_are_valid(self):
        instance = random_multiprocessor_instance(
            num_jobs=8, num_processors=1, horizon=24, max_window=6, seed=9
        ).single_processor_view()
        exact = solve_exact(instance, "gaps")
        greedy = greedy_gap_schedule(instance)
        assert exact.feasible and greedy.feasible
        assert exact.value <= greedy.num_gaps
        exact_power = solve_exact(instance, "power", alpha=2.0)
        assert exact_power.value <= greedy.schedule.power_cost(2.0) + 1e-9
