"""Unit tests for the power model and the discrete-time simulator."""

import pytest

from repro.core import MultiprocessorInstance, OneIntervalInstance, Schedule, solve_multiprocessor_power
from repro.core.exceptions import InvalidInstanceError
from repro.power import PowerModel, SleepStatePolicy, simulate_schedule


class TestPowerModel:
    def test_gap_cost_min_of_bridging_and_sleeping(self):
        model = PowerModel(alpha=3.0)
        assert model.gap_cost(1) == 1.0
        assert model.gap_cost(5) == 3.0
        assert model.gap_cost(3) == 3.0

    def test_break_even_gap(self):
        assert PowerModel(alpha=4.0).break_even_gap() == pytest.approx(4.0)
        assert PowerModel(alpha=4.0, active_power=2.0).break_even_gap() == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInstanceError):
            PowerModel(alpha=-1.0)
        with pytest.raises(InvalidInstanceError):
            PowerModel(alpha=1.0, active_power=0.5, sleep_power=1.0)
        with pytest.raises(InvalidInstanceError):
            PowerModel(alpha=1.0).gap_cost(-2)


class TestSimulator:
    def make_schedule(self):
        instance = OneIntervalInstance.from_pairs([(0, 0), (2, 2), (9, 9)])
        return Schedule(instance=instance, assignment={0: 0, 1: 2, 2: 9})

    def test_optimal_policy_matches_analytic_power(self):
        schedule = self.make_schedule()
        for alpha in (0.5, 1.0, 2.0, 5.0):
            sim = simulate_schedule(schedule, PowerModel(alpha=alpha))
            assert sim.total_energy == pytest.approx(schedule.power_cost(alpha))

    def test_always_sleep_policy(self):
        schedule = self.make_schedule()
        sim = simulate_schedule(
            schedule, PowerModel(alpha=2.0), SleepStatePolicy.ALWAYS_SLEEP
        )
        # 3 executions + 3 wake-ups.
        assert sim.total_energy == pytest.approx(3 + 3 * 2.0)
        assert sim.total_wakeups == 3

    def test_always_active_policy(self):
        schedule = self.make_schedule()
        sim = simulate_schedule(
            schedule, PowerModel(alpha=2.0), SleepStatePolicy.ALWAYS_ACTIVE
        )
        # Active from time 0 through 9 inclusive plus one wake-up.
        assert sim.total_active_time == 10
        assert sim.total_energy == pytest.approx(10 + 2.0)

    def test_timeout_policy_between_extremes(self):
        schedule = self.make_schedule()
        model = PowerModel(alpha=2.0)
        sleepy = simulate_schedule(schedule, model, SleepStatePolicy.ALWAYS_SLEEP)
        active = simulate_schedule(schedule, model, SleepStatePolicy.ALWAYS_ACTIVE)
        timeout = simulate_schedule(schedule, model, SleepStatePolicy.TIMEOUT, timeout=1)
        assert min(sleepy.total_energy, active.total_energy) <= timeout.total_energy
        assert timeout.total_energy <= max(sleepy.total_energy, active.total_energy) + 2

    def test_multiprocessor_simulation_matches_solver(self):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (4, 6), (5, 8)], num_processors=2
        )
        solution = solve_multiprocessor_power(instance, alpha=1.5)
        schedule = solution.require_schedule()
        sim = simulate_schedule(schedule, PowerModel(alpha=1.5))
        assert sim.total_energy == pytest.approx(solution.power)
        assert len(sim.traces) == schedule.used_processors()

    def test_empty_schedule(self):
        instance = OneIntervalInstance(jobs=[])
        sim = simulate_schedule(
            Schedule(instance=instance, assignment={}), PowerModel(alpha=1.0)
        )
        assert sim.total_energy == 0.0
        assert sim.traces == []

    def test_trace_reports_busy_times(self):
        schedule = self.make_schedule()
        sim = simulate_schedule(schedule, PowerModel(alpha=1.0))
        assert sim.traces[0].busy_times == [0, 2, 9]
        assert sim.traces[0].executed_jobs == 3
