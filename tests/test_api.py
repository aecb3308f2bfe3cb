"""Unit tests for the repro.api façade: problem spec, registry, dispatch."""

import pytest

from repro.api import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
    Problem,
    SolverError,
    capable_solvers,
    get_solver,
    list_solvers,
    register_solver,
    select_solver,
    solve,
)
from repro.core.brute_force import brute_force_gap_multiproc
from repro.core.interval_dp import solve_exact
from repro.core.power_approx import approximate_power_schedule
from repro.core.throughput import greedy_throughput_schedule


@pytest.fixture
def one_interval():
    return OneIntervalInstance.from_pairs([(0, 3), (1, 5), (10, 13)])


@pytest.fixture
def multiproc():
    return MultiprocessorInstance.from_pairs(
        [(0, 1), (0, 1), (1, 2), (5, 6)], num_processors=2
    )


@pytest.fixture
def multi_interval():
    return MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [5, 6], [6, 7]])


class TestProblemValidation:
    def test_rejects_unknown_objective(self, one_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="makespan", instance=one_interval)

    def test_rejects_non_instance(self):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="gaps", instance=[(0, 1)])

    def test_power_requires_alpha(self, one_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="power", instance=one_interval)

    def test_power_rejects_negative_alpha(self, one_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="power", instance=one_interval, alpha=-1.0)

    def test_gaps_rejects_alpha(self, one_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="gaps", instance=one_interval, alpha=2.0)

    def test_throughput_requires_max_gaps(self, multi_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="throughput", instance=multi_interval)

    def test_throughput_rejects_negative_budget(self, multi_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="throughput", instance=multi_interval, max_gaps=-1)

    def test_power_rejects_max_gaps(self, one_interval):
        with pytest.raises(InvalidInstanceError):
            Problem(objective="power", instance=one_interval, alpha=1.0, max_gaps=2)

    def test_alpha_normalized_to_float(self, one_interval):
        problem = Problem(objective="power", instance=one_interval, alpha=2)
        assert isinstance(problem.alpha, float)


class TestRegistryDispatch:
    def test_auto_prefers_exact_dp_over_baselines(self, one_interval):
        problem = Problem(objective="gaps", instance=one_interval)
        candidates = capable_solvers(problem)
        assert [spec.name for spec in candidates][0] == "gap-dp"
        assert {"greedy-gap", "online-edf", "brute-force-gaps"} <= {
            spec.name for spec in candidates
        }
        assert select_solver(problem).name == "gap-dp"

    def test_auto_power_dispatch_by_instance_type(self, multiproc, multi_interval):
        assert (
            select_solver(Problem(objective="power", instance=multiproc, alpha=1.0)).name
            == "power-dp"
        )
        assert (
            select_solver(
                Problem(objective="power", instance=multi_interval, alpha=1.0)
            ).name
            == "power-approx"
        )

    def test_auto_throughput_prefers_greedy_over_brute_force(self, multi_interval):
        problem = Problem(objective="throughput", instance=multi_interval, max_gaps=1)
        assert select_solver(problem).name == "throughput-greedy"

    def test_auto_never_picks_exponential_baseline(self, multi_interval):
        # Multi-interval gap minimization is NP-hard; only the brute-force
        # oracle is capable, and auto must refuse it rather than silently
        # start an exponential enumeration.
        problem = Problem(objective="gaps", instance=multi_interval)
        with pytest.raises(SolverError, match="baseline"):
            select_solver(problem)
        assert solve(problem, solver="brute-force-gaps").status == "optimal"

    def test_explicit_baseline_by_name(self, one_interval):
        problem = Problem(objective="gaps", instance=one_interval)
        result = solve(problem, solver="greedy-gap")
        assert result.solver == "greedy-gap"
        assert result.status == "approximate"

    def test_unknown_solver_raises(self, one_interval):
        with pytest.raises(SolverError):
            solve(Problem(objective="gaps", instance=one_interval), solver="nope")

    def test_incapable_solver_raises(self, multi_interval):
        problem = Problem(objective="gaps", instance=multi_interval)
        with pytest.raises(SolverError):
            solve(problem, solver="greedy-gap")

    def test_wrong_objective_solver_raises(self, one_interval):
        problem = Problem(objective="gaps", instance=one_interval)
        with pytest.raises(SolverError):
            solve(problem, solver="power-dp")

    def test_get_solver_and_listing(self):
        spec = get_solver("gap-dp")
        assert spec.kind == "exact"
        names = [s.name for s in list_solvers(objective="power")]
        assert names == [
            "power-dp",
            "power-approx",
            "edf-power",
            "localsearch-power",
            "brute-force-power",
        ]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_solver(
                "gap-dp",
                objective="gaps",
                kind="exact",
                instance_types=(OneIntervalInstance,),
            )(lambda problem: None)


class TestSolveResults:
    def test_gap_result_matches_core_solver(self, multiproc):
        result = solve(Problem(objective="gaps", instance=multiproc))
        core = solve_exact(multiproc, "gaps")
        assert result.status == "optimal"
        assert result.value == core.value
        assert result.guarantee_factor == 1.0
        assert result.wall_time > 0.0
        schedule = result.require_schedule()
        schedule.validate()
        assert schedule.num_gaps() == result.value

    def test_power_result_matches_core_solver(self, multiproc):
        result = solve(Problem(objective="power", instance=multiproc, alpha=2.0))
        core = solve_exact(multiproc, "power", alpha=2.0)
        assert result.value == pytest.approx(core.value)
        assert result.extra["alpha"] == 2.0

    def test_brute_force_agrees_with_dp(self, multiproc):
        problem = Problem(objective="gaps", instance=multiproc)
        dp = solve(problem)
        brute = solve(problem, solver="brute-force-gaps")
        core_brute, _ = brute_force_gap_multiproc(multiproc)
        assert dp.value == brute.value == core_brute

    def test_infeasible_envelope(self):
        clash = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        result = solve(Problem(objective="gaps", instance=clash))
        assert result.status == "infeasible"
        assert not result.feasible
        assert result.value is None
        assert result.schedule is None
        with pytest.raises(InfeasibleInstanceError):
            result.require_schedule()

    def test_throughput_extra_payload(self, multi_interval):
        result = solve(
            Problem(objective="throughput", instance=multi_interval, max_gaps=2)
        )
        assert result.value == sum(
            len(w["jobs"]) for w in result.extra["working_intervals"]
        )
        assert result.extra["max_gaps"] == 2

    def test_single_processor_gap_uses_plain_schedule(self, one_interval):
        from repro.api import Schedule

        result = solve(Problem(objective="gaps", instance=one_interval))
        assert isinstance(result.schedule, Schedule)


class TestInfeasibleUniformity:
    """Satellite: every solver reports infeasibility identically through the façade."""

    CLASH = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])

    def test_every_capable_solver_returns_the_uniform_envelope(self):
        problem = Problem(objective="gaps", instance=self.CLASH)
        for spec in capable_solvers(problem):
            result = solve(problem, solver=spec.name)
            assert result.status == "infeasible", spec.name
            assert result.value is None and result.schedule is None, spec.name
            assert result.solver == spec.name

    def test_on_infeasible_raise(self):
        # raise_for_status() is the one way to raise on infeasibility.
        problem = Problem(objective="gaps", instance=self.CLASH)
        with pytest.raises(InfeasibleInstanceError):
            solve(problem).raise_for_status()

    def test_on_infeasible_raise_is_uniform_across_solvers(self):
        problem = Problem(objective="gaps", instance=self.CLASH)
        for spec in capable_solvers(problem):
            with pytest.raises(InfeasibleInstanceError):
                solve(problem, solver=spec.name).raise_for_status()

    def test_raise_for_status_on_feasible_returns_self(self):
        instance = OneIntervalInstance.from_pairs([(0, 2)])
        result = solve(Problem(objective="gaps", instance=instance))
        assert result.raise_for_status() is result

    def test_adapter_raising_infeasible_is_normalized(self):
        from repro.api import SolveResult
        from repro.api.registry import _REGISTRY, register_solver

        name = "test-raising-solver"

        @register_solver(
            name,
            objective="gaps",
            kind="baseline",
            instance_types=(OneIntervalInstance,),
        )
        def _raising(problem):
            raise InfeasibleInstanceError("adapter-style raise")

        try:
            result = solve(
                Problem(objective="gaps", instance=self.CLASH), solver=name
            )
            assert result.status == "infeasible"
            assert result.value is None and result.schedule is None
            assert result.solver == name
        finally:
            _REGISTRY.pop(name, None)


class TestCoreMatchesFacade:
    """Each per-theorem core function agrees with its façade envelope."""

    def test_solve_exact_gaps_multiprocessor(self, multiproc):
        core = solve_exact(multiproc, "gaps")
        facade = solve(Problem(objective="gaps", instance=multiproc))
        assert core.feasible == facade.feasible
        assert core.value == facade.value

    def test_solve_exact_power_multiprocessor(self, multiproc):
        core = solve_exact(multiproc, "power", 2.0)
        facade = solve(Problem(objective="power", instance=multiproc, alpha=2.0))
        assert core.value == pytest.approx(facade.value)

    def test_solve_exact_gaps_single_processor(self, one_interval):
        core = solve_exact(one_interval, "gaps")
        facade = solve(Problem(objective="gaps", instance=one_interval))
        assert core.value == facade.value

    def test_solve_exact_power_single_processor(self, one_interval):
        core = solve_exact(one_interval, "power", 2.0)
        facade = solve(Problem(objective="power", instance=one_interval, alpha=2.0))
        assert core.value == pytest.approx(facade.value)

    def test_approximate_power_schedule(self, multi_interval):
        core = approximate_power_schedule(multi_interval, 1.0)
        facade = solve(
            Problem(objective="power", instance=multi_interval, alpha=1.0),
            solver="power-approx",
        )
        assert core.power == pytest.approx(facade.value)
        assert core.guarantee_factor == pytest.approx(facade.guarantee_factor)

    def test_greedy_throughput_schedule(self, multi_interval):
        core = greedy_throughput_schedule(multi_interval, 2)
        facade = solve(
            Problem(objective="throughput", instance=multi_interval, max_gaps=2)
        )
        assert core.num_scheduled == facade.value

    def test_infeasible_core_result_matches_facade_envelope(self):
        clash = OneIntervalInstance.from_pairs([(0, 0), (0, 0)])
        core = solve_exact(clash, "gaps")
        facade = solve(Problem(objective="gaps", instance=clash))
        assert not core.feasible
        assert facade.status == "infeasible"
        assert facade.value is None and facade.schedule is None


class TestOneWayIn:
    """Each behaviour has one way in: options only tests set stay deleted."""

    def test_removed_options_stay_removed(self):
        import inspect

        import repro.api
        import repro.runtime
        from repro.api import solve_batch
        from repro.core.canonical import CanonicalSolveCache
        from repro.core.feasibility import edf_schedule
        from repro.runtime import run_tasks, solve_stream
        from repro.service import SchedulerDaemon, ServiceServer
        from repro.verify import fuzz, portfolio_fuzz

        removed = {
            solve: {"on_infeasible"},
            solve_batch: {"dedupe", "on_error"},
            solve_stream: {"dedupe", "on_error"},
            run_tasks: {"ordered"},
            ServiceServer: {"recover", "default_solver"},
            SchedulerDaemon: {"metrics"},
            fuzz: {"progress"},
            portfolio_fuzz: {"budget"},
            edf_schedule: {"work_conserving"},
        }
        for func, names in removed.items():
            params = set(inspect.signature(func).parameters)
            assert not names & params, (func.__name__, names & params)
        for name in ("configure_backend", "configured_backend", "default_backend_name"):
            assert not hasattr(repro.runtime, name), name
        assert not hasattr(repro.api, "configure_solve_cache")
        assert not hasattr(CanonicalSolveCache, "configure")
        assert "disabled_gets" not in repro.api.solve_cache_stats()
