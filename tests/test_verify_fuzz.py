"""Fuzz driver: determinism, corpus round-trip, replay, generator coverage."""

import json
import random

import pytest

from repro.api import OneIntervalInstance, Problem, SolveResult, register_solver, to_dict
from repro.api.registry import _REGISTRY
from repro.core.schedule import Schedule
from repro.verify import FuzzFailure, fuzz, load_corpus, replay, save_corpus
from repro.verify.fuzz import generate_problem


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = fuzz(seed=11, n=40)
        b = fuzz(seed=11, n=40)
        assert a.summary() == b.summary()
        assert [f.to_dict() for f in a.failures] == [f.to_dict() for f in b.failures]

    def test_different_seeds_differ(self):
        a = fuzz(seed=1, n=30, metamorphic=False)
        b = fuzz(seed=2, n=30, metamorphic=False)
        assert a.solver_counts != b.solver_counts or a.num_infeasible != b.num_infeasible

    def test_generate_problem_is_pure_in_rng(self):
        for objective in ("gaps", "power", "throughput"):
            g1, p1 = generate_problem(random.Random(7), objective)
            g2, p2 = generate_problem(random.Random(7), objective)
            assert g1 == g2
            assert to_dict(p1) == to_dict(p2)


class TestAcceptance:
    def test_seed0_n500_is_green_across_all_objectives(self):
        report = fuzz(seed=0, n=500)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.num_problems == 500
        # every registered solver must have been exercised
        exercised = set(report.solver_counts)
        assert {
            "gap-dp",
            "power-dp",
            "power-approx",
            "throughput-greedy",
            "greedy-gap",
            "online-edf",
            "brute-force-gaps",
            "brute-force-power",
            "brute-force-throughput",
        } <= exercised
        # brute-force oracles certify the exact solvers on small instances
        assert report.solver_counts["brute-force-gaps"] > 50
        assert report.solver_counts["brute-force-power"] > 50
        assert report.num_infeasible > 0  # near-infeasible families fire

    def test_objective_subset(self):
        report = fuzz(seed=4, n=20, objectives=("gaps",))
        assert report.ok
        assert report.objectives == ("gaps",)
        assert "throughput-greedy" not in report.solver_counts

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            fuzz(seed=0, n=1, objectives=("makespan",))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError):
            fuzz(seed=0, n=n)


class TestCorpus:
    def _failure(self):
        instance = OneIntervalInstance.from_pairs([(0, 3), (1, 5)])
        problem = Problem(objective="gaps", instance=instance)
        return FuzzFailure(
            index=7,
            kind="differential",
            objective="gaps",
            generator="uniform",
            issues=["made-up issue"],
            problem=to_dict(problem),
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        failure = self._failure()
        save_corpus([failure], path)
        loaded = load_corpus(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == failure.to_dict()
        # corpus is plain sorted-key JSON: inspectable and diffable
        payload = json.loads(open(path).read())
        assert payload[0]["problem"]["type"] == "problem"

    def test_replay_clean_problem_goes_green(self, tmp_path):
        # The saved failure's problem is actually fine (e.g. the bug was
        # fixed since), so replay reports no failures.
        path = str(tmp_path / "corpus.json")
        save_corpus([self._failure()], path)
        report = replay(path)
        assert report.ok
        assert report.num_problems == 1

    def test_replay_detects_live_bug(self, tmp_path):
        name = "test-replay-liar"

        @register_solver(
            name,
            objective="gaps",
            kind="exact",
            instance_types=(OneIntervalInstance,),
        )
        def _liar(problem):
            n = len(problem.instance.jobs)
            return SolveResult(
                status="optimal",
                objective="gaps",
                value=0,
                schedule=Schedule(
                    instance=problem.instance,
                    assignment={i: problem.instance.jobs[i].deadline for i in range(n)},
                ),
            )

        try:
            path = str(tmp_path / "corpus.json")
            save_corpus([self._failure()], path)
            report = replay(path)
            assert not report.ok
            assert any(name in issue for f in report.failures for issue in f.issues)
        finally:
            _REGISTRY.pop(name, None)

    def test_green_run_clears_the_corpus(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus([self._failure()], str(path))  # stale failures from a past run
        report = fuzz(seed=0, n=10, corpus_path=str(path))
        assert report.ok
        assert load_corpus(str(path)) == []  # green run rewrites, never leaves stale

    def test_meta_seed_round_trips_through_the_corpus(self, tmp_path):
        failure = self._failure()
        failure.meta_seed = 424242
        path = str(tmp_path / "corpus.json")
        save_corpus([failure], path)
        assert load_corpus(path)[0].meta_seed == 424242

    def test_crash_in_a_solver_is_captured_not_fatal(self, tmp_path):
        name = "test-crashing-solver"

        @register_solver(
            name,
            objective="gaps",
            kind="exact",
            instance_types=(OneIntervalInstance,),
        )
        def _crash(problem):
            raise IndexError("synthetic solver crash")

        try:
            path = tmp_path / "corpus.json"
            report = fuzz(seed=0, n=12, metamorphic=False, corpus_path=str(path))
            crashes = [f for f in report.failures if f.kind == "crash"]
            assert crashes, "the crashing solver should surface as crash findings"
            assert any("IndexError" in i for f in crashes for i in f.issues)
            # the run completed and the corpus captured the crashing instances
            assert report.num_problems == 12
            assert len(load_corpus(str(path))) == len(report.failures)
        finally:
            _REGISTRY.pop(name, None)


class TestGeneratorFamilies:
    def test_structured_fuzzers_are_reachable(self):
        seen = set()
        rng = random.Random(0)
        for _ in range(300):
            generator, _problem = generate_problem(rng, "gaps")
            seen.add(generator)
        assert {"uniform", "tight", "clustered", "hall"} <= seen

    def test_hall_family_produces_infeasible_instances(self):
        from repro.core.feasibility import is_feasible_multiproc, is_feasible
        from repro.generators import hall_violating_instance

        infeasible = 0
        for seed in range(30):
            instance = hall_violating_instance(num_jobs=5, horizon=8, seed=seed)
            if not is_feasible(instance):
                infeasible += 1
        assert infeasible > 20  # slack=-1 guarantees a violated Hall window

    def test_progress_callback_fires(self):
        calls = []
        fuzz(seed=0, n=5, metamorphic=False, progress=lambda i, rep: calls.append(i))
        assert calls == [0, 1, 2, 3, 4]
