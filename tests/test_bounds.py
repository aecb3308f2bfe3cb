"""Tests for ``repro.bounds`` — certified lower bounds and their checkers.

Every bound here must be *sound* (never exceed the true optimum) and its
certificate must re-verify through ``repro.verify.certify_bound``; both
properties are checked against the exact DPs on seeded random instances,
and the checker is shown to reject tampered witnesses.
"""

import random

import pytest

from repro.api import Problem, solve
from repro.bounds import (
    BoundCertificate,
    gap_lower_bound,
    hall_deficiency,
    lower_bound_for,
    matching_feasibility,
    power_lower_bound,
    window_components,
)
from repro.bounds.lower import _block_length_cap, interval_coverage
from repro.core.jobs import (
    MultiIntervalInstance,
    MultiprocessorInstance,
    OneIntervalInstance,
)
from repro.matching.hall import hall_violation
from repro.verify import certify_bound
from repro.verify.certificates import _coverage_recount


def random_instance(rng, max_jobs=12):
    n = rng.randint(1, max_jobs)
    horizon = rng.randint(max(2, n // 2), 3 * n + 4)
    pairs = []
    for _ in range(n):
        r = rng.randrange(horizon)
        pairs.append((r, r + rng.randint(0, horizon - r)))
    return OneIntervalInstance.from_pairs(pairs)


class TestWindowComponents:
    def test_disjoint_windows_split(self):
        inst = OneIntervalInstance.from_pairs([(0, 2), (10, 12), (20, 22)])
        assert window_components(inst) == [(0, 2), (10, 12), (20, 22)]

    def test_touching_windows_merge(self):
        # (0,2) and (3,5) touch: an idle-free schedule across them exists.
        inst = OneIntervalInstance.from_pairs([(0, 2), (3, 5)])
        assert window_components(inst) == [(0, 5)]

    def test_overlapping_windows_merge(self):
        inst = OneIntervalInstance.from_pairs([(0, 6), (2, 4), (5, 9)])
        assert window_components(inst) == [(0, 9)]

    def test_empty_instance(self):
        assert window_components(OneIntervalInstance(())) == []


class TestIntervalCoverage:
    """The density bound's sweep against the certificate checker's recount."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_the_recount_at_every_length(self, seed):
        rng = random.Random(2600 + seed)
        for _ in range(12):
            instance = random_instance(rng, max_jobs=25)
            releases = sorted(instance.releases)
            deadlines = sorted(instance.deadlines)
            lo, hi = instance.horizon
            for length in range(1, hi - lo + 3):
                expected = _coverage_recount(instance, length)
                assert interval_coverage(releases, deadlines, length) == expected, (
                    instance.jobs,
                    length,
                )

    def test_block_cap_reports_the_recounted_coverage(self):
        # The coverage the cap reports for its failing probe is the
        # recount's.
        rng = random.Random(2700)
        capped = 0
        for _ in range(40):
            instance = random_instance(rng, max_jobs=25)
            density = _block_length_cap(instance)
            if density is None:
                continue
            capped += 1
            probe = density["probe"]
            assert density["coverage"] == _coverage_recount(instance, probe) < probe
        assert capped > 0

    def test_no_jobs_and_bad_length(self):
        assert interval_coverage([], [], 3) == 0
        with pytest.raises(ValueError):
            interval_coverage([0], [1], 0)


class TestGapLowerBound:
    def test_component_bound_on_separated_windows(self):
        inst = OneIntervalInstance.from_pairs([(0, 1), (10, 11), (20, 21)])
        cert = gap_lower_bound(inst)
        assert cert.kind == "gap-structure"
        assert cert.value == 2
        assert certify_bound(Problem(objective="gaps", instance=inst), cert).ok

    def test_density_bound_on_staircase(self):
        # 40 jobs, windows of length 31 stepping by 7: no single busy block
        # can be long, forcing many gaps even though windows overlap.
        inst = OneIntervalInstance.from_pairs(
            [(7 * i, 7 * i + 30) for i in range(40)]
        )
        cert = gap_lower_bound(inst)
        assert cert.value > 0
        assert cert.witness["density"] is not None
        assert certify_bound(Problem(objective="gaps", instance=inst), cert).ok

    def test_sound_against_exact_dp(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(120):
            inst = random_instance(rng)
            problem = Problem(objective="gaps", instance=inst)
            exact = solve(problem, solver="gap-dp")
            if exact.status == "infeasible":
                continue
            cert = gap_lower_bound(inst)
            assert cert.value <= exact.value + 1e-9, (
                inst.jobs,
                cert.to_dict(),
                exact.value,
            )
            assert certify_bound(problem, cert).ok
            checked += 1
        assert checked >= 60

    def test_tampered_witness_rejected(self):
        inst = OneIntervalInstance.from_pairs([(0, 1), (10, 11)])
        cert = gap_lower_bound(inst)
        bad = cert.to_dict()
        bad["value"] = cert.value + 5
        problem = Problem(objective="gaps", instance=inst)
        assert not certify_bound(problem, bad).ok


class TestPowerLowerBound:
    def test_sound_against_exact_dp(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(120):
            inst = random_instance(rng)
            alpha = rng.choice([0.5, 1.0, 2.0, 3.5])
            problem = Problem(objective="power", instance=inst, alpha=alpha)
            exact = solve(problem, solver="power-dp")
            if exact.status == "infeasible":
                continue
            cert = power_lower_bound(inst, alpha)
            assert cert.value <= exact.value + 1e-9
            assert certify_bound(problem, cert).ok
            checked += 1
        assert checked >= 60

    def test_empty_instance_costs_nothing(self):
        cert = power_lower_bound(OneIntervalInstance(()), 2.0)
        assert cert.value == 0.0

    def test_tampered_seam_rejected(self):
        inst = OneIntervalInstance.from_pairs([(0, 1), (10, 11)])
        cert = power_lower_bound(inst, 2.0)
        bad = cert.to_dict()
        bad["witness"]["seams"] = [999]
        problem = Problem(objective="power", instance=inst, alpha=2.0)
        assert not certify_bound(problem, bad).ok


class TestHallDeficiency:
    def test_matches_quadratic_reference(self):
        rng = random.Random(3)
        for _ in range(250):
            inst = random_instance(rng, max_jobs=10)
            windows = [(j.release, j.deadline) for j in inst.jobs]
            cert = hall_deficiency(inst)
            violation = hall_violation(windows, 1)
            if violation is None:
                assert cert.value <= 0, (windows, cert.to_dict())
            else:
                x, y, demand, capacity = violation
                assert cert.value >= demand - capacity > 0 or cert.value > 0

    def test_multiprocessor_capacity(self):
        pairs = [(0, 1), (0, 1), (0, 1), (0, 1)]
        single = MultiprocessorInstance.from_pairs(pairs, num_processors=1)
        double = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        assert hall_deficiency(single).value == 2
        assert hall_deficiency(double).value <= 0

    def test_certificate_roundtrip_and_check(self):
        inst = OneIntervalInstance.from_pairs([(0, 1), (0, 1), (0, 1)])
        cert = hall_deficiency(inst)
        assert cert.proves_infeasible
        problem = Problem(objective="gaps", instance=inst)
        assert certify_bound(problem, cert.to_dict()).ok
        bad = cert.to_dict()
        bad["witness"]["y"] = bad["witness"]["y"] + 3
        assert not certify_bound(problem, bad).ok


class TestMatchingFeasibility:
    def test_feasible_instance_has_zero_deficiency(self):
        inst = OneIntervalInstance.from_pairs([(0, 2), (1, 3), (2, 4)])
        cert = matching_feasibility(inst)
        assert cert.value == 0
        assert not cert.proves_infeasible
        assert certify_bound(Problem(objective="gaps", instance=inst), cert).ok

    def test_infeasible_instance_counts_unmatched(self):
        inst = OneIntervalInstance.from_pairs([(0, 0), (0, 0), (0, 0)])
        cert = matching_feasibility(inst)
        assert cert.value == 2
        assert cert.proves_infeasible

    def test_agrees_with_hall_on_feasibility(self):
        rng = random.Random(19)
        for _ in range(100):
            inst = random_instance(rng, max_jobs=9)
            hall = hall_deficiency(inst)
            matching = matching_feasibility(inst)
            assert (hall.value > 0) == (matching.value > 0)


class TestLowerBoundFor:
    def test_dispatches_by_objective(self):
        inst = OneIntervalInstance.from_pairs([(0, 1), (10, 11)])
        gaps = lower_bound_for(Problem(objective="gaps", instance=inst))
        power = lower_bound_for(
            Problem(objective="power", instance=inst, alpha=2.0)
        )
        assert gaps.kind == "gap-structure"
        assert power.kind == "power-structure"

    def test_unwraps_single_processor_multiproc(self):
        inst = MultiprocessorInstance.from_pairs(
            [(0, 1), (10, 11)], num_processors=1
        )
        cert = lower_bound_for(Problem(objective="gaps", instance=inst))
        assert cert is not None and cert.value == 1

    def test_multiproc_and_multi_interval_are_now_bounded(self):
        # Historically these returned None, leaving large portfolio solves
        # uncertified; both regimes now get finite certified bounds.
        multi = MultiIntervalInstance.from_time_lists([[0, 1], [4, 5]])
        cert = lower_bound_for(
            Problem(objective="power", instance=multi, alpha=1.0)
        )
        assert cert is not None
        assert cert.kind == "multiinterval-power-structure"
        two_proc = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1)], num_processors=2
        )
        cert = lower_bound_for(Problem(objective="gaps", instance=two_proc))
        assert cert is not None
        assert cert.kind == "multiproc-gap-structure"

    def test_none_for_throughput(self):
        multi = MultiIntervalInstance.from_time_lists([[0, 1], [4, 5]])
        assert (
            lower_bound_for(
                Problem(objective="throughput", instance=multi, max_gaps=1)
            )
            is None
        )


class TestMultiprocBounds:
    def test_components_needing_many_processors(self):
        # Two well-separated triple-overloaded windows on 2 processors:
        # each component needs 3 processors busy, so >= 3 + 3 - 2 = 4 gaps.
        pairs = [(0, 0)] * 3 + [(10, 10)] * 3
        inst = MultiprocessorInstance.from_pairs(pairs, num_processors=2)
        problem = Problem(objective="gaps", instance=inst)
        cert = lower_bound_for(problem)
        assert cert.value == 4
        assert certify_bound(problem, cert).ok

    def test_roundtrips_through_dict(self):
        inst = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (8, 9)], num_processors=2
        )
        problem = Problem(objective="power", instance=inst, alpha=2.0)
        cert = lower_bound_for(problem)
        assert certify_bound(problem, cert.to_dict()).ok

    def test_sound_against_exact_dp(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 8)
            horizon = rng.randint(2, 12)
            pairs = []
            for _ in range(n):
                r = rng.randrange(horizon)
                pairs.append((r, r + rng.randint(0, horizon - r)))
            inst = MultiprocessorInstance.from_pairs(
                pairs, num_processors=rng.randint(2, 3)
            )
            for problem in (
                Problem(objective="gaps", instance=inst),
                Problem(objective="power", instance=inst, alpha=1.5),
            ):
                cert = lower_bound_for(problem)
                assert certify_bound(problem, cert).ok
                result = solve(problem)
                if result.status == "optimal":
                    assert cert.value <= result.value + 1e-9

    def test_rejects_inflated_processor_claim(self):
        inst = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (0, 1), (0, 1)], num_processors=2
        )
        problem = Problem(objective="gaps", instance=inst)
        cert = lower_bound_for(problem)
        tampered = cert.to_dict()
        entry = tampered["witness"]["components"][0]
        entry["processors"] += 1
        tampered["value"] += 1
        assert not certify_bound(problem, tampered).ok


class TestMultiIntervalBounds:
    def test_pinned_components_force_gaps(self):
        # Job 0 straddles both runs (pins nothing); jobs 1 and 2 are each
        # stuck in their own run, forcing one gap between them.
        inst = MultiIntervalInstance.from_time_lists(
            [[1, 11], [0, 1], [10, 11]]
        )
        problem = Problem(objective="gaps", instance=inst)
        cert = lower_bound_for(problem)
        assert cert.value == 1
        assert cert.witness["components"] == [[0, 1], [10, 11]]
        assert certify_bound(problem, cert).ok

    def test_straddling_jobs_pin_nothing(self):
        inst = MultiIntervalInstance.from_time_lists([[0, 9], [1, 10]])
        problem = Problem(objective="gaps", instance=inst)
        cert = lower_bound_for(problem)
        assert cert.value == 0
        assert certify_bound(problem, cert).ok

    def test_power_charges_uncovered_seams(self):
        # 6 uncovered slots between the two pinned runs, alpha = 2.5:
        # n + alpha + min(6, alpha) = 2 + 2.5 + 2.5.
        inst = MultiIntervalInstance.from_time_lists([[0, 1], [8, 9]])
        problem = Problem(objective="power", instance=inst, alpha=2.5)
        cert = lower_bound_for(problem)
        assert cert.value == pytest.approx(7.0)
        assert certify_bound(problem, cert).ok

    def test_sound_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            lists = [
                sorted(rng.sample(range(14), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            inst = MultiIntervalInstance.from_time_lists(lists)
            problem = Problem(objective="gaps", instance=inst)
            cert = lower_bound_for(problem)
            assert certify_bound(problem, cert).ok
            result = solve(problem, solver="brute-force-gaps")
            if result.status == "optimal":
                assert cert.value <= result.value

    def test_rejects_fabricated_pin(self):
        inst = MultiIntervalInstance.from_time_lists([[0, 9], [1, 10]])
        problem = Problem(objective="gaps", instance=inst)
        cert = lower_bound_for(problem)
        tampered = cert.to_dict()
        tampered["witness"]["pinned"] = [[0, 0], [1, 1]]
        tampered["value"] = 1
        assert not certify_bound(problem, tampered).ok


class TestBoundCertificate:
    def test_roundtrip(self):
        cert = BoundCertificate(
            kind="gap-structure",
            objective="gaps",
            value=3,
            witness={"components": [[0, 2], [5, 6]], "density": None},
        )
        again = BoundCertificate.from_dict(cert.to_dict())
        assert again == cert

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            BoundCertificate(
                kind="vibes", objective="gaps", value=1, witness={}
            )
