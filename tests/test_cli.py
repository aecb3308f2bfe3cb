"""Unit tests for the command-line interface."""

import importlib
import io
import json

import pytest

from repro import __version__
from repro.api import MultiIntervalInstance, MultiprocessorInstance, Problem, to_json
from repro.cli import build_parser, main


def feed_stdin(monkeypatch, payload):
    """Serve ``payload`` (a façade value or raw JSON text) as stdin for ``-i -``."""
    text = payload if isinstance(payload, str) else to_json(payload)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def one_cpu(*pairs):
    return MultiprocessorInstance.from_pairs(list(pairs), num_processors=1)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_solve_gap(self):
        args = build_parser().parse_args(["solve", "-i", "-", "--objective", "gaps"])
        assert args.command == "solve"
        assert args.input == "-"
        assert args.objective == "gaps"

    def test_bench_verb_is_gone(self, capsys):
        # The engine's timing gate lives outside the library, in benchdp/.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        with pytest.raises(ImportError):
            importlib.import_module("repro.perf")

    def test_serve_window_flag_is_gone(self, capsys):
        # The daemon claims a job whenever a task slot frees.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--window", "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --window 4" in capsys.readouterr().err


class TestCommands:
    """Each job of the paper through ``solve``, reading the instance from stdin."""

    def test_solve_gap_prints_optimum(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, one_cpu((0, 0), (2, 2)))
        code = main(["solve", "-i", "-", "--objective", "gaps"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 1" in out
        assert "solver: gap-dp" in out

    def test_solve_gap_infeasible_exit_code(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, one_cpu((0, 0), (0, 0)))
        code = main(["solve", "-i", "-", "--objective", "gaps"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_solve_power(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, one_cpu((0, 0), (2, 2)))
        code = main(["solve", "-i", "-", "--objective", "power", "--alpha", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 8" in out
        assert "solver: power-dp" in out

    def test_approx_power(self, monkeypatch, capsys):
        feed_stdin(
            monkeypatch,
            MultiIntervalInstance.from_time_lists([[0, 1], [1, 2], [5, 6]]),
        )
        code = main(
            ["solve", "-i", "-", "--objective", "power", "--alpha", "2",
             "--solver", "power-approx"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solver: power-approx" in out
        assert "guarantee factor:" in out

    def test_throughput(self, monkeypatch, capsys):
        # Compact JSON: job names are optional.
        feed_stdin(
            monkeypatch,
            '{"type": "multi_interval_instance", "jobs": ['
            '{"type": "multi_interval_job", "times": [0]}, '
            '{"type": "multi_interval_job", "times": [1]}, '
            '{"type": "multi_interval_job", "times": [9]}]}',
        )
        code = main(["solve", "-i", "-", "--objective", "throughput", "--max-gaps", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 2" in out
        assert "solver: throughput-greedy" in out

    def test_experiment_single(self, capsys):
        code = main(["experiment", "E12", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[E12]" in out

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "E99"])
        assert excinfo.value.code == 2
        assert "unknown experiment 'E99'" in capsys.readouterr().err

    def test_malformed_job_spec_is_clean_usage_error(self, monkeypatch, capsys):
        # A job given as a bare [release, deadline] pair, and one without
        # a deadline, instead of tagged job objects.
        for job in ("[0, 5]", '{"type": "job", "release": 0}'):
            feed_stdin(
                monkeypatch,
                '{"type": "one_interval_instance", "jobs": [' + job + "]}",
            )
            with pytest.raises(SystemExit) as excinfo:
                main(["solve", "-i", "-", "--objective", "gaps"])
            assert excinfo.value.code == 2
            assert "malformed --input JSON" in capsys.readouterr().err

    def test_non_integer_job_spec_is_clean_usage_error(self, monkeypatch, capsys):
        feed_stdin(
            monkeypatch,
            '{"type": "one_interval_instance", "jobs": '
            '[{"type": "job", "release": 0, "deadline": "x"}]}',
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "-i", "-", "--objective", "gaps"])
        assert excinfo.value.code == 2
        assert "'x'" in capsys.readouterr().err


class TestSolveSubcommand:
    def make_instance_file(self, tmp_path, obj):
        path = tmp_path / "input.json"
        path.write_text(to_json(obj))
        return str(path)

    def test_solve_instance_with_objective(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 0), (2, 2)], num_processors=1)
        path = self.make_instance_file(tmp_path, instance)
        code = main(["solve", "--input", path, "--objective", "gaps"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: optimal" in out
        assert "value: 1" in out
        assert "solver: gap-dp" in out

    def test_solve_problem_file_json_output(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 1), (0, 1)], num_processors=2)
        problem = Problem(objective="power", instance=instance, alpha=2.0)
        path = self.make_instance_file(tmp_path, problem)
        code = main(["solve", "--input", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "optimal"
        assert payload["objective"] == "power"
        assert payload["solver"] == "power-dp"

    def test_solve_infeasible_exit_code(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 0), (0, 0)], num_processors=1)
        path = self.make_instance_file(tmp_path, instance)
        code = main(["solve", "--input", path, "--objective", "gaps"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_solve_explicit_solver(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 3), (1, 4)], num_processors=1)
        path = self.make_instance_file(tmp_path, instance)
        code = main(
            ["solve", "--input", path, "--objective", "gaps", "--solver", "brute-force-gaps"]
        )
        assert code == 0
        assert "solver: brute-force-gaps" in capsys.readouterr().out

    def test_solve_rejects_flags_conflicting_with_problem_file(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1)
        problem = Problem(objective="power", instance=instance, alpha=2.0)
        path = self.make_instance_file(tmp_path, problem)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--input", path, "--alpha", "99"])
        assert excinfo.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_solve_unknown_solver_is_clean_usage_error(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1)
        path = self.make_instance_file(tmp_path, instance)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--input", path, "--objective", "gaps", "--solver", "gapdp"])
        assert excinfo.value.code == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_solve_missing_alpha_is_clean_usage_error(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1)
        path = self.make_instance_file(tmp_path, instance)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--input", path, "--objective", "power"])
        assert excinfo.value.code == 2
        assert "alpha" in capsys.readouterr().err

    def test_solve_requires_objective_for_bare_instance(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 1)], num_processors=1)
        path = self.make_instance_file(tmp_path, instance)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--input", path])
        assert excinfo.value.code == 2

    def test_list_solvers(self, capsys):
        code = main(["list-solvers"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("gap-dp", "power-dp", "power-approx", "throughput-greedy"):
            assert name in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestVerifyCommand:
    def make_file(self, tmp_path, obj, name="payload.json"):
        path = tmp_path / name
        path.write_text(to_json(obj))
        return str(path)

    def test_verify_problem_file(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 1), (0, 1), (5, 6)], num_processors=2
        )
        path = self.make_file(tmp_path, Problem(objective="gaps", instance=instance))
        code = main(["verify", "--input", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistency matrix: OK" in out
        assert "gap-dp" in out and "certified" in out

    def test_verify_bare_instance_with_flags(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs([(0, 2), (1, 3)], num_processors=1)
        path = self.make_file(tmp_path, instance)
        code = main(["verify", "--input", path, "--objective", "power", "--alpha", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "power-dp" in out

    def test_verify_infeasible_instance_is_consistent(self, tmp_path, capsys):
        instance = MultiprocessorInstance.from_pairs(
            [(0, 0), (0, 0), (0, 0)], num_processors=2
        )
        path = self.make_file(tmp_path, instance)
        code = main(["verify", "--input", path, "--objective", "gaps"])
        out = capsys.readouterr().out
        assert code == 0
        assert "infeasible" in out

    def test_verify_bad_file_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"type\": \"nope\"}")
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--input", str(path)])
        assert excinfo.value.code == 2


class TestFuzzCommand:
    def test_fuzz_green_run(self, capsys):
        code = main(["fuzz", "--seed", "0", "--n", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "30 problems" in out

    def test_fuzz_objective_filter(self, capsys):
        code = main(["fuzz", "--seed", "1", "--n", "9", "--objective", "gaps"])
        out = capsys.readouterr().out
        assert code == 0
        assert "objectives=gaps:" in out

    def test_fuzz_replay_round_trip(self, tmp_path, capsys):
        from repro.api import OneIntervalInstance, to_dict
        from repro.verify import FuzzFailure, save_corpus

        instance = OneIntervalInstance.from_pairs([(0, 2), (1, 3)])
        failure = FuzzFailure(
            index=0,
            kind="differential",
            objective="gaps",
            generator="uniform",
            issues=["stale issue"],
            problem=to_dict(Problem(objective="gaps", instance=instance)),
        )
        corpus = tmp_path / "corpus.json"
        save_corpus([failure], str(corpus))
        code = main(["fuzz", "--replay", str(corpus)])
        out = capsys.readouterr().out
        assert code == 0  # the solvers agree, so the replayed case is green
        assert "1 problems" in out

    @pytest.mark.parametrize(
        "argv",
        [["--n", "0"], ["--n", "-1"], ["--portfolio", "--n", "0"]],
        ids=" ".join,
    )
    def test_fuzz_rejects_n_below_one(self, argv, capsys):
        # A run that checks nothing must not report success.
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", *argv])
        assert excinfo.value.code == 2
        assert "--n must be >= 1" in capsys.readouterr().err

    def test_fuzz_replay_missing_corpus_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--replay", str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2

    def test_fuzz_profile_prints_engine_stats(self, capsys):
        code = main(["fuzz", "--seed", "2", "--n", "12", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine profile:" in out
        assert "states_computed" in out
        assert "memo_hits" in out


class TestBudgetedSolve:
    def make_instance_file(self, tmp_path, obj):
        path = tmp_path / "input.json"
        path.write_text(to_json(obj))
        return str(path)

    def test_solve_budget_prints_certified_gap(self, tmp_path, capsys):
        from repro.api import OneIntervalInstance

        instance = OneIntervalInstance.from_pairs([(0, 3), (2, 6), (9, 14)])
        path = self.make_instance_file(tmp_path, instance)
        code = main(
            ["solve", "--input", path, "--objective", "gaps", "--budget", "2.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solver: portfolio" in out
        assert "certified gap:" in out

    def test_solve_budget_json_carries_gap(self, tmp_path, capsys):
        from repro.api import OneIntervalInstance

        instance = OneIntervalInstance.from_pairs([(0, 3), (2, 6)])
        path = self.make_instance_file(tmp_path, instance)
        code = main(
            ["solve", "--input", path, "--objective", "gaps", "--budget", "2.0",
             "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["solver"] == "portfolio"
        gap = payload["extra"]["optimality_gap"]
        assert gap["lower"] <= gap["upper"]

    def test_solve_budget_must_be_positive(self, tmp_path):
        from repro.api import OneIntervalInstance

        instance = OneIntervalInstance.from_pairs([(0, 3)])
        path = self.make_instance_file(tmp_path, instance)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--input", path, "--objective", "gaps",
                  "--budget", "0"])
        assert excinfo.value.code == 2

    def test_solve_budget_rejects_explicit_solver(self, tmp_path):
        from repro.api import OneIntervalInstance

        instance = OneIntervalInstance.from_pairs([(0, 3)])
        path = self.make_instance_file(tmp_path, instance)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--input", path, "--objective", "gaps",
                  "--budget", "1.0", "--solver", "gap-dp"])
        assert excinfo.value.code == 2


class TestPortfolioFuzz:
    def test_portfolio_fuzz_green_run(self, capsys):
        code = main(["fuzz", "--portfolio", "--seed", "0", "--n", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out and "12" in out

    def test_portfolio_fuzz_rejects_conflicting_flags(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--portfolio", "--objective", "gaps"])
        assert excinfo.value.code == 2

    def test_portfolio_fuzz_module_invariants(self):
        from repro.verify import portfolio_fuzz

        report = portfolio_fuzz(seed=3, n=20)
        assert report.ok, report.summary()
        assert report.cases == 20
        assert report.feasible_cases + report.infeasible_cases == 20
        # Exact DP always joins the race at fuzz sizes (n <= 14), so every
        # feasible case should be certified optimal, not just bounded.
        assert report.optimal_matches == report.feasible_cases


class TestRuntimeFlags:
    """Top-level --backend / --cache-dir flags and the cache sub-command."""

    @pytest.fixture(autouse=True)
    def reset_runtime(self):
        from repro.runtime import configure_disk_cache

        yield
        configure_disk_cache(None)

    def test_backend_flag_reaches_batch_work_without_a_default(
        self, monkeypatch, capsys
    ):
        # --backend is passed to the batch work the sub-command starts;
        # it leaves no process-wide default behind.
        from repro.runtime import (
            resolve_backend,
            shutdown_worker_pool,
            worker_pool_stats,
        )

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        shutdown_worker_pool()
        code = main(["--backend", "process", "fuzz", "--seed", "0", "--n", "6"])
        assert code == 0, capsys.readouterr().out
        assert worker_pool_stats()["spawned"] > 0
        assert resolve_backend(None) == ("serial", 1)

    def test_unknown_backend_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "quantum", "list-solvers"])
        assert excinfo.value.code == 2

    def test_cache_requires_a_directory(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "stats"])
        assert excinfo.value.code == 2

    def test_cache_stats_and_clear_round_trip(self, tmp_path, monkeypatch, capsys):
        from repro.api import clear_solve_cache

        # Start the memory tier cold: a memory hit never reaches the disk
        # tier, and earlier tests may have solved this same tiny instance.
        clear_solve_cache()
        cache_dir = str(tmp_path / "cache")
        feed_stdin(monkeypatch, one_cpu((0, 0), (2, 2)))
        code = main(
            ["--cache-dir", cache_dir, "solve", "-i", "-", "--objective", "gaps"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["--cache-dir", cache_dir, "cache", "stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entries:       1" in out
        code = main(["--cache-dir", cache_dir, "cache", "clear"])
        out = capsys.readouterr().out
        assert code == 0
        assert "removed 1 entries" in out
        code = main(["--cache-dir", cache_dir, "cache", "stats"])
        out = capsys.readouterr().out
        assert "entries:       0" in out

    def test_cache_dir_solves_hit_across_invocations(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.api import clear_solve_cache
        from repro.api.solvers import _SOLVE_CACHE

        clear_solve_cache()
        cache_dir = str(tmp_path / "cache")
        argv = ["--cache-dir", cache_dir, "solve", "-i", "-", "--objective", "gaps"]
        feed_stdin(monkeypatch, one_cpu((0, 0), (2, 2), (3, 3)))
        code = main(argv)
        first = capsys.readouterr().out
        assert code == 0
        _SOLVE_CACHE.clear()  # a new CLI process would start cold in memory
        feed_stdin(monkeypatch, one_cpu((0, 0), (2, 2), (3, 3)))
        code = main(argv)
        second = capsys.readouterr().out
        assert code == 0
        assert first == second  # the disk tier replayed the warm answer
