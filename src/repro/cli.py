"""Command-line interface: ``python -m repro`` or the ``repro-sched`` script.

Sub-commands
------------
``solve``
    The one entry point for every algorithm of the paper: read an instance
    (or a full problem) from a JSON file or stdin (``-i -``), pick a solver
    from the registry, print the result as text or JSON.  With
    ``--objective gaps|power|throughput`` the best capable solver runs
    (Theorems 1, 2, 3 or 11, by instance type); ``--solver NAME`` picks
    one by name, e.g. ``power-approx``.
``list-solvers``
    Show every registered solver with its capabilities.
``experiment``
    Regenerate one experiment table (E1–E12, or all of them) from
    :mod:`repro.analysis.experiments`.
``verify``
    Run the differential verification harness on one JSON instance/problem:
    every capable registered solver, independent certificates, consistency
    matrix, metamorphic relations.
``fuzz``
    Seedable differential fuzzing over generated instances
    (``--seed --n --objective``), with a replayable JSON failure corpus
    (``--corpus`` to save, ``--replay`` to re-run saved failures) and
    ``--profile`` to print the interval-DP engine's aggregated pruning and
    memoization statistics.
``cache``
    Inspect (``cache stats``) or empty (``cache clear``) the on-disk tier
    of the canonical solve cache.
``serve``
    Run the scheduling service: an HTTP/JSON API over a persistent SQLite
    job queue, drained by a scheduler thread through the configured
    execution backend (see :mod:`repro.service` and ``docs/service.md``).
    SIGTERM/SIGINT drain gracefully; interrupted jobs are re-enqueued on
    the next start, and a job interrupted on all of its three attempts
    goes to ``error`` as poison.
``submit`` / ``status`` / ``result`` / ``cancel``
    Client verbs against a running service (``--url``): submit a JSON
    instance/problem (``--wait`` blocks for the result envelope), poll a
    job's status, fetch its result, or cancel it.
``stats``
    Print the operational stats payload as JSON — cache tiers, aggregated
    engine counters, task totals; with ``--url`` the live payload of a
    running service (identical shape to ``GET /v1/stats``).

Two top-level flags configure the :mod:`repro.runtime` execution layer
for whichever sub-command follows: ``--backend serial|process``
selects the execution backend of the batch work the sub-command starts
(``fuzz``, ``experiment all`` and ``serve``; without it,
``REPRO_BACKEND`` decides; ``--budget`` races always run on the warm
worker pool), and ``--cache-dir PATH`` enables the persistent
solve-cache tier (equivalently ``REPRO_CACHE_DIR``).

All solving goes through :mod:`repro.api`; this module never imports a
solver implementation directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .api import (
    Problem,
    ReproError,
    SolveResult,
    from_json,
    list_solvers,
    solve,
    to_json,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Gap and power scheduling (SPAA 2007 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    from .runtime import BACKENDS

    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        help="execution backend for batch work in the sub-command "
        "(default: REPRO_BACKEND, else serial); budget races always run "
        "on the warm worker pool",
    )
    parser.add_argument(
        "--cache-dir",
        help="enable the persistent on-disk solve-cache tier rooted here "
        "(default: REPRO_CACHE_DIR, else disabled)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    unified = sub.add_parser(
        "solve", help="solve a JSON instance/problem through the repro.api façade"
    )
    unified.add_argument(
        "--input",
        "-i",
        required=True,
        help="path to a JSON instance or problem ('-' reads stdin)",
    )
    unified.add_argument(
        "--objective",
        choices=["gaps", "power", "throughput"],
        help="objective (required unless the input file is a full problem)",
    )
    unified.add_argument(
        "--solver",
        default="auto",
        help="registry solver name, or 'auto' for capability-based dispatch",
    )
    unified.add_argument("--alpha", type=float, help="wake-up cost (power objective)")
    unified.add_argument(
        "--max-gaps", type=int, help="gap budget (throughput objective)"
    )
    unified.add_argument(
        "--budget",
        type=float,
        metavar="SECONDS",
        help="race the solver portfolio under this wall-clock budget and "
        "return the best feasible answer with a certified optimality gap "
        "(requires --solver auto)",
    )
    unified.add_argument(
        "--json", action="store_true", help="print the SolveResult as JSON"
    )

    sub.add_parser("list-solvers", help="list the registered façade solvers")

    experiment = sub.add_parser("experiment", help="regenerate experiment tables")
    experiment.add_argument(
        "which", nargs="?", default="all", help="experiment id (E1..E12) or 'all'"
    )
    experiment.add_argument("--scale", choices=["smoke", "paper"], default="smoke")

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk solve-cache tier"
    )
    cache.add_argument(
        "action", choices=["stats", "clear"], help="what to do with the cache"
    )

    verify = sub.add_parser(
        "verify", help="differentially verify a JSON instance/problem"
    )
    verify.add_argument(
        "--input",
        "-i",
        required=True,
        help="path to a JSON instance or problem ('-' reads stdin)",
    )
    verify.add_argument(
        "--objective",
        choices=["gaps", "power", "throughput"],
        help="objective (required unless the input file is a full problem)",
    )
    verify.add_argument("--alpha", type=float, help="wake-up cost (power objective)")
    verify.add_argument(
        "--max-gaps", type=int, help="gap budget (throughput objective)"
    )
    verify.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic relation checks",
    )

    fuzz_cmd = sub.add_parser(
        "fuzz", help="differential fuzzing across all registered solvers"
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, help="master RNG seed (default 0; not with --replay)"
    )
    fuzz_cmd.add_argument(
        "--n", type=int, help="number of fuzz cases (default 100; not with --replay)"
    )
    fuzz_cmd.add_argument(
        "--objective",
        action="append",
        choices=["gaps", "power", "throughput"],
        help="objective(s) to fuzz (repeatable; default: all three)",
    )
    fuzz_cmd.add_argument(
        "--corpus", help="write failing cases to this JSON corpus file"
    )
    fuzz_cmd.add_argument(
        "--replay", help="replay a saved JSON failure corpus instead of generating"
    )
    fuzz_cmd.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic relation checks",
    )
    fuzz_cmd.add_argument(
        "--profile",
        action="store_true",
        help="print aggregated interval-DP engine pruning/memo statistics",
    )
    fuzz_cmd.add_argument(
        "--portfolio",
        action="store_true",
        help="differentially fuzz the budget-raced portfolio against the "
        "exact DPs on small seeded instances (honors --seed/--n only)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the scheduling service (HTTP API + persistent job queue)",
    )
    serve.add_argument(
        "--db",
        default="service_jobs.db",
        help="SQLite job-store path (default service_jobs.db); interrupted "
        "jobs found here are re-enqueued on startup",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8737, help="bind port (0 for ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, help="worker count for the execution backend"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="sustained submissions/s per client (0 disables; default 50)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=100,
        help="rate-limit burst capacity per client (default 100)",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=1024,
        help="max outstanding jobs per client (0 disables; default 1024)",
    )

    def _client_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--url", required=True, help="service base URL, e.g. http://127.0.0.1:8737"
        )
        return p

    submit = _client_parser("submit", "submit a job to a running service")
    submit.add_argument(
        "--input",
        "-i",
        required=True,
        help="path to a JSON instance or problem ('-' reads stdin)",
    )
    submit.add_argument(
        "--objective",
        choices=["gaps", "power", "throughput"],
        help="objective (required unless the input file is a full problem)",
    )
    submit.add_argument("--alpha", type=float, help="wake-up cost (power objective)")
    submit.add_argument(
        "--max-gaps", type=int, help="gap budget (throughput objective)"
    )
    submit.add_argument(
        "--solver", help="registry solver name (default: the service's default)"
    )
    submit.add_argument(
        "--client", default="cli", help="client id for admission control"
    )
    submit.add_argument(
        "--priority", type=int, default=0, help="higher runs first (default 0)"
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print the result envelope",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="--wait timeout in seconds (default 60)",
    )

    status = _client_parser("status", "show a job's status")
    status.add_argument("job_id")

    result_cmd = _client_parser("result", "fetch (await) a job's result envelope")
    result_cmd.add_argument("job_id")
    result_cmd.add_argument(
        "--no-wait",
        action="store_true",
        help="fail instead of waiting when the job is still pending",
    )
    result_cmd.add_argument(
        "--timeout", type=float, default=60.0, help="wait timeout in seconds (default 60)"
    )

    cancel = _client_parser("cancel", "cancel a queued or running job")
    cancel.add_argument("job_id")

    stats = sub.add_parser(
        "stats",
        help="print operational stats (cache tiers, engine counters) as JSON",
    )
    stats.add_argument(
        "--url",
        help="fetch a running service's /v1/stats instead of local counters",
    )

    return parser


def _load_problem(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Problem:
    """Build a Problem from the ``solve`` subcommand's --input file and flags."""
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            parser.error(f"cannot read --input file: {exc}")
    try:
        loaded = from_json(text)
    except (KeyError, TypeError) as exc:
        # A tagged object with a missing or mistyped field, e.g. a job
        # without a deadline or given as a bare [release, deadline] pair.
        parser.error(f"malformed --input JSON: {exc!r}")
    if isinstance(loaded, Problem):
        conflicting = [
            flag
            for flag, value in [
                ("--objective", args.objective),
                ("--alpha", args.alpha),
                ("--max-gaps", args.max_gaps),
            ]
            if value is not None
        ]
        if conflicting:
            parser.error(
                f"--input holds a full problem; {', '.join(conflicting)} "
                "would be ignored — drop the flag(s) or pass a bare instance"
            )
        return loaded
    if args.objective is None:
        parser.error(
            "--objective is required when --input holds a bare instance "
            "(or store a full problem in the file)"
        )
    return Problem(
        objective=args.objective,
        instance=loaded,
        alpha=args.alpha,
        max_gaps=args.max_gaps,
    )


def _print_result(result: SolveResult) -> None:
    """Human-readable rendering of a SolveResult."""
    print(
        f"status: {result.status}  objective: {result.objective}  "
        f"solver: {result.solver}"
    )
    if not result.feasible:
        return
    value = result.value
    value_text = f"{value:g}" if isinstance(value, float) else str(value)
    print(f"value: {value_text}")
    if result.guarantee_factor is not None:
        print(f"guarantee factor: {result.guarantee_factor:g}")
    gap = (result.extra or {}).get("optimality_gap")
    if gap is not None:
        ratio = gap.get("ratio")
        ratio_text = "unbounded" if ratio is None else f"{ratio:g}"
        print(
            f"certified gap: lower {gap['lower']:g}  upper {gap['upper']:g}  "
            f"ratio {ratio_text}"
        )
    if result.schedule is None:
        return
    for row in result.schedule.as_table():
        if len(row) == 4:
            job_idx, name, proc, t = row
            print(f"  t={t:>4}  processor {proc}  job {name} (#{job_idx})")
        else:
            job_idx, name, t = row
            print(f"  t={t:>4}  job {name} (#{job_idx})")


def _client_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The service-client verbs: submit / status / result / cancel / stats.

    Service-side denials (429 quota, 410 cancelled, 404 unknown) exit 1
    with the structured payload on stderr; local usage mistakes stay
    argparse errors (exit 2).
    """
    from .service import ServiceClient, ServiceError

    if args.command == "stats":
        if args.url is None:
            from .service.stats import operational_stats

            payload = operational_stats()
        else:
            try:
                with ServiceClient(args.url) as client:
                    payload = client.stats()
            except ServiceError as exc:
                print(f"stats failed: {exc}", file=sys.stderr)
                return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    client = ServiceClient(args.url, client_id=getattr(args, "client", "cli"))
    try:
        if args.command == "submit":
            try:
                problem = _load_problem(args, parser)
            except (ReproError, ValueError) as exc:
                parser.error(str(exc))
            job_id = client.submit(
                problem, priority=args.priority, solver=args.solver
            )
            if not args.wait:
                print(job_id)
                return 0
            result = client.result(job_id, timeout=args.timeout)
            print(to_json(result, indent=2))
            return 0
        if args.command == "status":
            print(json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
            return 0
        if args.command == "result":
            result = client.result(
                args.job_id, wait=not args.no_wait, timeout=args.timeout
            )
            print(to_json(result, indent=2))
            return 0
        if args.command == "cancel":
            print(json.dumps(client.cancel(args.job_id), indent=2, sort_keys=True))
            return 0
    except ServiceError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        if exc.payload:
            print(json.dumps(exc.payload, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    finally:
        client.close()
    parser.error(f"unknown client command {args.command!r}")  # pragma: no cover
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # `repro-sched ... | head` closes stdout mid-print; exit with the
        # conventional SIGPIPE code instead of a traceback.  Re-pointing
        # stdout at devnull stops the interpreter's shutdown flush from
        # raising the same error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from .runtime import configure_disk_cache, get_disk_cache

    if args.cache_dir is not None:
        try:
            configure_disk_cache(args.cache_dir)
        except OSError as exc:
            parser.error(f"cannot use --cache-dir {args.cache_dir!r}: {exc}")

    if args.command == "cache":
        disk = get_disk_cache()
        if disk is None:
            parser.error(
                "no cache directory configured; pass --cache-dir PATH (before "
                "the sub-command) or set REPRO_CACHE_DIR"
            )
        if args.action == "clear":
            removed = disk.clear()
            print(f"removed {removed} entries from {disk.root}")
            return 0
        stats = disk.stats()
        print(f"path:          {stats['path']}")
        print(f"version:       {stats['version']}")
        print(f"entries:       {stats['entries']}")
        print(f"stale entries: {stats['stale_entries']}")
        print(f"bytes:         {stats['bytes']}")
        return 0

    if args.command == "serve":
        from .service import ServiceServer

        try:
            server = ServiceServer(
                args.db,
                host=args.host,
                port=args.port,
                backend=args.backend,
                workers=args.workers,
                rate=args.rate,
                burst=args.burst,
                max_queued=args.max_queued,
            )
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
        try:
            # The announce line is parsed by supervisors (and the tests), so
            # it must not sit in a block buffer when stdout is a pipe.
            server.run_forever(announce=lambda line: print(line, flush=True))
        except OSError as exc:
            parser.error(f"cannot serve on {args.host}:{args.port}: {exc}")
        return 0

    if args.command in ("submit", "status", "result", "cancel", "stats"):
        return _client_command(args, parser)

    if args.command == "solve":
        # Bad input files, malformed problems and unknown solver names must
        # surface as usage errors (exit 2), not tracebacks.
        if args.budget is not None and args.budget <= 0:
            parser.error("--budget must be positive")
        try:
            problem = _load_problem(args, parser)
            result = solve(problem, solver=args.solver, budget=args.budget)
        except (ReproError, ValueError) as exc:
            parser.error(str(exc))
        if args.json:
            print(to_json(result, indent=2))
        else:
            _print_result(result)
        return 0 if result.feasible else 1

    if args.command == "list-solvers":
        for spec in list_solvers():
            types = "/".join(t.__name__ for t in spec.instance_types)
            print(f"{spec.name:<24} {spec.objective:<11} {spec.kind:<12} {types}")
            if spec.description:
                print(f"{'':<24} {spec.description}")
        return 0

    if args.command == "verify":
        from .verify import metamorphic_issues, run_differential

        try:
            problem = _load_problem(args, parser)
        except (ReproError, ValueError) as exc:
            parser.error(str(exc))
        report = run_differential(problem)
        for run in report.runs:
            if run.error is not None:
                print(f"{run.name:<24} ERROR  {run.error}")
                continue
            cert = "certified" if run.certificate and run.certificate.ok else "FAILED"
            print(
                f"{run.name:<24} {run.result.status:<12} "
                f"value={run.result.value}  {cert}"
            )
        for name in report.skipped:
            print(f"{name:<24} skipped (instance too large to enumerate)")
        issues = list(report.issues)
        if not args.no_metamorphic:
            # Same checks as the fuzz path: base result reused from the
            # differential runs, processor relabeling included.
            issues.extend(metamorphic_issues(problem, report, meta_seed=0))
        if issues:
            print("ISSUES:")
            for issue in issues:
                print(f"  - {issue}")
            return 1
        print("consistency matrix: OK")
        return 0

    if args.command == "fuzz":
        from .verify import fuzz as run_fuzz
        from .verify import replay as run_replay

        if args.n is not None and args.n < 1:
            parser.error("--n must be >= 1")
        if args.portfolio:
            conflicting = [
                flag
                for flag, value in [
                    ("--objective", args.objective),
                    ("--corpus", args.corpus),
                    ("--replay", args.replay),
                ]
                if value is not None
            ]
            if args.profile or args.no_metamorphic:
                conflicting.append("--profile/--no-metamorphic")
            if conflicting:
                parser.error(
                    f"--portfolio honors --seed/--n only; drop "
                    f"{', '.join(conflicting)}"
                )
            from .verify import portfolio_fuzz

            report = portfolio_fuzz(
                seed=args.seed if args.seed is not None else 0,
                n=args.n if args.n is not None else 100,
            )
            print(report.summary())
            for failure in report.failures:
                print(
                    f"  case {failure.index} [{failure.objective}"
                    f"/alpha={failure.alpha}] pairs={failure.pairs}:"
                )
                for issue in failure.issues:
                    print(f"    - {issue}")
            return 0 if report.ok else 1

        if args.replay is not None:
            conflicting = [
                flag
                for flag, value in [
                    ("--seed", args.seed),
                    ("--n", args.n),
                    ("--objective", args.objective),
                ]
                if value is not None
            ]
            if conflicting:
                parser.error(
                    f"--replay re-runs the saved corpus; {', '.join(conflicting)} "
                    "would be ignored — drop the flag(s) or fuzz without --replay"
                )
            try:
                report = run_replay(args.replay, metamorphic=not args.no_metamorphic)
            except (OSError, ValueError, KeyError) as exc:
                parser.error(f"cannot replay corpus {args.replay!r}: {exc}")
            if args.corpus:
                # Persist the still-failing subset, letting users shrink a
                # corpus as bugs get fixed.
                from .verify import save_corpus

                save_corpus(report.failures, args.corpus)
        else:
            objectives = (
                tuple(dict.fromkeys(args.objective))
                if args.objective
                else ("gaps", "power", "throughput")
            )
            report = run_fuzz(
                seed=args.seed if args.seed is not None else 0,
                n=args.n if args.n is not None else 100,
                objectives=objectives,
                metamorphic=not args.no_metamorphic,
                corpus_path=args.corpus,
                backend=args.backend,
            )
        print(report.summary())
        if args.profile:
            for line in report.engine_profile():
                print(line)
        for failure in report.failures:
            print(f"  case {failure.index} [{failure.kind}/{failure.objective}"
                  f"/{failure.generator}]:")
            for issue in failure.issues:
                print(f"    - {issue}")
        if args.corpus:
            print(f"corpus written to {args.corpus}")
        return 0 if report.ok else 1

    if args.command == "experiment":
        from .analysis.experiments import (
            ALL_EXPERIMENTS,
            run_all_experiments,
            run_experiment,
        )
        from .analysis.reporting import format_table, render_tables

        if args.which.lower() == "all":
            tables = run_all_experiments(scale=args.scale, backend=args.backend)
            print(render_tables(tables))
            return 0
        if args.which.upper() not in ALL_EXPERIMENTS:
            ids = sorted(ALL_EXPERIMENTS, key=lambda key: int(key[1:]))
            parser.error(
                f"unknown experiment {args.which!r}; choose one of "
                f"{', '.join(ids)} or 'all'"
            )
        print(format_table(run_experiment(args.which, scale=args.scale)))
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
