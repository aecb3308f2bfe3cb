"""Regenerate ``fixtures/seed0.json``: the expected value of every request.

The fixture pins the answers of the default seed so that a run cannot
pass with a valid but non-optimal schedule.  Values come from serial
calls outside the paths under test where one exists: the exact DP for
``exact``, ``service`` and the portfolio's DP-class races, and the
heuristics run to exhaustion for the races a heuristic settles or the
budget ends.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness import DEFAULT_SEED, FIXTURE  # noqa: E402
from inputs import DP, exact_requests, heuristic_best, portfolio_requests, service_requests  # noqa: E402
from repro.api import solve  # noqa: E402

#: Requests pinned per stream: more than any run reaches.
SIZES = {"exact": 1500, "service": 2500, "portfolio": 400}


def _dp_values(stream, count):
    return [solve(r.problem).value for r in itertools.islice(stream, count)]


def main() -> int:
    fixture = {
        "exact": _dp_values(exact_requests(DEFAULT_SEED), SIZES["exact"]),
        "service": {
            str(client): _dp_values(service_requests(DEFAULT_SEED, client), SIZES["service"])
            for client in (0, 1)
        },
        "portfolio": [
            solve(r.problem).value if r.race == DP else heuristic_best(r.problem)
            for r in itertools.islice(portfolio_requests(DEFAULT_SEED), SIZES["portfolio"])
        ],
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
