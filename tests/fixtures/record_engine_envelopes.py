"""Re-record the engine statistics pinned in ``engine_envelopes.json``.

The fixture pins whole solve envelopes byte for byte.  A change to the
engine's counters or to its version string moves those fields and nothing
else; this script re-records exactly them.  From the repository root::

    PYTHONPATH=src python tests/fixtures/record_engine_envelopes.py [--check]

Every recorded problem is solved afresh with a cleared solve cache.  In
each envelope only the ``stats`` and ``version`` of an ``engine`` block may
change: ``extra.engine`` and every engine block nested inside it, such as
a decomposition's per-component ones.  If any other byte of any envelope
differs (a value, a schedule, a status), the script writes nothing, names
the cases and exits 1.  ``--check`` lists the cases that would change and
writes nothing.
"""

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "engine_envelopes.json"
)

#: The fields of an engine block that may be re-recorded.
ENGINE_FIELDS = ("stats", "version")


def _dumps(obj) -> str:
    # The envelope encoding of repro.api.to_json: sorted keys, compact.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _engine_blocks(node, found: List[Dict]) -> List[Dict]:
    """Every dict stored under an ``engine`` key, at any depth, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "engine" and isinstance(value, dict):
                found.append(value)
            _engine_blocks(value, found)
    elif isinstance(node, list):
        for value in node:
            _engine_blocks(value, found)
    return found


def rerecord(recorded: str, fresh: str) -> str:
    """``recorded`` with the engine ``stats`` and ``version`` fields of ``fresh``.

    Raises :class:`ValueError` when the two envelopes differ anywhere else,
    so the result is byte-identical to ``fresh`` or nothing is returned.
    """
    old = json.loads(recorded)
    if _dumps(old) != recorded:
        raise ValueError("the recorded envelope is not in to_json's encoding")
    old_blocks = _engine_blocks(old, [])
    new_blocks = _engine_blocks(json.loads(fresh), [])
    if len(old_blocks) != len(new_blocks):
        raise ValueError("the envelopes hold different numbers of engine blocks")
    for old_block, new_block in zip(old_blocks, new_blocks):
        for field in ENGINE_FIELDS:
            if field in new_block:
                old_block[field] = new_block[field]
    result = _dumps(old)
    if result != fresh:
        raise ValueError("the envelopes differ outside engine stats and version")
    return result


def _write(cases: List[Dict]) -> None:
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        handle.write('{"cases": [\n' + lines + "\n]}\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="list the cases that would change; write nothing",
    )
    args = parser.parse_args(argv)
    from repro.api import from_dict, solve, to_json
    from repro.api.solvers import clear_solve_cache

    with open(FIXTURE, "r", encoding="utf-8") as handle:
        cases = json.load(handle)["cases"]
    changed, refused = [], []
    for index, case in enumerate(cases):
        clear_solve_cache()
        fresh = to_json(solve(from_dict(case["problem"])))
        try:
            envelope = rerecord(case["envelope"], fresh)
        except ValueError as exc:
            refused.append(f"case {index}: {exc}")
            continue
        if envelope != case["envelope"]:
            changed.append(index)
            case["envelope"] = envelope
    if refused:
        print("refusing to write; these cases changed beyond engine stats/version:")
        print("\n".join(refused))
        return 1
    print(
        f"{len(changed)} of {len(cases)} cases change only in engine "
        f"stats/version: {changed}"
    )
    if changed and not args.check:
        _write(cases)
        print(f"rewrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
