"""Smoke tests: every example script runs to completion, prints output,
and calls nothing deprecated."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_has_at_least_three_scripts():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_cleanly(script):
    # ``always`` prints every DeprecationWarning, not only those raised
    # from ``__main__``, so a deprecated call anywhere shows on stderr.
    completed = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script.name} produced no output"
    assert "DeprecationWarning" not in completed.stderr, completed.stderr
