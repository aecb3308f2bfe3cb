"""The benchmark harness's start-up imports keep resolving.

``perfbench/sut_child.py`` imports ``perfbench/layers.py`` before it
answers its first request, and ``layers.engine_probe`` reaches the engine
through module paths of its own.  A package change that breaks one of
them fails every ``exact`` and ``portfolio`` benchmark run at start-up
while the rest of this suite stays green, so this test imports both the
way the harness does, in a fresh interpreter with ``perfbench/`` and
``src/`` first on the path, and runs the engine probe.  It also runs
``layers.kill_probe`` once, which still calls ``PoolSession.flush()``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
import sut_child
from repro.api import MultiprocessorInstance, OneIntervalInstance, Problem

pairs = [(0, 3), (1, 5), (2, 4), (9, 12), (10, 14)]
for instance in (
    OneIntervalInstance.from_pairs(pairs),
    MultiprocessorInstance.from_pairs(pairs, num_processors=1),
    MultiprocessorInstance.from_pairs(pairs, num_processors=2),
):
    for objective, alpha in (("gaps", None), ("power", 2.0)):
        problem = Problem(objective=objective, instance=instance, alpha=alpha)
        probe = layers.engine_probe(problem)
        assert probe["states"] > 0, (problem, probe)

from repro.runtime import shutdown_worker_pool, worker_pool_stats

# One cluster of 120 overlapping windows: about half a second of DP, so
# the probe's kill lands mid-solve.
busy = Problem(
    objective="gaps",
    instance=OneIntervalInstance.from_pairs([(7 * i, 7 * i + 30) for i in range(120)]),
)
assert layers.kill_probe(busy) >= 0.0
assert worker_pool_stats()["killed"] == 1
shutdown_worker_pool()
print("probed", sut_child.__name__)
"""


def test_sut_child_imports_and_engine_probe_counts_states():
    script = PROBE.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "probed sut_child"
