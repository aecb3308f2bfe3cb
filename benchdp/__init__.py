"""The interval-DP engine's timing gate: ``python benchdp/run.py [--quick]``.

:mod:`benchdp.bench` times the engine behind the paper's exact algorithms
(Theorems 1 and 2) over the generator families, each repeat paired with a
frozen host-speed kernel; :mod:`benchdp.report` holds the
``BENCH_dp.json`` schema, the ``BENCH_history.jsonl`` history and the
regression gate; :mod:`benchdp.run` is the entry point CI calls.

This package times the engine only.  End-to-end costs of the layers above
it (the service, the warm worker pool, the solve cache) are measured with
fresh solves by the repository's ``perfbench/`` harness.
"""
