"""Dependency hygiene: the package must be stdlib + repro only.

The package is advertised as installable with nothing but a Python
interpreter and this repository — no numeric stack, no web framework, no
queue broker, no ORM.  These tests walk the AST of every module under
``src/repro`` and fail if any import reaches outside the standard library
or the ``repro`` package itself, so an accidental third-party dependency
can never sneak in.  The service layer, advertised as deployable on its
own, keeps its own parametrized check; a subprocess check confirms that a
real exact solve loads no numpy either.  CI runs this file as part of the
service-smoke job.
"""

import ast
import os
import subprocess
import sys

import pytest

import repro
import repro.service

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SERVICE_DIR = os.path.dirname(os.path.abspath(repro.service.__file__))
MODULES = sorted(
    name for name in os.listdir(SERVICE_DIR) if name.endswith(".py")
)
#: Every module outside ``repro.service`` (whose modules MODULES covers),
#: as a path relative to the package root.
PACKAGE_MODULES = sorted(
    os.path.relpath(os.path.join(root, name), PACKAGE_DIR)
    for root, _dirs, files in os.walk(PACKAGE_DIR)
    if os.path.abspath(root) != SERVICE_DIR
    for name in files
    if name.endswith(".py")
)

needs_stdlib_names = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="sys.stdlib_module_names needs Python 3.10+",
)


def _imported_roots(path):
    """Yield (root module, level, line) for every import in the file."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], 0, node.lineno
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            yield root, node.level, node.lineno


def _offenders(path, label):
    """``label:line: root`` for every import outside the stdlib and repro."""
    offenders = []
    for root, level, line in _imported_roots(path):
        if level > 0:
            continue  # relative import — inside repro by construction
        if root == "repro":
            continue
        if root in sys.stdlib_module_names:
            continue
        offenders.append(f"{label}:{line}: {root}")
    return offenders


def test_service_modules_exist():
    assert "queue.py" in MODULES
    assert "daemon.py" in MODULES
    assert "server.py" in MODULES
    assert "admission.py" in MODULES
    assert "client.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
@needs_stdlib_names
def test_service_imports_only_stdlib_and_repro(module):
    offenders = _offenders(os.path.join(SERVICE_DIR, module), module)
    assert not offenders, (
        "service layer imports outside stdlib/repro: " + ", ".join(offenders)
    )


@pytest.mark.parametrize("module", PACKAGE_MODULES)
@needs_stdlib_names
def test_package_imports_only_stdlib_and_repro(module):
    offenders = _offenders(os.path.join(PACKAGE_DIR, module), module)
    assert not offenders, (
        "package imports outside stdlib/repro: " + ", ".join(offenders)
    )


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE_DIR)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_service_import_loads_no_asyncio_or_executor():
    # The scheduler is one plain thread: neither module is needed, and
    # importing asyncio alone took ~20 ms.
    proc = _run_fresh(
        "import sys\n"
        "import repro.service\n"
        "loaded = {'asyncio', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_exact_power_solve_never_imports_numpy():
    # A fresh interpreter: the test process itself may have numpy loaded
    # by a test dependency.
    code = "\n".join(
        [
            "import sys",
            "from repro.api import Problem, solve",
            "from repro.generators import random_multiprocessor_instance",
            "instance = random_multiprocessor_instance(",
            "    num_jobs=12, num_processors=3, horizon=12, seed=1",
            ")",
            "result = solve(Problem(objective='power', instance=instance, alpha=2.0))",
            "assert result.extra['engine']['objective'] == 'power', result.extra",
            "assert 'numpy' not in sys.modules, 'numpy was imported'",
        ]
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
