"""The import contract: no process that searches, sweeps or serves loads scipy.

scipy backs only three estimators and Table I's t-test, and each imports
it inside the function that calls it: at module level its import would
dominate the start-up time and memory of every process. These tests pin
that. Statically, no module of the package imports scipy at module level.
Dynamically, fresh interpreters import every entry point, and run a
search, an export and a pooled sweep with scipy absent; and the
scipy-backed estimators still import it on first use.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _top_level(body):
    """Module-level statements, descending into module-level ``if``/``try``."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body)
            yield from _top_level(node.orelse)
        elif isinstance(node, (ast.Try, ast.TryStar)):
            yield from _top_level(node.body)
            for handler in node.handlers:
                yield from _top_level(handler.body)
            yield from _top_level(node.orelse)
            yield from _top_level(node.finalbody)


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "scipy"
    return False


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SCIPY_LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
    "and sys.modules[m] is not None)"
)


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
            for node in _top_level(tree.body)
            if _imports_scipy(node)
        ]
    assert offenders == []


def test_entry_points_do_not_load_scipy():
    out = _run(
        "import sys, json\n"
        "import repro.api, repro.serve, repro.jobs, repro.obs, repro.__main__\n"
        f"print(json.dumps({_SCIPY_LOADED}))\n"
    )
    assert json.loads(out) == []


def test_search_export_and_pooled_sweep_run_without_scipy():
    out = _run(
        "import sys, json\n"
        "sys.modules['scipy'] = None  # any scipy import now raises\n"
        "import numpy as np\n"
        "from repro import api\n"
        "rng = np.random.default_rng(3)\n"
        "X = rng.normal(size=(110, 4))\n"
        "y = (X[:, 0] * X[:, 1] > 0).astype(int)\n"
        "tiny = dict(episodes=1, steps_per_episode=2, cold_start_episodes=1,\n"
        "            component_epochs=1, trigger_warmup=2, cv_splits=3,\n"
        "            rf_estimators=3, max_clusters=3, mi_max_rows=64)\n"
        "result = api.search(X, y, 'classification', seed=0, **tiny)\n"
        "predicted = result.to_artifact(X, y).predict(X[:5])\n"
        "sweep = api.sweep(X, y, 'classification', seeds=[0, 1], n_jobs=2, **tiny)\n"
        "print(json.dumps({'predicted': len(predicted),\n"
        "                  'seeds': sorted(sweep.results),\n"
        f"                  'scipy': {_SCIPY_LOADED}}}))\n"
    )
    assert json.loads(out) == {"predicted": 5, "seeds": [0, 1], "scipy": []}


def test_scipy_backed_estimators_import_it_on_first_use():
    out = _run(
        "import sys, json\n"
        "import numpy as np\n"
        "from repro.ml import KNeighborsClassifier, LinearSVMClassifier, LogisticRegression\n"
        f"before = {_SCIPY_LOADED}\n"
        "rng = np.random.default_rng(0)\n"
        "X = rng.normal(size=(120, 3))\n"
        "y = (X[:, 0] + X[:, 1] > 0).astype(int)\n"
        "accuracy = {\n"
        "    type(model).__name__: float(np.mean(model.fit(X, y).predict(X) == y))\n"
        "    for model in (LogisticRegression(), LinearSVMClassifier(),\n"
        "                  KNeighborsClassifier(n_neighbors=3))\n"
        "}\n"
        "print(json.dumps({'before': before, 'accuracy': accuracy,\n"
        "                  'optimize': 'scipy.optimize' in sys.modules,\n"
        "                  'spatial': 'scipy.spatial' in sys.modules}))\n"
    )
    report = json.loads(out)
    assert report["before"] == []
    assert report["optimize"] and report["spatial"]
    assert set(report["accuracy"]) == {
        "LogisticRegression", "LinearSVMClassifier", "KNeighborsClassifier"
    }
    assert all(acc > 0.9 for acc in report["accuracy"].values()), report["accuracy"]
