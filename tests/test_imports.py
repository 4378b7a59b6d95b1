"""What ``import theta_refine`` loads, and how its modules import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import theta_refine

PACKAGE = Path(theta_refine.__file__).parent
# Standard-library modules no refinement or verification uses; the CLI
# loads json and fractions itself.
NOT_AT_IMPORT = {"dataclasses", "inspect", "json", "fractions", "decimal"}


def test_import_loads_no_module_a_run_does_not_use():
    code = (
        "import sys; before = set(sys.modules); import theta_refine; "
        "print(theta_refine.__file__); print(*sorted(set(sys.modules) - before))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert Path(out[0]).parent == PACKAGE
    loaded = set(out[1].split())
    assert "theta_refine.relations" in loaded
    assert not loaded & NOT_AT_IMPORT, sorted(loaded & NOT_AT_IMPORT)


def test_modules_import_at_top_level_only():
    # an import inside a function, or a module __getattr__, would hide a
    # module from the check above until its first use
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}: import inside {node.name}"
        names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert "__getattr__" not in names, path.name


def test_cli_import_loads_no_pathlib():
    # --out is written with os alone; -S keeps site's own imports out of
    # the count
    code = "import sys, theta_refine.cli; print('pathlib' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"
