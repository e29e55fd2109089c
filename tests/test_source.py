"""Static checks over the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qgames"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import math\nfrom numpy import array as arr, zeros\nzeros(2)\n")
    assert unused_imports(tree) == ["math (line 1)", "arr (line 2)"]


def imported_packages(tree: ast.Module) -> set[str]:
    """Top-level package names that the module's import statements load."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert "scipy" not in imported_packages(ast.parse(path.read_text()))


def test_scan_finds_a_scipy_import():
    tree = ast.parse("import numpy as np\nfrom scipy.optimize import nnls\nfrom . import core\n")
    assert imported_packages(tree) == {"numpy", "scipy"}


def test_package_and_cli_import_without_scipy():
    code = (
        "import sys, qgames, qgames.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
