"""Static checks over the package source."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgames"
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


#: Public names that only tests call, kept in the package because they carry
#: the paper's game-theoretic claims.
CLAIM_HELPERS = {
    "zerosum.interchange_check": "equilibrium interchange (acceptance criterion 8)",
    "zerosum.symmetrize": "universality from symmetry: a covariant game has a flat reply",
    "zerosum.circulant_game": "the covariant games `symmetrize` is checked on",
    "zerosum.cyclic_action": "the column action those covariant games carry",
    "harness.perturb_best_response_check": "no perturbation beats an equilibrium strategy",
    "harness.cloner_perturbations": "the cloner perturbations of that check",
    "harness.povm_perturbations": "the POVM perturbations of that check",
}


def _names_read(node: ast.AST) -> set[str]:
    """Names and attribute names that the code under `node` reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unread_entry_points(modules: dict[str, ast.Module], hooked_text: str) -> list[str]:
    """Public top-level functions and classes that no other code reads.

    A definition in `modules` (module name -> tree, without the package
    `__init__`) passes if another top-level statement of any module reads its
    name, or if the name appears in `hooked_text`.  The rest are returned as
    "module.name".
    """
    defined, reads = [], []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((module, node.name, node))
            reads.append((node, _names_read(node)))
    return [f"{module}.{name}" for module, name, own in defined
            if not any(name in names for node, names in reads if node is not own)
            and re.search(rf"\b{name}\b", hooked_text) is None]


def test_no_test_only_entry_points():
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    hooked = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(unread_entry_points(modules, hooked)) == sorted(CLAIM_HELPERS)


def test_scan_finds_a_test_only_function():
    modules = {
        "a": ast.parse("def used():\n    pass\n\n\ndef only_tests(n):\n    return only_tests(n)\n"
                       "\n\nclass Hooked:\n    pass\n\n\ndef _private():\n    pass\n"),
        "b": ast.parse("from .a import used\n\nVALUE = used()\n"),
    }
    assert unread_entry_points(modules, "tracer targets: Hooked") == ["a.only_tests"]
