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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_lines_fit_100_columns(path):
    long = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == []


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

#: Public methods that only tests call, kept on their classes for now.
TEST_CONVENIENCES = {
    "core.PureState.basis": "basis-state fixtures in six test modules; a two-line constructor",
    "core.PureState.density": "the referee tests' DensityOperator inputs; goes with the dense "
                              "DensityOperator path when that leaves the package",
    "core.PureState.normalized": "normalises the Monte Carlo oracle's draws and refuses a zero or "
                                 "non-finite norm before dividing (test_core pins the refusal)",
}


def _names_read(node: ast.AST) -> tuple[set[str], set[str]]:
    """(names and attribute names, attribute names alone) that the code under `node` reads."""
    names, attributes = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attributes.add(sub.attr)
    return names | attributes, attributes


def unread_entry_points(modules: dict[str, ast.Module], hooked_text: str) -> list[str]:
    """Public top-level functions and classes, and their public methods, that no other code reads.

    A definition in `modules` (module name -> tree, without the package
    `__init__`) passes if code outside it reads its name, or if the name
    appears in `hooked_text`.  Code outside a top-level definition is every
    other top-level statement of any module and the statements in other
    classes' bodies; code outside a method (a property too) also takes in the
    other statements of its own class, and reads a method only as an
    attribute, so a local variable of the same name does not count.  The rest
    are returned as "module.name" or "module.Class.name".
    """
    defined, units = [], []
    for module, tree in modules.items():
        for node in tree.body:
            units.append(node)
            body = node.body if isinstance(node, ast.ClassDef) else []
            units += body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name, {node, *body}, False))
            for sub in body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    defined.append((f"{module}.{node.name}.{sub.name}", sub.name, {node, sub}, True))
    reads = [(unit, _names_read(unit)) for unit in units]
    # a method is read as an attribute only: index 1 of `_names_read`
    return [label for label, name, own, is_method in defined
            if not any(name in names[is_method] for unit, names in reads if unit not in own)
            and re.search(rf"\b{name}\b", hooked_text) is None]


def test_no_test_only_entry_points():
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    hooked = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(unread_entry_points(modules, hooked)) == sorted({**CLAIM_HELPERS,
                                                                    **TEST_CONVENIENCES})


def test_scan_finds_a_test_only_function():
    modules = {
        "a": ast.parse("def used():\n    pass\n\n\ndef only_tests(n):\n    return only_tests(n)\n"
                       "\n\nclass Hooked:\n    pass\n\n\ndef _private():\n    pass\n"),
        "b": ast.parse("from .a import used\n\nVALUE = used()\n"),
    }
    assert unread_entry_points(modules, "tracer targets: Hooked") == ["a.only_tests"]


def test_scan_finds_a_test_only_method():
    modules = {
        "a": ast.parse("class Box:\n"
                       "    def __init__(self):\n        self.size = self.width()\n\n"
                       "    def width(self):\n        return 1\n\n"
                       "    @property\n    def size_read(self):\n        return self.size\n\n"
                       "    @classmethod\n    def only_tests(cls):\n"
                       "        return cls.only_tests()\n\n"
                       "    def shadowed(self):\n        pass\n\n"
                       "    def hooked(self):\n        pass\n"),
        "b": ast.parse("from .a import Box\n\nshadowed = 2\nVALUE = Box().size_read + shadowed\n"),
    }
    assert unread_entry_points(modules, "tracer targets: Box.hooked") == [
        "a.Box.only_tests", "a.Box.shadowed"]


def unread_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """Private top-level functions, classes and constants that no other code reads.

    `modules` maps module names to trees, the package `__init__` included.  A
    top-level definition or assignment of a name that starts with one
    underscore (dunders aside) passes if any other top-level statement of any
    module reads the name, bare or as an attribute; an import alone is not a
    read, and neither is the definition's own body.  The rest are returned as
    "module.name".
    """
    defined, units = [], []
    for module, tree in modules.items():
        for node in tree.body:
            units.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(f"{module}.{name}", name, node) for name in names
                        if name.startswith("_") and not name.endswith("__")]
    reads = [(unit, _names_read(unit)[0]) for unit in units]
    return [label for label, name, own in defined
            if not any(name in names for unit, names in reads if unit is not own)]


def test_no_unread_private_names():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(modules) == []


def test_scan_finds_an_unread_private_name():
    modules = {
        "a": ast.parse("_LIMIT = 3\n_UNREAD: int = 4\n__all__ = ['run']\n\n\n"
                       "def _helper(n):\n    return _helper(n - 1) if n else _LIMIT\n\n\n"
                       "def _orphan(n):\n    return _orphan(n)\n\n\n"
                       "class _Box:\n    pass\n\n\n"
                       "def run():\n    return _helper(2)\n"),
        "b": ast.parse("from . import a\nfrom .a import _orphan\n\nBOX = a._Box()\n"),
    }
    assert unread_private_names(modules) == ["a._UNREAD", "a._orphan"]


def stale_seed_schemes(text: str) -> list[str]:
    """Mentions of a seed scheme other than v6 and v7, then of draw chunks.

    The package draws Monte Carlo rounds by seed scheme v6 and everything else
    by v7, which reads each consumer's items from one stream; v3 to v5 drew
    from a new substream every 256 items, a "draw chunk".  Mentions may
    wrap across lines and are returned with their whitespace collapsed.
    """
    schemes = [m for m in re.finditer(r"seed\s+scheme\s+v(\d+)", text, re.IGNORECASE)
               if m.group(1) not in ("6", "7")]
    chunks = list(re.finditer(r"draw[\s-]+chunk", text, re.IGNORECASE))
    return [" ".join(m.group(0).split()) for m in schemes + chunks]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stale_seed_schemes(path):
    assert stale_seed_schemes(path.read_text()) == []


def test_scan_finds_a_stale_seed_scheme():
    text = ('"""Seed scheme v7 and seed scheme v6 are live, seed\n'
            '    scheme v3 is not, nor is seed scheme v17; one draw\n'
            '    chunk, two draw-chunks and DRAW CHUNKS."""\n')
    assert stale_seed_schemes(text) == ["seed scheme v3", "seed scheme v17", "draw chunk",
                                        "draw-chunk", "DRAW CHUNK"]


def dead_references(sources: dict[str, str]) -> list[str]:
    """Backticked references in `sources` (module name -> source text) that name nothing.

    A reference `module.name` or `module.Class.attr`, to one of the modules
    and with or without a leading `qgames.`, must name a top-level
    definition, assignment or import of that module, and `.attr` a method,
    class attribute, annotated field or `self` attribute of that class.  A
    private `_name` must be a function, class, assignment target or `self`
    attribute somewhere in `sources`.  The rest are returned as
    "module: reference", the reference as written up to its first
    non-name character.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}

    def bound(nodes):
        """Names the statements bind: by def, class, assignment, import or self.<name> =."""
        names = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(sub.name)
                elif isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Store):
                    names.add(sub.id if isinstance(sub, ast.Name) else sub.attr)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    names.update((a.asname or a.name).split(".")[0] for a in sub.names)
        return names

    def top_level(body):
        """{name: class node or None} for the names a module or class body binds."""
        names = {}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] = node if isinstance(node, ast.ClassDef) else None
            else:
                names.update(dict.fromkeys(bound([node])))
        return names

    def attributes(cls):
        """What instances of `cls` carry: its body's names and its self.<name> targets."""
        return set(top_level(cls.body)) | {
            sub.attr for sub in ast.walk(cls) if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store) and getattr(sub.value, "id", None) == "self"}

    members = {module: top_level(tree.body) for module, tree in trees.items()}
    defined = bound(trees.values())
    modules = "|".join(map(re.escape, sources))
    reference = re.compile(rf"`(?:qgames\.)?({modules})\.(\w+)(?:\.(\w+))?")
    dead = []
    for module, text in sources.items():
        for match in reference.finditer(text):
            owner, name, attr = match.groups()
            node = members[owner].get(name, False)
            if node is False or attr and not (node and attr in attributes(node)):
                dead.append(f"{module}: {match.group(0)[1:]}")
        dead += [f"{module}: {name}" for name in re.findall(r"`(_[A-Za-z]\w*)", text)
                 if name not in defined]
    return dead


def test_docstring_references_resolve():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_references(sources) == []


def test_scan_finds_a_dead_docstring_reference():
    sources = {
        "a": ('"""Uses `b.run`, `qgames.b.Box.size`, `b.Box.width()`, `b.LIMIT` and\n'
              '`_helper(n)`; not `b.gone`, `b.Box.depth`, `b.run.x` or `_lost`."""\n'
              'from .b import run as _helper\n'),
        "b": ("LIMIT: int = 3\n\n\ndef run():\n    pass\n\n\n"
              "class Box:\n    def __init__(self):\n        self.size = 1\n\n"
              "    def width(self):\n        return self.size\n"),
    }
    assert dead_references(sources) == ["a: b.gone", "a: b.Box.depth", "a: b.run.x", "a: _lost"]


def array_valued_dataclasses(modules: dict[str, ast.Module]) -> list[str]:
    """Dataclasses whose generated `==` and hash would compare arrays field by field.

    A class decorated `@dataclass` (called or not) in `modules` (module name
    -> tree) is flagged when it neither passes `eq=False` nor defines
    `__eq__`, and one of its annotated fields names `ndarray` or another
    flagged class, wherever that class is defined.  Comparing such fields
    raises on `==`, and a frozen one raises on `hash`.  The flagged classes
    are returned as "module.Class".
    """
    def annotation_names(node):
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= annotation_names(ast.parse(sub.value, mode="eval"))
        return names

    def compares_fields(cls):
        for deco in cls.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            if (getattr(target, "id", None) or getattr(target, "attr", None)) != "dataclass":
                continue
            eq = [k.value for k in (call.keywords if call else []) if k.arg == "eq"]
            defines_eq = any(isinstance(s, ast.FunctionDef) and s.name == "__eq__"
                             for s in cls.body)
            return not defines_eq and not any(
                isinstance(v, ast.Constant) and v.value is False for v in eq)
        return False

    candidates = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and compares_fields(node):
                fields = set()
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign):
                        fields |= annotation_names(sub.annotation)
                candidates[node.name] = (f"{module}.{node.name}", fields)
    flagged, grew = {"ndarray"}, True
    while grew:
        new = {name for name, (_, fields) in candidates.items()
               if name not in flagged and fields & flagged}
        flagged |= new
        grew = bool(new)
    return [label for name, (label, _) in candidates.items() if name in flagged]


def test_no_array_valued_dataclass_compares_its_fields():
    modules = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert array_valued_dataclasses(modules) == []


def test_scan_finds_an_array_valued_dataclass():
    modules = {
        "a": ast.parse("import dataclasses\nimport numpy as np\nfrom dataclasses import dataclass\n"
                       "\n\n@dataclass(frozen=True)\nclass Raw:\n    data: np.ndarray\n"
                       "\n\n@dataclasses.dataclass\nclass Named:\n    data: 'ndarray | None'\n"
                       "\n\n@dataclass(frozen=True, eq=False)\nclass Identity:\n"
                       "    data: np.ndarray\n"
                       "\n\n@dataclass(frozen=True)\nclass Keyed:\n    data: np.ndarray\n\n"
                       "    def __eq__(self, other):\n        return self is other\n"
                       "\n\nclass Undecorated:\n    data: np.ndarray\n"),
        "b": ast.parse("from dataclasses import dataclass\n\nfrom .a import Identity, Raw\n"
                       "\n\n@dataclass\nclass Holder:\n    pair: tuple[Raw, Raw]\n    n: int\n"
                       "\n\n@dataclass\nclass Outer:\n    holder: 'Holder'\n"
                       "\n\n@dataclass\nclass Plain:\n    n: int\n    ident: Identity\n"),
    }
    assert array_valued_dataclasses(modules) == ["a.Raw", "a.Named", "b.Holder", "b.Outer"]
