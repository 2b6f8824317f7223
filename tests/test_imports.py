"""Every name a module of the package or of its tests imports is used by that
module, and every module-level function or class of the package is read or exported."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import mdvkit

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mdvkit"
# __init__ imports to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _annotation_names(tree):
    """Names read by quoted annotations such as -> "Cover | None"."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        else:
            continue
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            yield from (n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _reads(tree) -> Counter:
    """How often each name is read: bare, as an attribute or in a quoted annotation."""
    return Counter([n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
                   + list(_annotation_names(tree)))


def _unreferenced(sources: dict[str, str], exported) -> list[str]:
    """``module.name`` of each module-level function or class that is not in
    ``exported`` and that no module reads outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in exported and reads[node.name] == _reads(node)[node.name]]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import math\nimport numpy as np\nx: 'np.ndarray'\n") == [
        "math (line 1)"]
    assert _unused_imports("import math\nx = 'math'\n") == ["math (line 1)"]


def test_every_module_level_definition_is_read_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources, mdvkit.__all__) == []


def test_the_scan_sees_an_unreferenced_def():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef dead(n):\n    return dead(n - 1)\n\n\n"
             "class Kept:\n    pass\n\n\nclass Noted:\n    pass\n",
        "b": "from . import a\n\nx = a.used()\ny: 'Noted | None' = None\n",
    }
    assert _unreferenced(sources, ["Kept"]) == ["a.dead"]
