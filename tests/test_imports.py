"""Every name a module of the package or of its tests imports is used by that
module, every module-level function or class of the package is read or exported,
and every private class member of the package is read."""

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


def _loads(tree) -> Counter:
    """How often each name is loaded, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _members(cls: ast.ClassDef):
    """Each name that the body of ``cls`` defines or assigns, or that its code
    assigns as an attribute of ``self``."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))
    yield from (n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                and n.value.id == "self")


def _dead_members(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each private member (an underscore name, not a
    dunder) of a class that no module loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    return [f"{module}.{cls.name}.{name}" for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name in dict.fromkeys(_members(cls))
            if name.startswith("_") and not name.endswith("__") and not loads[name]]


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


def test_every_private_class_member_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_members(sources) == []


def test_the_scan_sees_a_dead_private_member():
    sources = {
        "a": "class Thing:\n    _flag = True\n    _unused_flag = False\n\n"
             "    def __init__(self):\n        self._kept, self._dropped = 1, 2\n\n"
             "    def _step(self):\n        return self._kept if self._flag else 0\n\n"
             "    def _dead(self):\n        return 0\n",
        "b": "from .a import Thing\n\nx = Thing()._step()\n",
    }
    assert _dead_members(sources) == [
        "a.Thing._unused_flag", "a.Thing._dead", "a.Thing._dropped"]
