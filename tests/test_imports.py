"""Every top-level import of a ranksel module is used, every ``__all__`` name exists,
and every private module-level name is referenced somewhere in the package.

A deletion can leave behind an import that nothing reads any more; this scan
finds it.  ``__init__.py`` is exempt: its imports are the package's exports.
The scan counts ``__all__`` names as used, so a stale ``__all__`` entry would
hide itself and its import; the second check finds that.  A consolidation can
leave behind a private helper or constant that nothing calls any more; the
third scan finds that.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ranksel

SOURCES = sorted(Path(ranksel.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom math import pi, tau\nimport os.path\n"
        "__all__ = ['tau']\n"
        "def f(x: np.ndarray) -> float:\n    return pi\n"
    )
    assert unused_imports(source) == ["os", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(Path(ranksel.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_all_names_exist(path):
    name = "ranksel" if path.stem == "__init__" else f"ranksel.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _reads(node: ast.AST) -> set[str]:
    """Names loaded (``_f(...)``, ``x = _C``) or taken as attributes (``module._f``) under node."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            reads.add(sub.attr)
    return reads


def _private_names(node: ast.stmt) -> list[str]:
    """Private (single-underscore) names a top-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name that no other statement reads.

    Binding a name by its definition or an import does not count as reading
    it, nor does a read inside its own definition (a recursive call).
    """
    statements = [(module, node, _reads(node))
                  for module, source in sources.items() for node in ast.parse(source).body]
    return [
        f"{module}.{name}"
        for module, node, _ in statements
        for name in _private_names(node)
        if not any(name in reads for _, other, reads in statements if other is not node)
    ]


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a": "_LIMIT = 4\n_OLD: int = 5\ndef _used(x):\n    return x\n"
             "def _left_behind():\n    return _left_behind()\n__all__ = []\n",
        "b": "from a import _used, _OLD\nimport a\nprint(_used(a._LIMIT))\n",
    }
    assert unreferenced_private_names(sources) == ["a._OLD", "a._left_behind"]


def test_package_has_no_unreferenced_private_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_names(sources) == []
