"""Every top-level import of a ranksel module is used, and every ``__all__`` name exists.

A deletion can leave behind an import that nothing reads any more; this scan
finds it.  ``__init__.py`` is exempt: its imports are the package's exports.
The scan counts ``__all__`` names as used, so a stale ``__all__`` entry would
hide itself and its import; the second check finds that.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ranksel

MODULES = sorted(p for p in Path(ranksel.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
