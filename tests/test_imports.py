"""Every name that a package or test module imports is used in that
module, and every name that a package module defines is read somewhere.

No linter runs on this code, so this keeps imports and definitions left
over by a refactor out of the source and the tests. ``__init__.py`` is
skipped for imports: its imports are the public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import pyrafuse

PACKAGE = Path(pyrafuse.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# the code that may read a module-level name: the package and its tests
READERS = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda path: path.name
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from .attributes import AttributeStack, phase_dip\n"
        "@dataclass\n"
        "class A:\n"
        "    stack: AttributeStack\n"
        "    def f(self):\n"
        "        return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["field", "os", "phase_dip"]


def module_names(source: str) -> set[str]:
    """Functions, classes and assigned names at the top level of ``source``,
    dunder names excepted."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def loaded_names(source: str) -> set[str]:
    """Names that ``source`` reads: as a variable, an attribute or an import."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_module_level_name_is_read():
    loaded = set().union(*(loaded_names(path.read_text(encoding="utf-8")) for path in READERS))
    unread = {
        path.name: sorted(module_names(path.read_text(encoding="utf-8")) - loaded)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in unread.items() if names} == {}


def test_unread_module_level_names_are_found():
    source = (
        "import numpy as np\n"
        "__all__ = ['f']\n"
        "LIMIT: int = 3\n"
        "A, B = 1, 2\n"
        "class Kind:\n"
        "    pass\n"
        "def f(x=Kind):\n"
        "    return np.minimum(x, A)\n"
        "def _g():\n"
        "    pass\n"
    )
    assert sorted(module_names(source) - loaded_names(source)) == ["B", "LIMIT", "_g", "f"]


def test_export_list_is_sorted_unique_and_resolves():
    exported = pyrafuse.__all__
    assert exported == sorted(set(exported))
    assert [name for name in exported if not hasattr(pyrafuse, name)] == []


def test_every_public_import_is_exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert sorted(imported - set(pyrafuse.__all__)) == []
