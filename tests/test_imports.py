"""Every name that a package module imports is used in that module.

No linter runs on this code, so this keeps imports left over by a refactor
out of the source. ``__init__.py`` is skipped: its imports are the public
API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import pyrafuse

MODULES = sorted(
    path for path in Path(pyrafuse.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
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
