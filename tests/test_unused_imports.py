"""No module of the package imports a name that it never uses.

No linter is among the test dependencies, so this reads each module with
``ast``. ``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "eigenlink"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Each name an import of ``source`` binds that no expression of it reads.

    ``import a.b`` binds ``a``, and ``a.b.c`` reads it. ``from __future__``
    imports are directives, which bind nothing.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from math import pi, tau as turn\n"
        "print(xml.dom.minidom, turn)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: osp", "line 5: pi"]
