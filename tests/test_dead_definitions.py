"""No module of the package defines a top-level name that the package never reads.

A function, class or assignment at a module's top level must be read
somewhere in ``src/eigenlink`` (as a name, an attribute or an import),
or be exported through ``__init__.__all__``. A helper that only tests
call is dead code. Read with ``ast``, as in ``test_unused_imports``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eigenlink"


def top_level_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each function, class and plain assignment at the top of ``tree``."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return defined


def names_read(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, every attribute it reads and every name it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def exported(init: ast.Module) -> set[str]:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """``module:line name`` of each top-level definition no module reads or exports.

    ``sources`` maps module file names to their text; ``__init__.py``
    supplies ``__all__`` and is not checked itself.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    if "__init__.py" in trees:
        read |= exported(trees["__init__.py"])
    return [
        f"{name}:{line} {defined}"
        for name, tree in sorted(trees.items())
        if name != "__init__.py"
        for defined, line in top_level_definitions(tree)
        if defined not in read
    ]


def test_every_top_level_definition_is_read_or_exported():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert dead_definitions(sources) == []


def test_a_definition_only_tests_read_is_found():
    sources = {
        "__init__.py": "from .a import shown\n__all__ = ['shown']\n",
        "a.py": (
            "LIMIT = 3\n"
            "SPARE: int = 4\n"
            "def shown():\n    return LIMIT\n"
            "def helper():\n    return 1\n"
            "class Unused:\n    pass\n"
        ),
        "b.py": "from . import a\nfrom .a import shown\nprint(a.shown, shown)\n",
    }
    assert dead_definitions(sources) == ["a.py:2 SPARE", "a.py:5 helper", "a.py:7 Unused"]
