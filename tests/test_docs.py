"""The names the README cites and the package exports exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import eigenlink

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {module.name for module in pkgutil.iter_modules(eigenlink.__path__)}
# Data files share their stems with modules: `dataset.jsonl` names a file.
FILE_SUFFIXES = {"csv", "json", "jsonl", "tsv", "txt"}


def readme_references() -> set[tuple[str, str]]:
    """Each ``module.name`` inside a backticked README span whose module is an eigenlink module."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    return {
        (module, name)
        for span in spans
        for module, name in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span)
        if module in MODULES and name not in FILE_SUFFIXES
    }


def test_readme_module_references_resolve():
    references = readme_references()
    assert ("index", "candidate_lists") in references
    missing = [
        f"{module}.{name}"
        for module, name in sorted(references)
        if not hasattr(importlib.import_module(f"eigenlink.{module}"), name)
    ]
    assert missing == []


def test_package_exports_resolve():
    assert [name for name in eigenlink.__all__ if not hasattr(eigenlink, name)] == []
