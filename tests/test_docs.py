"""The names the README cites and the package exports exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import eigenlink
from eigenlink.dataset import DOCUMENT, MENTION
from eigenlink.kg import CATALOG
from eigenlink.pipeline import RunConfig
from eigenlink.weighting import DESCRIPTIONS

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


def readme_paragraph(title: str) -> str:
    """The README's "- **title**" file-format paragraph, up to the next bullet at its level."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"- **{title}**")
    end = text.find("\n- ", start + 1)
    return text[start:end]


def test_readme_names_every_declared_jsonl_field():
    tables = [
        ("Catalog", CATALOG),
        ("Dataset", DOCUMENT),
        ("Dataset", MENTION),
        ("Descriptions", DESCRIPTIONS),
    ]
    missing = [
        f"{title}: {field.name}"
        for title, table in tables
        for field in table.fields
        if f'"{field.name}"' not in readme_paragraph(title)
    ]
    assert missing == []


def test_readme_states_the_run_defaults_of_run_config():
    # `--method` has no default and `rescale` is the `--unscaled` flag; every
    # other RunConfig field is listed on the README's "Defaults:" line.
    listed = re.search(r"Defaults: `([^`]*)`", README.read_text(encoding="utf-8"))[1]
    stated = dict(pair.strip().split("=") for pair in listed.split(","))
    defaults = vars(RunConfig())
    assert stated == {
        name: str(value) for name, value in defaults.items() if name not in ("method", "rescale")
    }
