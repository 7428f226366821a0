"""perfbench wraps eigenlink functions by name; a renamed one blanks its layer metrics."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Deleted from src/; its span stays in perfbench until the benchmark is next changed.
KNOWN_MISSING = {
    ("eigenlink.linalg", "symmetric_eigh"),
    ("eigenlink.index", "build_index"),
    ("eigenlink.linalg", "weighted_sscp"),
    ("eigenlink.kg", "load_catalog"),
}


def test_every_span_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, name)
        for module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert sorted(missing) == sorted(KNOWN_MISSING)
