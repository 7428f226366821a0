"""Entity catalog ingestion.

The catalog is a pre-extracted JSONL artifact: one record per line with
the entity identifier, canonical name, aliases and knowledge-graph
degree. Identifiers are opaque strings; nothing Wikidata-specific is
assumed. Degrees may be stored in the catalog or recomputed from an
edge list, with stored values taking precedence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import jsonl
from .errors import FormatError, IntegrityError
from .rowids import RowIds, line_qid


@dataclass(slots=True)
class EntityRecord:
    """One knowledge-graph entity: identifier, names and degree."""

    qid: str
    name: str
    aliases: list[str] = field(default_factory=list)
    degree: int = 0


@dataclass
class EntityCatalog:
    """Immutable-after-build store of entity records keyed by qid.

    Loaded with a ``keep`` rule, the catalog holds only the records that
    rule accepts. Linking reads no record: the CLI's rule hands each line
    to the candidate collector and keeps none, and library callers pass
    the records to ``index.candidate_lists``.
    """

    records: dict[str, EntityRecord]

    @property
    def count(self) -> int:
        return len(self.records)

    def get(self, qid: str) -> EntityRecord | None:
        return self.records.get(qid)

    def __iter__(self) -> Iterator[EntityRecord]:
        return iter(self.records.values())

    def __len__(self) -> int:
        return len(self.records)


def _parse_record(obj: dict, lineno: int) -> tuple[str, str, list[str], int | None]:
    """Validate one raw JSON object. Returns (qid, name, aliases, degree or None if not stored)."""
    if not isinstance(obj, dict):
        raise FormatError(f"line {lineno}: catalog record must be a JSON object")
    qid = obj.get("qid")
    name = obj.get("name")
    if not isinstance(qid, str) or not qid:
        raise FormatError(f"line {lineno}: missing or empty 'qid'")
    if not isinstance(name, str) or not name:
        raise FormatError(f"line {lineno}: missing or empty 'name'")
    aliases = obj.get("aliases", [])
    if not isinstance(aliases, list) or any(not isinstance(a, str) for a in aliases):
        raise FormatError(f"line {lineno}: 'aliases' must be a list of strings")
    degree = obj.get("degree")
    if "degree" in obj and (not isinstance(degree, int) or isinstance(degree, bool) or degree < 0):
        raise FormatError(f"line {lineno}: 'degree' must be a non-negative integer")
    return qid, name, aliases, degree


def load_catalog(
    path: str,
    edges_path: str | None = None,
    keep: Callable[[str, str, list[str], int], bool] | None = None,
) -> EntityCatalog:
    """Load a JSONL entity catalog.

    When ``edges_path`` is given, the edge list is read first and its
    degrees fill in records that do not carry an explicit ``degree``
    field; explicit values always win.

    When ``keep`` is given, it is called with each valid line's
    ``(qid, name, aliases, degree)``, the degree being final, and only
    the records for which it holds are made and kept; a rule that holds
    for none reads the file in one pass without making a record, as
    ``link`` does. Every line is validated either way, including the
    check for duplicate qids across the whole file.
    """
    degrees = compute_degrees(load_edges(edges_path)) if edges_path is not None else {}
    records: dict[str, EntityRecord] = {}
    with open(path, "rb") as fh, RowIds(path, line_qid, "qid").checked() as qids:
        for lineno, obj in jsonl.rows(fh):
            qid, name, aliases, degree = _parse_record(obj, lineno)
            qids.add(qid, lineno)
            if degree is None:
                degree = degrees.get(qid, 0)
            if keep is None or keep(qid, name, aliases, degree):
                records[qid] = EntityRecord(qid, name, aliases, degree)
    return EntityCatalog(records=records)


def load_edges(path: str) -> list[tuple[str, str]]:
    """Read an edge list: one tab-separated qid pair per line."""
    edges: list[tuple[str, str]] = []
    with open(path, "rb") as fh:
        for lineno, line in jsonl.lines(fh):
            parts = line.rstrip("\r\n").split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise FormatError(f"line {lineno}: expected two tab-separated qids")
            edges.append((parts[0], parts[1]))
    return edges


def compute_degrees(edge_list: Iterable[tuple[str, str]]) -> dict[str, int]:
    """Vertex degrees of the undirected, deduplicated graph.

    (a, b) and (b, a) are the same edge; self-loops add one to the
    endpoint's degree.
    """
    seen: set[tuple[str, str]] = set()
    degrees: dict[str, int] = {}
    for a, b in edge_list:
        if not a or not b:
            raise IntegrityError("edge endpoints must be non-empty identifiers")
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            continue
        seen.add(key)
        degrees[a] = degrees.get(a, 0) + 1
        if b != a:
            degrees[b] = degrees.get(b, 0) + 1
    return degrees
