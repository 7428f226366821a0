"""Entity catalog ingestion.

The catalog is a pre-extracted JSONL artifact: one entity per line with
its identifier, canonical name, aliases and knowledge-graph degree.
Identifiers are opaque strings; nothing Wikidata-specific is assumed.
Degrees may be stored in the catalog or recomputed from an edge list,
with stored values taking precedence.

The catalog is read as a stream: ``catalog_lines`` yields each validated
line as a plain tuple and keeps none of them, so a consumer such as
``index.candidate_lists`` holds only what it takes from each line.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import jsonl
from .errors import FormatError, IntegrityError
from .rowids import RowIds, line_qid


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


def catalog_lines(
    path: str, edges_path: str | None = None
) -> Iterator[tuple[str, str, list[str], int]]:
    """Each valid line of a JSONL entity catalog, as ``(qid, name, aliases, degree)``.

    When ``edges_path`` is given, the edge list is read first and its
    degrees fill in lines that do not carry an explicit ``degree``
    field; explicit values always win, and the degree yielded is final.
    Every line is validated, including the check for duplicate qids
    across the whole file, which runs when the file ends or before any
    error a later line raises, so the first error in file order wins.
    """
    degrees = compute_degrees(load_edges(edges_path)) if edges_path is not None else {}
    with open(path, "rb") as fh, RowIds(path, line_qid, "qid").checked() as qids:
        for lineno, obj in jsonl.rows(fh):
            qid, name, aliases, degree = _parse_record(obj, lineno)
            qids.add(qid, lineno)
            yield qid, name, aliases, degrees.get(qid, 0) if degree is None else degree


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
