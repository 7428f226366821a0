"""Entity catalog ingestion.

The catalog is a pre-extracted JSONL artifact: one entity per line with
its identifier, canonical name, aliases and knowledge-graph degree.
Identifiers are opaque strings; nothing Wikidata-specific is assumed.
Degrees may be stored in the catalog or recomputed from an edge list,
with stored values taking precedence.

The catalog's record is declared once, as the ``CATALOG`` table, and
read as a stream: ``catalog_lines`` yields each validated line as a
plain tuple and keeps none of them, so a consumer such as
``index.candidate_lists`` holds only what it takes from each line.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

from . import jsonl
from .errors import FormatError, IntegrityError

# The largest degree that converts to a float, as the degree baseline scores it.
_MAX_DEGREE = int(sys.float_info.max)

CATALOG = jsonl.Table("catalog record must be a JSON object", (
    jsonl.Field("qid", str, "missing or empty 'qid'", checks=("v != ''",)),
    jsonl.Field("name", str, "missing or empty 'name'", checks=("v != ''",)),
    jsonl.Field("aliases", list, "'aliases' must be a list of strings", [], (jsonl.STRINGS,)),
    jsonl.Field("degree", int, "'degree' must be a non-negative integer", 0, ("v >= 0", (
        f"v <= {_MAX_DEGREE}", "'degree' is above the largest float (about 1.8e308)"))),
))


def catalog_lines(
    path: str, edges_path: str | None = None
) -> Iterator[tuple[str, str, list[str], int]]:
    """Each valid line of a JSONL entity catalog, as ``(qid, name, aliases, degree)``.

    The lines are ``CATALOG`` records, read by ``jsonl.records``, each
    qid once. When ``edges_path`` is given, the edge list is read first
    and its degrees fill in lines that do not carry an explicit
    ``degree`` field; explicit values always win, and the degree yielded
    is final.
    """
    if edges_path is None:
        return jsonl.records(path, CATALOG, "qid")
    degrees = compute_degrees(load_edges(edges_path))
    *fields, degree = CATALOG.fields  # a missing degree is read as -1, and filled in
    table = jsonl.Table(CATALOG.message, (*fields, degree._replace(default=-1)))
    lines = jsonl.records(path, table, "qid")
    return ((q, n, a, degrees.get(q, 0) if d < 0 else d) for q, n, a, d in lines)


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
