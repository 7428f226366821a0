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

import sys
from typing import Iterable, Iterator

from . import jsonl
from .errors import FormatError, IntegrityError
from .rowids import RowIds, line_qid

# The largest degree that converts to a float, as the degree baseline scores it.
_MAX_DEGREE = int(sys.float_info.max)


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
    if "degree" in obj and degree > _MAX_DEGREE:
        raise FormatError(f"line {lineno}: 'degree' is above the largest float (about 1.8e308)")
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

    The file is read a block at a time (``jsonl.blocks``). A line that is
    one plain valid record, as nearly every line is, is checked inline
    with exact types; any other line goes through ``jsonl._value`` and
    ``_parse_record`` for its value or its message. A block's qids are
    recorded at its end, or before its bad line's error is raised.
    """
    degrees = compute_degrees(load_edges(edges_path)) if edges_path is not None else {}
    scan, max_degree = jsonl._scan, _MAX_DEGREE
    with open(path, "rb") as fh, RowIds(path, line_qid, "qid").checked() as qids:
        for start, texts in jsonl.blocks(fh):
            block_qids: list[str] = []
            last = 0
            try:
                for lineno, text in enumerate(texts, start):
                    if not (text := text.strip()):
                        continue
                    plain = False
                    if "\\u" not in text:  # only jsonl._value checks what an escape makes
                        try:  # of the JSON values, only an object takes a str key
                            obj, end = scan(text, 0)
                            qid, name = obj["qid"], obj["name"]
                            aliases, degree = obj.get("aliases", []), obj.get("degree")
                            "".join(aliases)  # a TypeError unless every alias is a str
                        except (StopIteration, ValueError, RecursionError, LookupError,
                                TypeError, FormatError):
                            pass
                        else:
                            plain = (
                                end == len(text)
                                and type(qid) is str
                                and type(name) is str
                                and type(aliases) is list
                                and qid != ""
                                and name != ""
                                and (
                                    type(degree) is int and 0 <= degree <= max_degree
                                    or degree is None and "degree" not in obj
                                )
                            )
                    if not plain:
                        obj = jsonl._value(text, lineno)
                        qid, name, aliases, degree = _parse_record(obj, lineno)
                    block_qids.append(qid)
                    last = lineno
                    yield qid, name, aliases, degrees.get(qid, 0) if degree is None else degree
            finally:  # before an error, so that a repeat among these lines comes first
                qids.extend(block_qids, start, last)


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
