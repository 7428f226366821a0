"""Document/mention dataset I/O.

JSONL, one ``DOCUMENT`` per line, its mentions ``MENTION`` records. A
document's ``tokens`` are needed by the context methods, and its
``nouns`` override the stopword heuristic. A mention's ``position`` is
the token index it occupies, so below the length of ``tokens`` when
they are given. Candidate lists and name matches are not stored; they
are attached from those made for the documents' surfaces
(``index.candidate_lists``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

from . import jsonl
from .errors import FormatError
from .index import CandidateList


@dataclass(slots=True)
class Mention:
    surface: str
    gold_qid: str | None = None
    position: int = 0
    candidates: CandidateList | None = None
    name_matches: CandidateList | None = None


@dataclass
class DocumentTask:
    doc_id: str
    mentions: list[Mention]
    tokens: list[str] | None = None
    nouns: list[str] | None = None


DOCUMENT = jsonl.Table("a document must be a JSON object", (
    jsonl.Field("doc_id", str, "missing or empty 'doc_id'", checks=("v != ''",)),
    *(jsonl.Field(key, list, f"{key!r} must be a list of strings", None, (jsonl.STRINGS,))
      for key in ("tokens", "nouns")),
    jsonl.Field("mentions", list, "'mentions' must be a list"),
))
MENTION = jsonl.Table("a mention must be a JSON object", (
    jsonl.Field("surface", str, "mention without a surface", checks=("v != ''",)),
    jsonl.Field("gold_qid", str, "'gold_qid' must be a non-empty string or null", None,
                ("v != ''",)),
    jsonl.Field("position", int, "'position' must be a non-negative integer", 0, ("v >= 0",)),
))


def load_dataset(path: str) -> list[DocumentTask]:
    """Read and validate every document: a ``DOCUMENT`` record, each doc_id once, whose
    mentions are ``MENTION`` records.

    Each distinct token or noun string is held once across the file:
    documents share the string objects of the words they repeat.
    """
    docs: list[DocumentTask] = []
    shared: dict[str, str] = {}
    rows = jsonl.records(path, DOCUMENT, "doc_id")
    for doc_id, tokens, nouns, raw_mentions in rows:
        mentions = []
        try:
            for surface, gold, position in map(MENTION.check, raw_mentions):
                if tokens is not None and position >= len(tokens):
                    raise FormatError(f"'position' {position} is past the tokens")
                mentions.append(Mention(surface, gold, position))
        except FormatError as exc:  # named by its line, after any earlier repeated doc_id
            rows.throw(exc)
        if tokens is not None:
            tokens = [shared.setdefault(t, t) for t in tokens]
        if nouns is not None:
            nouns = [shared.setdefault(t, t) for t in nouns]
        docs.append(DocumentTask(doc_id=doc_id, mentions=mentions, tokens=tokens, nouns=nouns))
    return docs


def attach_candidates(
    doc: DocumentTask,
    lists: Mapping[str, CandidateList],
    name_matches: Mapping[str, CandidateList] | None = None,
) -> DocumentTask:
    """Return a copy of the document whose mentions carry ``lists[surface]``.

    When ``name_matches`` is given, they also carry ``name_matches[surface]``.
    Every mention with the same surface gets the same lists.
    """
    matches = name_matches or {}
    mentions = [
        replace(m, candidates=lists[m.surface], name_matches=matches.get(m.surface))
        for m in doc.mentions
    ]
    return replace(doc, mentions=mentions)
