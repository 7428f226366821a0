"""Document/mention dataset I/O.

JSONL, one document per line:

    {"doc_id": str,
     "mentions": [{"surface": str, "gold_qid": str|null, "position": int}],
     "tokens": [str],          # optional, needed by context methods
     "nouns": [str]}           # optional, overrides the stopword heuristic

``position`` is the non-negative token index the mention occupies in
``tokens``, so below its length when ``tokens`` is given; it defaults to 0.
Candidate lists and name matches are not stored; they are attached from
those made for the documents' surfaces (``index.candidate_lists``).
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


def load_dataset(path: str) -> list[DocumentTask]:
    """Read and validate every document.

    Each distinct token or noun string is held once across the file:
    documents share the string objects of the words they repeat.
    """
    docs: list[DocumentTask] = []
    seen_ids: set[str] = set()
    shared: dict[str, str] = {}
    with open(path, "rb") as fh:
        for lineno, obj in jsonl.rows(fh):
            if not isinstance(obj, dict):
                raise FormatError(f"line {lineno}: a document must be a JSON object")
            doc_id = obj.get("doc_id")
            if not isinstance(doc_id, str) or not doc_id:
                raise FormatError(f"line {lineno}: missing or empty 'doc_id'")
            if doc_id in seen_ids:
                raise FormatError(f"line {lineno}: duplicate doc_id {doc_id!r}")
            seen_ids.add(doc_id)
            tokens = obj.get("tokens")
            nouns = obj.get("nouns")
            for key, words in (("tokens", tokens), ("nouns", nouns)):
                if words is not None and not (
                    isinstance(words, list) and all(isinstance(t, str) for t in words)
                ):
                    raise FormatError(f"line {lineno}: {key!r} must be a list of strings")
            if tokens is not None:
                tokens = [shared.setdefault(t, t) for t in tokens]
            if nouns is not None:
                nouns = [shared.setdefault(t, t) for t in nouns]
            raw_mentions = obj.get("mentions")
            if not isinstance(raw_mentions, list):
                raise FormatError(f"line {lineno}: 'mentions' must be a list")
            mentions = []
            for m in raw_mentions:
                if not isinstance(m, dict):
                    raise FormatError(f"line {lineno}: a mention must be a JSON object")
                surface = m.get("surface")
                if not isinstance(surface, str) or not surface:
                    raise FormatError(f"line {lineno}: mention without a surface")
                gold = m.get("gold_qid")
                if gold is not None and (not isinstance(gold, str) or not gold):
                    raise FormatError(
                        f"line {lineno}: 'gold_qid' must be a non-empty string or null"
                    )
                position = m.get("position", 0)
                if not isinstance(position, int) or isinstance(position, bool) or position < 0:
                    raise FormatError(f"line {lineno}: 'position' must be a non-negative integer")
                if tokens is not None and position >= len(tokens):
                    raise FormatError(f"line {lineno}: 'position' {position} is past the tokens")
                mentions.append(Mention(surface=surface, gold_qid=gold, position=position))
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
