"""Token inverted index over entity names and aliases.

A mention's candidates are the entities for which every mention token
occurs in the entity's name or in one of its aliases, where all tokens
must come from a single name or a single alias (not spread across
them). Candidates are ordered by degree descending, qid ascending on
ties, and truncated to at most T per mention.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from dataclasses import dataclass

from .kg import EntityCatalog

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint."""
    return _TOKEN_RE.findall(text.lower())


def record_tokens(name: str, aliases: list[str]) -> list[str]:
    """The tokens of a name and its aliases, in one call.

    The newline between the texts is not a token character, so no token
    spans two of them.
    """
    return tokenize("\n".join((name, *aliases)))


@dataclass
class InvertedIndex:
    """token -> ascending-sorted list of qids whose name or an alias contains it."""

    postings: dict[str, list[str]]

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)


@dataclass(slots=True)
class CandidateList:
    """Degree-sorted candidates for one mention, truncated to T."""

    candidates: list[str]
    truncated: bool = False


def build_index(catalog: EntityCatalog, tokens: Collection[str] | None = None) -> InvertedIndex:
    """Index every token of every entity's name and aliases.

    With ``tokens`` given, only those tokens get posting lists; candidate
    generation for mentions made of them is unchanged.
    """
    keep = None if tokens is None else set(tokens)
    postings: dict[str, list[str]] = {}
    for rec in catalog:
        found = set(record_tokens(rec.name, rec.aliases))
        if keep is not None:
            found &= keep
        for tok in found:
            postings.setdefault(tok, []).append(rec.qid)
    return InvertedIndex(postings={tok: sorted(qids) for tok, qids in postings.items()})


def _single_source_match(mention_tokens: set[str], rec) -> bool:
    """True if one name or one alias contains all mention tokens."""
    if mention_tokens.issubset(tokenize(rec.name)):
        return True
    for alias in rec.aliases:
        if mention_tokens.issubset(tokenize(alias)):
            return True
    return False


def generate_candidates(
    index: InvertedIndex,
    catalog: EntityCatalog,
    mention: str,
    T: int = 20,
) -> CandidateList:
    """Intersect posting lists for the mention tokens, filter to
    single-source matches, sort by degree and truncate to T."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    tokens = set(tokenize(mention))
    if not tokens:
        return CandidateList(candidates=[])

    # Intersect postings, rarest token first to keep the working set small.
    posting_sets = []
    for tok in tokens:
        qids = index.postings.get(tok)
        if qids is None:
            return CandidateList(candidates=[])
        posting_sets.append(qids)
    posting_sets.sort(key=len)
    matched = set(posting_sets[0])
    for qids in posting_sets[1:]:
        matched.intersection_update(qids)
        if not matched:
            return CandidateList(candidates=[])

    # A posting hit holds a lone mention token in one of its names already.
    hits = [
        qid
        for qid in matched
        if len(tokens) == 1 or _single_source_match(tokens, catalog.records[qid])
    ]
    hits.sort(key=lambda q: (-catalog.records[q].degree, q))
    truncated = len(hits) > T
    return CandidateList(candidates=hits[:T], truncated=truncated)


def oracle_recall(
    tasks: list[tuple[str, str]],
    index: InvertedIndex,
    catalog: EntityCatalog,
    T: int = 20,
) -> float:
    """Fraction of (mention, gold_qid) tasks whose candidate list contains gold."""
    if not tasks:
        raise ValueError("oracle_recall requires a non-empty task list")
    hits = 0
    for mention, gold in tasks:
        if gold in generate_candidates(index, catalog, mention, T).candidates:
            hits += 1
    return hits / len(tasks)
