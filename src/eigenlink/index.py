"""Candidate generation over entity names and aliases.

A mention's candidates are the entities for which every mention token
occurs in the entity's name or in one of its aliases, where all tokens
must come from a single name or a single alias (not spread across
them). Candidates are ordered by degree descending, qid ascending on
ties, and truncated to at most T per mention.

Candidates are collected in one pass over the catalog: a
``CandidateCollector`` made from the mention surfaces is offered each
record as it is read, so no record needs to be kept for them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .kg import EntityRecord

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(slots=True)
class CandidateList:
    """Degree-sorted candidates for one mention, truncated to T."""

    candidates: list[str]
    truncated: bool = False


class CandidateCollector:
    """The candidate lists of a fixed set of mention surfaces, filled one record at a time.

    The hits of each distinct mention token set are kept as
    ``(-degree, qid)`` pairs. A list that grows past 2T is sorted and cut
    to its best T + 1, so it never holds more than 2T hits and still
    shows that it is to be truncated.
    """

    def __init__(self, surfaces: Iterable[str], T: int = 20):
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        self.T = T
        self._token_sets = {surface: frozenset(tokenize(surface)) for surface in surfaces}
        # A token set is looked up by one of its tokens only: a text that
        # holds every token of the set holds that one.
        self._by_token: dict[str, list[frozenset[str]]] = {}
        for tokens in set(self._token_sets.values()):
            if tokens:
                self._by_token.setdefault(min(tokens), []).append(tokens)
        self._lookup_tokens = frozenset(self._by_token)
        self._hits: dict[frozenset[str], list[tuple[int, str]]] = {}

    def offer(self, qid: str, name: str, aliases: list[str], degree: int) -> bool:
        """Add the record to the hits of each token set its name or one alias holds.

        Each text is tokenized once. Returns whether the record is a hit.
        """
        matched = set()
        for text in (name, *aliases):
            found = _TOKEN_RE.findall(text.lower())  # tokenize(text), inlined for speed
            if self._lookup_tokens.isdisjoint(found):
                continue
            found = set(found)
            for token in found:
                for tokens in self._by_token.get(token, ()):
                    if tokens <= found:
                        matched.add(tokens)
        for tokens in matched:
            hits = self._hits.setdefault(tokens, [])
            hits.append((-degree, qid))
            if len(hits) > 2 * self.T:
                hits.sort()
                del hits[self.T + 1 :]
        return bool(matched)

    def lists(self) -> dict[str, CandidateList]:
        """Each surface's candidates; surfaces with the same token set share one list."""
        made: dict[frozenset[str], CandidateList] = {}
        for tokens in self._token_sets.values():
            if tokens not in made:
                hits = sorted(self._hits.get(tokens, ()))
                made[tokens] = CandidateList([q for _, q in hits[: self.T]], len(hits) > self.T)
        return {surface: made[tokens] for surface, tokens in self._token_sets.items()}


def candidate_lists(
    records: Iterable[EntityRecord], surfaces: Iterable[str], T: int = 20
) -> dict[str, CandidateList]:
    """The candidates of each surface among ``records``, such as a loaded catalog's."""
    collector = CandidateCollector(surfaces, T)
    for rec in records:
        collector.offer(rec.qid, rec.name, rec.aliases, rec.degree)
    return collector.lists()
