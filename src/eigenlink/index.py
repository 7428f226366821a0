"""Candidate generation over entity names and aliases.

A mention's candidates are the entities for which every mention token
occurs in the entity's name or in one of its aliases, where all tokens
must come from a single name or a single alias (not spread across
them). Candidates are ordered by degree descending, qid ascending on
ties, and truncated to at most T per mention. A mention's name matches
are the entities whose normalized name (casefolded, whitespace
collapsed) equals the mention's, in the same order and never truncated.

Both are collected in one pass over the catalog: ``candidate_lists``
hands each of ``kg.catalog_lines``' lines to a ``CandidateCollector``
made from the mention surfaces, which keeps each hit's qid and degree
and nothing of the other lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric codepoint."""
    return _TOKEN_RE.findall(text.lower())


def normalize_name(name: str) -> str:
    """Casefold and collapse whitespace: the key of exact-name matching."""
    return " ".join(name.casefold().split())


@dataclass(slots=True)
class CandidateList:
    """Degree-sorted entities of one mention, with their degrees when they were kept.

    A mention's candidates are cut to T; its name matches never are.
    """

    candidates: list[str]
    degrees: list[int] | None  # in step with ``candidates``
    truncated: bool = False


def _sorted_list(
    hits: list[tuple[int, str]], T: int | None, degrees: dict[int, int] | None
) -> CandidateList:
    """The ``(-degree, qid)`` hits in order, cut to T unless T is None.

    Equal degrees share the int object that ``degrees`` holds for them,
    so lists whose degrees repeat hold one object per distinct degree.
    With ``degrees`` None, the list keeps no degrees.
    """
    hits.sort()
    kept = hits[:T]
    shared = None if degrees is None else [degrees.setdefault(-d, -d) for d, _ in kept]
    return CandidateList([q for _, q in kept], shared, len(hits) > len(kept))


class CandidateCollector:
    """The candidate lists of a fixed set of mention surfaces, filled one catalog line at a time.

    The hits of each distinct mention token set are kept as
    ``(-degree, qid)`` pairs. A list that grows past 2T is sorted and cut
    to its best T + 1, so it never holds more than 2T hits and still
    shows that it is to be truncated. With ``names``, the name matches of
    each distinct normalized surface are kept the same way, uncut, with
    their degrees; without it, no name is normalized. Without
    ``degrees``, the candidate lists keep no degrees.
    """

    def __init__(
        self, surfaces: Iterable[str], T: int = 20, names: bool = False, degrees: bool = True
    ):
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        self.T = T
        self._degrees = degrees
        self._token_sets = {surface: frozenset(tokenize(surface)) for surface in surfaces}
        # A token set is looked up by one of its tokens only: a text that
        # holds every token of the set holds that one.
        self._by_token: dict[str, list[frozenset[str]]] = {}
        for tokens in set(self._token_sets.values()):
            if tokens:
                self._by_token.setdefault(min(tokens), []).append(tokens)
        self._lookup_tokens = frozenset(self._by_token)
        self._hits: dict[frozenset[str], list[tuple[int, str]]] = {}
        self._names = {s: normalize_name(s) for s in self._token_sets} if names else None
        self._name_hits = {name: [] for name in self._names.values()} if names else {}

    def offer(self, qid: str, name: str, aliases: list[str], degree: int) -> None:
        """Add the entity to the hits of each token set its name or one alias holds.

        With ``names``, an entity whose normalized name is a surface's is a
        name match too. Each text is tokenized once.
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
        if self._name_hits:
            name_hits = self._name_hits.get(normalize_name(name))
            if name_hits is not None:
                name_hits.append((-degree, qid))

    def lists(self) -> dict[str, CandidateList]:
        """Each surface's candidates; surfaces with the same token set share one list."""
        degrees: dict[int, int] | None = {} if self._degrees else None
        made = {
            tokens: _sorted_list(self._hits.get(tokens, []), self.T, degrees)
            for tokens in set(self._token_sets.values())
        }
        return {surface: made[tokens] for surface, tokens in self._token_sets.items()}

    def name_matches(self) -> dict[str, CandidateList] | None:
        """Each surface's name matches, or None when they were not collected.

        Surfaces with the same normalized name share one list.
        """
        if self._names is None:
            return None
        degrees: dict[int, int] = {}
        made = {name: _sorted_list(hits, None, degrees) for name, hits in self._name_hits.items()}
        return {surface: made[name] for surface, name in self._names.items()}


def candidate_lists(
    lines: Iterable[tuple[str, str, list[str], int]],
    surfaces: Iterable[str],
    T: int = 20,
    names: bool = True,
    degrees: bool = True,
) -> tuple[dict[str, CandidateList], dict[str, CandidateList] | None]:
    """The candidate lists and the name matches of each surface among the catalog ``lines``.

    ``lines`` are ``(qid, name, aliases, degree)`` tuples, as
    ``kg.catalog_lines`` yields them, read once. ``names`` and ``degrees``
    are the ``CandidateCollector``'s: without ``names`` the name matches
    are None.
    """
    collector = CandidateCollector(surfaces, T, names=names, degrees=degrees)
    for qid, name, aliases, degree in lines:
        collector.offer(qid, name, aliases, degree)
    return collector.lists(), collector.name_matches()
