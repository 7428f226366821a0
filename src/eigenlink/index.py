"""Candidate generation over entity names and aliases.

A mention's candidates are the entities for which every mention token
occurs in the entity's name or in one of its aliases, where all tokens
must come from a single name or a single alias (not spread across
them). Candidates are ordered by degree descending, qid ascending on
ties, and truncated to at most T per mention. A mention's name matches
are the entities whose normalized name (casefolded, whitespace
collapsed) equals the mention's, in the same order and never truncated.

Both are collected in one pass over the catalog: ``candidate_lists``
reads ``kg.catalog_lines``' lines once against the mention surfaces,
keeping each hit's qid and degree and nothing of the other lines.
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


def candidate_lists(
    lines: Iterable[tuple[str, str, list[str], int]],
    surfaces: Iterable[str],
    T: int = 20,
    names: bool = True,
    degrees: bool = True,
) -> tuple[dict[str, CandidateList], dict[str, CandidateList] | None]:
    """The candidate lists and the name matches of each surface among the catalog ``lines``.

    ``lines`` are ``(qid, name, aliases, degree)`` tuples, as
    ``kg.catalog_lines`` yields them, read once; no line is kept. The hits
    of each distinct mention token set are kept as ``(-degree, qid)``
    pairs. A list that grows past 2T is sorted and cut to its best T + 1,
    so it never holds more than 2T hits and still shows that it is to be
    truncated. Surfaces with the same token set share one list. With
    ``names``, the name matches of each distinct normalized surface are
    kept the same way, uncut, and surfaces with the same normalized name
    share one list; without it, no name is normalized and the name
    matches are None. Without ``degrees``, the candidate lists keep no
    degrees.

    The name and aliases of an entity are tokenized together first. A
    token cannot span the space that joins them, so these are the tokens
    of each text, and a one-token set hits when it is among them: one set
    lookup per token. Only an entity that holds the lookup token of a
    longer set is tokenized again, text by text, and an entity that
    shares no token with a mention costs no Python-level call.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    token_sets = {surface: frozenset(tokenize(surface)) for surface in surfaces}
    # A longer token set is looked up by one of its tokens only: a text
    # that holds every token of the set holds that one.
    single: dict[str, frozenset[str]] = {}
    by_token: dict[str, list[frozenset[str]]] = {}
    for tokens in set(token_sets.values()):
        if len(tokens) == 1:
            single[min(tokens)] = tokens
        elif tokens:
            by_token.setdefault(min(tokens), []).append(tokens)
    all_hits: dict[frozenset[str], list[tuple[int, str]]] = {}
    surface_names = {s: normalize_name(s) for s in token_sets} if names else None
    name_hits = {name: [] for name in surface_names.values()} if names else {}

    findall = _TOKEN_RE.findall
    disjoint = frozenset((*single, *by_token)).isdisjoint
    disjoint_longer = frozenset(by_token).isdisjoint
    for qid, name, aliases, degree in lines:
        if name_hits:
            hits = name_hits.get(" ".join(name.casefold().split()))  # normalize_name(name)
            if hits is not None:
                hits.append((-degree, qid))
        # The tokens of the name and aliases joined by " ", which splits
        # tokens. Whitespace is not alphanumeric, so when all else is,
        # they are the whitespace-split words, found without the regex.
        text = (" ".join((name, *aliases)) if aliases else name).lower()
        words = text.split()
        if not "".join(words).isalnum():
            words = findall(text)
        if disjoint(words):
            continue
        matched = {single[t] for t in words if t in single}
        if not disjoint_longer(words):
            for text in (name, *aliases):
                found = set(findall(text.lower()))  # tokenize(text), inlined
                for token in found:
                    for tokens in by_token.get(token, ()):
                        if tokens <= found:
                            matched.add(tokens)
        for tokens in matched:
            hits = all_hits.setdefault(tokens, [])
            hits.append((-degree, qid))
            if len(hits) > 2 * T:
                hits.sort()
                del hits[T + 1 :]

    list_degrees: dict[int, int] | None = {} if degrees else None
    made = {
        tokens: _sorted_list(all_hits.get(tokens, []), T, list_degrees)
        for tokens in set(token_sets.values())
    }
    lists = {surface: made[tokens] for surface, tokens in token_sets.items()}
    if surface_names is None:
        return lists, None
    name_degrees: dict[int, int] = {}
    by_name = {name: _sorted_list(hits, None, name_degrees) for name, hits in name_hits.items()}
    return lists, {surface: by_name[name] for surface, name in surface_names.items()}
