import json
import random
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenlink.index import CandidateList, candidate_lists, tokenize
from eigenlink.kg import catalog_lines
from tests.conftest import Line, make_catalog


def test_tokenize_whitespace():
    assert tokenize("Michael Jordan") == ["michael", "jordan"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_and_digits():
    assert tokenize("U.S.-based AI (2021)") == ["u", "s", "based", "ai", "2021"]


def test_tokenize_underscore_splits():
    assert tokenize("foo_bar") == ["foo", "bar"]


def reference_hits(records, surface) -> list:
    """Today's rule by brute force: the records where one name or one alias holds every token."""
    want = set(tokenize(surface))
    if not want:
        return []
    return [r for r in records if any(want <= set(tokenize(t)) for t in (r.name, *r.aliases))]


def reference_list(records, surface, T) -> CandidateList:
    """The hits sorted by degree descending then qid, cut to T."""
    hits = sorted(reference_hits(records, surface), key=lambda r: (-r.degree, r.qid))
    kept = hits[:T]
    return CandidateList([r.qid for r in kept], [r.degree for r in kept], len(hits) > T)


def reference_lists(records, surfaces, T) -> dict[str, CandidateList]:
    """``reference_list`` of each surface, from one pass over the records.

    Each name and alias is tokenized once, and every subset of its tokens,
    up to the size of the largest mention token set, is looked up among the
    mention token sets: brute force, with no lookup token.
    """
    token_sets = {surface: frozenset(tokenize(surface)) for surface in surfaces}
    hits = {tokens: [] for tokens in token_sets.values() if tokens}
    largest = max(map(len, hits), default=0)
    for r in records:
        matched = set()
        for text in (r.name, *r.aliases):
            found = sorted(set(tokenize(text)))
            for size in range(1, min(largest, len(found)) + 1):
                matched.update(hits.keys() & set(map(frozenset, combinations(found, size))))
        for tokens in matched:
            hits[tokens].append(r)
    lists = {}
    for surface, tokens in token_sets.items():
        ranked = sorted(hits.get(tokens, []), key=lambda r: (-r.degree, r.qid))
        kept = ranked[:T]
        lists[surface] = CandidateList(
            [r.qid for r in kept], [r.degree for r in kept], len(ranked) > T
        )
    return lists


def reference_name_lookup(records) -> dict[str, list]:
    """Normalized name -> records sorted by degree descending, qid ascending.

    Every record's name is casefolded and its whitespace collapsed; aliases
    are never looked up.
    """
    lookup: dict[str, list] = {}
    for rec in records:
        lookup.setdefault(" ".join(rec.name.casefold().split()), []).append(rec)
    for recs in lookup.values():
        recs.sort(key=lambda r: (-r.degree, r.qid))
    return lookup


def reference_name_matches(lookup, surface) -> CandidateList:
    """The records whose normalized name is the surface's, never cut.

    ``lookup`` is ``reference_name_lookup`` of the records, made once per catalog.
    """
    matches = lookup.get(" ".join(surface.casefold().split()), [])
    return CandidateList([r.qid for r in matches], [r.degree for r in matches])


def brute_force_match(catalog, mention) -> set[str]:
    return {r.qid for r in reference_hits(catalog, mention)}


def recall(tasks, catalog, T) -> float:
    """Fraction of (mention, gold qid) tasks whose candidate list holds the gold."""
    lists, _ = candidate_lists(catalog, [mention for mention, _ in tasks], T)
    return sum(gold in lists[mention].candidates for mention, gold in tasks) / len(tasks)


@pytest.fixture
def mj_catalog():
    return make_catalog(
        [
            ("Q41421", "Michael Jordan", [], 900),
            ("Q3308285", "Michael Jordan", ["Michael I. Jordan"], 40),
            ("Q2831", "Michael Jackson", ["MJ"], 1200),
        ]
    )


def test_collector_hits_name_and_alias_tokens(mj_catalog):
    lists, _ = candidate_lists(mj_catalog, ["Michael", "jordan", "JACKSON", "mj", "i"], T=20)
    assert lists["Michael"].candidates == ["Q2831", "Q41421", "Q3308285"]
    assert lists["jordan"].candidates == ["Q41421", "Q3308285"]
    assert lists["JACKSON"].candidates == ["Q2831"]
    assert lists["mj"].candidates == ["Q2831"]  # an alias token
    assert lists["i"].candidates == ["Q3308285"]


def test_offer_keeps_only_hits(mj_catalog):
    lines = [
        *mj_catalog,
        ("Q9", "present", ["mike", "michaels"], 1),
        ("Q10", "present", ["Absent minded"], 1),
    ]
    lists, _ = candidate_lists(lines, ["michael", "mj", "absent"], T=5, names=False)
    assert {s: cl.candidates for s, cl in lists.items()} == {
        "michael": ["Q2831", "Q41421", "Q3308285"],
        "mj": ["Q2831"],
        "absent": ["Q10"],
    }
    assert candidate_lists(mj_catalog, [], T=1, names=True) == ({}, {})
    by_name = [
        ("Q8", "!!", [], 1),
        ("Q9", "!!!", [], 1),  # a name match, though it has no token
        ("Q41421", "michael jordan", [], 9),
    ]
    assert candidate_lists(by_name, ["!!!", "MICHAEL  JORDAN"], T=1, names=True)[1] == {
        "!!!": CandidateList(["Q9"], [1]),
        "MICHAEL  JORDAN": CandidateList(["Q41421"], [9]),
    }
    assert candidate_lists([], ["!!!"], T=1, names=False)[1] is None


def test_surfaces_with_one_token_set_share_one_list(mj_catalog):
    surfaces = ["Michael Jordan", "jordan-MICHAEL", "mj", "MICHAEL  JORDAN"]
    lists, name_matches = candidate_lists(mj_catalog, surfaces, T=20)
    assert lists["Michael Jordan"] is lists["jordan-MICHAEL"]
    assert lists["Michael Jordan"] is not lists["mj"]
    assert name_matches["Michael Jordan"] is name_matches["MICHAEL  JORDAN"]
    assert name_matches["Michael Jordan"] is not name_matches["jordan-MICHAEL"]


def test_collector_rejects_T_below_one():
    with pytest.raises(ValueError, match="T must be >= 1, got 0"):
        candidate_lists([], ["x"], T=0)


def test_candidates_michael_jordan(mj_catalog):
    got = candidate_lists(mj_catalog, ["Michael Jordan"], T=20)[0]["Michael Jordan"]
    assert got == CandidateList(["Q41421", "Q3308285"], [900, 40])  # degree order, no Jackson


def test_unknown_token_gives_empty(mj_catalog):
    assert candidate_lists(mj_catalog, ["Michael Zzz"], T=20)[0]["Michael Zzz"].candidates == []


def test_empty_mention_gives_empty(mj_catalog):
    assert candidate_lists(mj_catalog, ["..."], T=20)[0]["..."] == CandidateList([], [])


def test_tokens_must_match_single_source():
    # name has "michael smith", alias has "jordan fan": the pair
    # michael+jordan spans two sources and must not match.
    catalog = make_catalog([("Q1", "Michael Smith", ["Jordan Fan"], 10)])
    lists, _ = candidate_lists(catalog, ["Michael Jordan", "Jordan Fan"], T=5)
    assert lists["Michael Jordan"].candidates == []
    assert lists["Jordan Fan"].candidates == ["Q1"]


def test_degree_sort_with_qid_tiebreak_and_truncation():
    catalog = make_catalog(
        [("q1", "acme", [], 5), ("q2", "acme", [], 9), ("q3", "acme", [], 9)]
    )
    got = candidate_lists(catalog, ["acme"], T=2)[0]["acme"]
    assert got == CandidateList(["q2", "q3"], [9, 9], truncated=True)


def test_lists_past_twice_T_keep_the_best_T():
    rows = [(f"q{i:02d}", "acme", [], i % 7) for i in range(30)]
    lists, name_matches = candidate_lists(make_catalog(rows), ["acme"], T=3)
    assert lists["acme"] == CandidateList(["q06", "q13", "q20"], [6, 6, 6], truncated=True)
    assert len(name_matches["acme"].candidates) == 30  # name matches are never cut


def synthetic_catalog(n=1000, seed=11):
    rng = random.Random(seed)
    vocab = [f"tok{i}" for i in range(60)]
    rows = []
    for i in range(n):
        name = " ".join(rng.sample(vocab, rng.randint(1, 4)))
        aliases = [
            " ".join(rng.sample(vocab, rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2))
        ]
        rows.append((f"Q{i}", name, aliases, rng.randrange(0, 10_000)))
    return make_catalog(rows), vocab, rng


def test_membership_matches_brute_force_scan():
    catalog, vocab, rng = synthetic_catalog()
    mentions = [" ".join(rng.sample(vocab, rng.randint(1, 3))) for _ in range(300)]
    lists, _ = candidate_lists(catalog, mentions, T=10**9)
    for mention in mentions:
        assert set(lists[mention].candidates) == brute_force_match(catalog, mention)


def test_determinism():
    catalog, vocab, rng = synthetic_catalog(n=200, seed=3)
    mentions = [" ".join(rng.sample(vocab, 2)) for _ in range(40)]
    first = candidate_lists(catalog, mentions, T=7)
    second = candidate_lists(reversed(list(catalog)), reversed(mentions), T=7)
    assert first == second


def test_oracle_recall_perfect():
    catalog = make_catalog([("Q1", "unique name", [], 1)])
    assert recall([("unique name", "Q1")], catalog, T=20) == 1.0


def test_oracle_recall_planted_misses():
    catalog, vocab, rng = synthetic_catalog(n=100, seed=9)
    tasks = []
    for i in range(20):
        rec = catalog[i]
        gold = rec.qid if i >= 3 else "Q_absent"  # plant 3 misses
        tasks.append((rec.name, gold))
    assert recall(tasks, catalog, T=10**9) == pytest.approx(0.85)


def test_recall_monotone_in_T():
    catalog, vocab, rng = synthetic_catalog(n=400, seed=21)
    tasks = []
    for i in range(120):
        rec = catalog[rng.randrange(400)]
        tasks.append((rec.name, rec.qid))
    values = [recall(tasks, catalog, T=T) for T in (1, 2, 5, 10, 20, 10**9)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# Property tests: the collector's lists equal the brute-force reference.

WORD = st.sampled_from(["ann", "bob", "cy", "dee", "eve", "Ann", "BOB", "x1", "ü"])
PHRASE = st.lists(WORD, min_size=1, max_size=3).flatmap(
    lambda words: st.sampled_from([" ", "-", ". ", "_"]).map(lambda sep: sep.join(words))
)
# Names equal to another only after casefolding and collapsing whitespace.
FOLDED = st.sampled_from(["STRASSE", "Straße", "strasse", "  new   YORK ", "New York", "--"])
NAME = PHRASE | FOLDED
SURFACE = st.one_of(PHRASE, FOLDED, st.just("zed ann"), st.just("--"), st.just(""))


@st.composite
def catalog_files(draw):
    """(catalog rows, edges or None, surfaces, T); degrees tie often, some surfaces match nothing.

    A row without a degree takes it from the edges, as ``--edges`` gives it.
    """
    n = draw(st.integers(0, 16))
    rows = []
    for i in range(n):
        row = {"qid": f"Q{i}", "name": draw(NAME), "aliases": draw(st.lists(PHRASE, max_size=2))}
        if draw(st.booleans()):
            row["degree"] = draw(st.integers(0, 3))
        rows.append(row)
    qid = st.sampled_from([f"Q{i}" for i in range(n + 2)])
    edges = draw(st.none() | st.lists(st.tuples(qid, qid), max_size=3 * n))
    surfaces = draw(st.lists(SURFACE, min_size=1, max_size=6))
    return rows, edges, surfaces, draw(st.integers(1, 4))


def final_degree(row, edges) -> int:
    """The stored degree, or the number of distinct undirected edges at the record."""
    if "degree" in row:
        return row["degree"]
    return len({frozenset(edge) for edge in edges or () if row["qid"] in edge})


def row(qid, name, aliases=(), degree=None) -> dict:
    """A catalog row; without ``degree`` it takes its degree from the edges."""
    given = {} if degree is None else {"degree": degree}
    return {"qid": qid, "name": name, "aliases": list(aliases), **given}


# Single- and multi-token surfaces that share a token, in names and aliases.
SHARED_TOKEN = (
    [row("Q0", "ann bob", degree=2), row("Q1", "Ann", ["bob ann"], 1), row("Q2", "bob", ["ann"])],
    None,
    ["ann", "bob", "Ann-BOB", "ann bob cy"],
    1,
)
# "ann bob" split across a name and an alias does not hit; in one alias it does.
SPLIT_SET = (
    [row("Q0", "ann cy", ["bob", "dee eve"], 3), row("Q1", "cy", ["ann bob"], 3)],
    None,
    ["ann bob", "cy ann", "bob"],
    2,
)
# Lines that hold "bob" but not "ann", the lookup token of {"ann", "bob"}:
# one is a hit of a one-token surface only, the other of none.
NON_LOOKUP_TOKEN = (
    [row("Q0", "bob dee", ["eve"]), row("Q1", "ann", ["bob"]), row("Q2", "BOB", ["eve bob"])],
    [("Q0", "Q1"), ("Q2", "Q2")],
    ["ann bob", "dee"],
    1,
)


@settings(max_examples=300, deadline=None)
@given(case=catalog_files())
@example(case=SHARED_TOKEN)
@example(case=SPLIT_SET)
@example(case=NON_LOOKUP_TOKEN)
def test_collector_lists_equal_the_brute_force_reference(case):
    rows, edges, surfaces, T = case
    with tempfile.TemporaryDirectory() as tmp:
        catalog_path, edges_path = Path(tmp) / "catalog.jsonl", Path(tmp) / "edges.tsv"
        catalog_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        if edges is not None:
            edges_path.write_text("".join(f"{a}\t{b}\n" for a, b in edges))
        lines = catalog_lines(str(catalog_path), None if edges is None else str(edges_path))
        lists, name_matches = candidate_lists(lines, surfaces, T)
    records = [
        Line(row["qid"], row["name"], row["aliases"], final_degree(row, edges)) for row in rows
    ]
    assert set(lists) == set(name_matches) == set(surfaces)
    in_one_pass = reference_lists(records, surfaces, T)
    names = reference_name_lookup(records)
    for surface in surfaces:
        assert lists[surface] == reference_list(records, surface, T) == in_one_pass[surface]
        assert name_matches[surface] == reference_name_matches(names, surface)


# Letters whose lowercase depends on their neighbours or changes length,
# joiners and marks, beside plain text and newlines.
TRICKY = st.sampled_from("aΣσςİIıß\u00ad\u0301\u200d_- .\n1")
TRICKY_TEXT = st.text(alphabet=TRICKY | st.characters())


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(TRICKY_TEXT, st.lists(TRICKY_TEXT, max_size=3)), max_size=6),
    surfaces=st.lists(TRICKY_TEXT, min_size=1, max_size=4),
    T=st.integers(1, 3),
)
def test_collector_matches_the_reference_on_tricky_text(rows, surfaces, T):
    catalog = make_catalog((f"Q{i}", name, al, i % 2) for i, (name, al) in enumerate(rows))
    lists, name_matches = candidate_lists(catalog, surfaces, T)
    names = reference_name_lookup(catalog)
    for surface in surfaces:
        assert lists[surface] == reference_list(catalog, surface, T)
        assert name_matches[surface] == reference_name_matches(names, surface)
