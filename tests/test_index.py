import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink.index import (
    build_index,
    generate_candidates,
    oracle_recall,
    record_tokens,
    tokenize,
)
from tests.conftest import make_catalog


def test_tokenize_whitespace():
    assert tokenize("Michael Jordan") == ["michael", "jordan"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_and_digits():
    assert tokenize("U.S.-based AI (2021)") == ["u", "s", "based", "ai", "2021"]


def test_tokenize_underscore_splits():
    assert tokenize("foo_bar") == ["foo", "bar"]


# Letters whose lowercase depends on their neighbours or changes length,
# joiners and marks, beside plain text and the newline record_tokens joins on.
TRICKY = st.sampled_from("aΣσςİIıß\u00ad\u0301\u200d_- .\n1")
TRICKY_TEXT = st.text(alphabet=TRICKY | st.characters())


@settings(max_examples=500, deadline=None)
@given(name=TRICKY_TEXT, aliases=st.lists(TRICKY_TEXT, max_size=3))
def test_record_tokens_are_the_union_of_each_text_tokens(name, aliases):
    expected = set().union(*(tokenize(text) for text in (name, *aliases)))
    assert set(record_tokens(name, aliases)) == expected


@pytest.fixture
def mj_catalog():
    return make_catalog(
        [
            ("Q41421", "Michael Jordan", [], 900),
            ("Q3308285", "Michael Jordan", ["Michael I. Jordan"], 40),
            ("Q2831", "Michael Jackson", ["MJ"], 1200),
        ]
    )


def test_build_index_postings(mj_catalog):
    idx = build_index(mj_catalog)
    assert idx.postings["michael"] == ["Q2831", "Q3308285", "Q41421"]
    assert idx.postings["jordan"] == ["Q3308285", "Q41421"]
    assert idx.postings["jackson"] == ["Q2831"]
    assert idx.postings["mj"] == ["Q2831"]  # alias indexed
    assert idx.vocabulary_size == 5  # michael jordan jackson mj i


def test_candidates_michael_jordan(mj_catalog):
    idx = build_index(mj_catalog)
    got = generate_candidates(idx, mj_catalog, "Michael Jordan", T=20)
    assert got.candidates == ["Q41421", "Q3308285"]  # degree order, no Jackson
    assert not got.truncated


def test_unknown_token_gives_empty(mj_catalog):
    idx = build_index(mj_catalog)
    assert generate_candidates(idx, mj_catalog, "Michael Zzz", T=20).candidates == []


def test_empty_mention_gives_empty(mj_catalog):
    idx = build_index(mj_catalog)
    assert generate_candidates(idx, mj_catalog, "...", T=20).candidates == []


def test_tokens_must_match_single_source():
    # name has "michael smith", alias has "jordan fan": the pair
    # michael+jordan spans two sources and must not match.
    catalog = make_catalog([("Q1", "Michael Smith", ["Jordan Fan"], 10)])
    idx = build_index(catalog)
    assert generate_candidates(idx, catalog, "Michael Jordan", T=5).candidates == []
    assert generate_candidates(idx, catalog, "Jordan Fan", T=5).candidates == ["Q1"]


def test_degree_sort_with_qid_tiebreak_and_truncation():
    catalog = make_catalog(
        [("q1", "acme", [], 5), ("q2", "acme", [], 9), ("q3", "acme", [], 9)]
    )
    idx = build_index(catalog)
    got = generate_candidates(idx, catalog, "acme", T=2)
    assert got.candidates == ["q2", "q3"]
    assert got.truncated


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


def brute_force_match(catalog, mention):
    """Oracle: direct scan, token subset against each name or alias."""
    want = set(tokenize(mention))
    hits = []
    for rec in catalog:
        sources = [rec.name] + rec.aliases
        if any(want <= set(tokenize(src)) for src in sources):
            hits.append(rec.qid)
    return set(hits)


def test_membership_matches_brute_force_scan():
    catalog, vocab, rng = synthetic_catalog()
    idx = build_index(catalog)
    for _ in range(300):
        mention = " ".join(rng.sample(vocab, rng.randint(1, 3)))
        got = generate_candidates(idx, catalog, mention, T=10**9)
        assert set(got.candidates) == brute_force_match(catalog, mention)


def test_determinism():
    catalog, vocab, rng = synthetic_catalog(n=200, seed=3)
    idx = build_index(catalog)
    mentions = [" ".join(rng.sample(vocab, 2)) for _ in range(40)]
    first = [generate_candidates(idx, catalog, m, T=7).candidates for m in mentions]
    second = [
        generate_candidates(build_index(catalog), catalog, m, T=7).candidates
        for m in mentions
    ]
    assert first == second


def test_oracle_recall_perfect():
    catalog = make_catalog([("Q1", "unique name", [], 1)])
    idx = build_index(catalog)
    assert oracle_recall([("unique name", "Q1")], idx, catalog, T=20) == 1.0


def test_oracle_recall_planted_misses():
    catalog, vocab, rng = synthetic_catalog(n=100, seed=9)
    idx = build_index(catalog)
    tasks = []
    for i in range(20):
        rec = catalog.get(f"Q{i}")
        gold = rec.qid if i >= 3 else "Q_absent"  # plant 3 misses
        tasks.append((rec.name, gold))
    assert oracle_recall(tasks, idx, catalog, T=10**9) == pytest.approx(0.85)


def test_oracle_recall_empty_tasks_rejected():
    catalog = make_catalog([("Q1", "x", [], 1)])
    idx = build_index(catalog)
    with pytest.raises(ValueError):
        oracle_recall([], idx, catalog)


def test_recall_monotone_in_T():
    catalog, vocab, rng = synthetic_catalog(n=400, seed=21)
    idx = build_index(catalog)
    tasks = []
    for i in range(120):
        rec = catalog.get(f"Q{rng.randrange(400)}")
        tasks.append((rec.name, rec.qid))
    values = [oracle_recall(tasks, idx, catalog, T=T) for T in (1, 2, 5, 10, 20, 10**9)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_build_index_keeps_only_requested_tokens(mj_catalog):
    idx = build_index(mj_catalog, tokens={"michael", "mj", "absent"})
    assert idx.postings == {"michael": ["Q2831", "Q3308285", "Q41421"], "mj": ["Q2831"]}
    assert build_index(mj_catalog, tokens=set()).vocabulary_size == 0


# Property test: an index restricted to the mention tokens gives the same
# candidate lists as the full index.

WORD = st.sampled_from(["ann", "bob", "cy", "dee", "eve", "Ann", "BOB", "x1", "ü"])
PHRASE = st.lists(WORD, min_size=1, max_size=3).flatmap(
    lambda words: st.sampled_from([" ", "-", ". ", "_"]).map(lambda sep: sep.join(words))
)


@st.composite
def catalogs_and_mentions(draw):
    """(catalog, mention surfaces, T); degrees tie often, some mentions match nothing."""
    rows = []
    for i in range(draw(st.integers(0, 12))):
        name, aliases = draw(PHRASE), draw(st.lists(PHRASE, max_size=2))
        rows.append((f"Q{i}", name, aliases, draw(st.integers(0, 3))))
    surface = st.one_of(PHRASE, st.just("zed ann"), st.just("--"))
    mentions = draw(st.lists(surface, min_size=1, max_size=6))
    return make_catalog(rows), mentions, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(case=catalogs_and_mentions())
def test_restricted_index_gives_full_index_candidates(case):
    catalog, mentions, T = case
    full = build_index(catalog)
    tokens = {tok for mention in mentions for tok in tokenize(mention)}
    restricted = build_index(catalog, tokens)
    assert set(restricted.postings) <= tokens
    for mention in mentions:
        want = generate_candidates(full, catalog, mention, T)
        assert generate_candidates(restricted, catalog, mention, T) == want
