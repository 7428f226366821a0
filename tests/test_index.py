import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink.errors import FormatError, IntegrityError
from eigenlink.index import (
    build_index,
    generate_candidates,
    load_index,
    oracle_recall,
    record_tokens,
    save_index,
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


def test_index_save_load_roundtrip(tmp_path, mj_catalog):
    idx = build_index(mj_catalog)
    path = tmp_path / "index.jsonl"
    save_index(idx, str(path))
    loaded = load_index(str(path))
    assert loaded.postings == idx.postings
    assert loaded.vocabulary_size == idx.vocabulary_size


def test_index_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(FormatError):
        load_index(str(path))


def test_build_index_keeps_only_requested_tokens(mj_catalog):
    idx = build_index(mj_catalog, tokens={"michael", "mj", "absent"})
    assert idx.postings == {"michael": ["Q2831", "Q3308285", "Q41421"], "mj": ["Q2831"]}
    assert build_index(mj_catalog, tokens=set()).vocabulary_size == 0


def test_load_index_keeps_only_requested_tokens(tmp_path, mj_catalog):
    path = str(tmp_path / "index.jsonl")
    save_index(build_index(mj_catalog), path)
    tokens = {"jordan", "i", "absent"}
    assert load_index(path, tokens).postings == build_index(mj_catalog, tokens).postings


def index_text(*postings, declared=None):
    count = len(postings) if declared is None else declared
    header = {"format": "eigenlink-index", "version": 1, "vocabulary_size": count}
    return "".join(line + "\n" for line in (json.dumps(header), *postings))


GOOD_POSTING = '{"t": "good", "q": ["Q1"]}'
Q_LIST = "'q' must be a list of strings"
T_STRING = "'t' must be a non-empty string"
TOKEN_SETS = pytest.mark.parametrize("tokens", [None, {"good"}, set()], ids=["all", "good", "none"])


@pytest.mark.parametrize(
    "posting,message",
    [
        ('{"t": "a", "q": "Q1"}', Q_LIST),
        ('{"t": "a", "q": ["Q1", 2]}', Q_LIST),
        ('{"t": "a"}', Q_LIST),
        ('{"q": ["Q1"]}', T_STRING),
        ('{"t": "", "q": []}', T_STRING),
        ('{"t": 7, "q": ["Q1"]}', T_STRING),
        ('["a", ["Q1"]]', "a posting must be a JSON object"),
        ('{"t": "a", "q": [', "invalid JSON"),
    ],
    ids=[
        "q-string",
        "q-non-string-item",
        "q-missing",
        "t-missing",
        "t-empty",
        "t-number",
        "posting-list",
        "posting-bad-json",
    ],
)
@TOKEN_SETS
def test_load_index_rejects_bad_posting(tmp_path, posting, message, tokens):
    # "a" is never a requested token, so each bad line is checked though not kept
    path = tmp_path / "index.jsonl"
    path.write_text(index_text(GOOD_POSTING, posting), encoding="utf-8")
    with pytest.raises(FormatError, match="^line 3: " + re.escape(message)):
        load_index(str(path), tokens)


@TOKEN_SETS
def test_load_index_rejects_repeated_token(tmp_path, tokens):
    path = tmp_path / "index.jsonl"
    path.write_text(index_text('{"t": "a", "q": []}', GOOD_POSTING, '{"t": "a", "q": ["Q2"]}'))
    with pytest.raises(IntegrityError, match="^line 4: repeated token 'a'$"):
        load_index(str(path), tokens)


@pytest.mark.parametrize(
    "text,message",
    [
        (index_text(GOOD_POSTING, declared=2), "header declares 2 tokens but the file has 1"),
        ("[1]\n" + GOOD_POSTING + "\n", "index header must be a JSON object"),
        ("", "invalid JSON"),
    ],
    ids=["count-mismatch", "header-list", "empty-file"],
)
@TOKEN_SETS
def test_load_index_rejects_bad_header(tmp_path, text, message, tokens):
    path = tmp_path / "index.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match="^line 1: " + re.escape(message)):
        load_index(str(path), tokens)


def test_load_index_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_bytes(index_text(GOOD_POSTING, "").encode() + b'{"t": "\xff", "q": []}\n')
    with pytest.raises(FormatError, match="^line 4: not valid UTF-8$"):
        load_index(str(path), {"good"})


# Property test: an index restricted to the mention tokens gives the same
# candidate lists as the full index, built in memory or loaded from a file.

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


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("index_properties") / "index.jsonl")


@settings(max_examples=200, deadline=None)
@given(case=catalogs_and_mentions())
def test_restricted_index_gives_full_index_candidates(index_path, case):
    catalog, mentions, T = case
    full = build_index(catalog)
    tokens = {tok for mention in mentions for tok in tokenize(mention)}
    save_index(full, index_path)
    for restricted in (build_index(catalog, tokens), load_index(index_path, tokens)):
        assert set(restricted.postings) <= tokens
        for mention in mentions:
            want = generate_candidates(full, catalog, mention, T)
            assert generate_candidates(restricted, catalog, mention, T) == want
