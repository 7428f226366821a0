from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import weighting
from eigenlink.dataset import DocumentTask, Mention
from eigenlink.embeddings import EmbeddingStore
from eigenlink.errors import ConfigError, DataError, FormatError, IntegrityError
from eigenlink.index import CandidateList, tokenize
from eigenlink.weighting import (
    STOPWORDS,
    WeightScheme,
    build_description_store,
    context_ranking,
    degree_ranking,
    document_contexts,
    load_descriptions,
    mean_vectors,
    mention_weights,
    reciprocal_rank_weight,
)
from tests.conftest import make_store


def cl(*qids):
    return CandidateList(list(qids), [0] * len(qids))


def test_weight_rank1():
    assert reciprocal_rank_weight(1, 1.0) == 1.0


def test_weight_rank2():
    assert reciprocal_rank_weight(2, 1.0) == 0.5


def test_weight_rank4_delta_half():
    assert reciprocal_rank_weight(4, 0.5) == pytest.approx(0.5)


def test_weight_rejects_rank_below_one():
    with pytest.raises(ValueError):
        reciprocal_rank_weight(0, 1.0)


def test_weights_strictly_decreasing():
    for delta in (0.25, 1.0, 2.0):
        ws = [reciprocal_rank_weight(r, delta) for r in range(1, 11)]
        assert all(a > b for a, b in zip(ws, ws[1:]))


def test_weight_pure_function_of_rank():
    # same rank, same delta -> same value regardless of any list context
    assert reciprocal_rank_weight(3, 1.0) == reciprocal_rank_weight(3, 1.0)


def test_delta_zero_rejected():
    with pytest.raises(ConfigError):
        WeightScheme(kind="degree_rr", delta=0.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        WeightScheme(kind="banana")


def test_none_kind_ignores_delta():
    WeightScheme(kind="none", delta=-1.0)  # no error


def test_degree_ranking_positional():
    assert degree_ranking(cl("q2", "q3", "q1")) == {"q2": 1, "q3": 2, "q1": 3}


def test_degree_ranking_single():
    assert degree_ranking(cl("q9")) == {"q9": 1}


def test_degree_ranking_twenty():
    qids = [f"q{i}" for i in range(20)]
    assert degree_ranking(cl(*qids)) == {q: i + 1 for i, q in enumerate(qids)}


def test_degree_rr_top_candidate_weight_one():
    weights = mention_weights(WeightScheme("degree_rr", 1.0), cl("a", "b", "c"))
    assert weights["a"] == 1.0
    assert weights == {"a": 1.0, "b": 0.5, "c": pytest.approx(1 / 3)}


def test_none_scheme_uniform():
    weights = mention_weights(WeightScheme("none"), cl("a", "b"))
    assert weights == {"a": 1.0, "b": 1.0}


@pytest.fixture
def word_store():
    return make_store(3, {"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})


@pytest.fixture
def desc_store(word_store):
    descriptions = {"c1": "a", "c2": "b", "c3": "a b"}
    return build_description_store(descriptions, word_store)


def test_description_store_mean_of_word_vectors(desc_store):
    assert np.allclose(desc_store.get("c3"), [0.5, 0.5, 0.0])
    assert "unknown" not in desc_store


def one_context(mode, tokens, word_store, position=1, window=5, nouns=None):
    """The context of the one mention, at ``position``, of a document of ``tokens``."""
    task = DocumentTask("d", [Mention("M", position=position)], tokens, nouns)
    (context,) = document_contexts(task, mode, word_store, window)
    return context


def test_context_ranking_hand_cosines(word_store, desc_store):
    # context = mean(a, b) = (e1+e2)/2; cosines: c1 = c2 = 1/sqrt(2), c3 = 1.
    tokens = ["a", "MENTION", "b"]
    context = one_context("local", tokens, word_store, window=1)
    ranking = context_ranking(cl("c1", "c2", "c3"), context, desc_store)
    assert ranking == {"c3": 1, "c1": 2, "c2": 3}  # tie broken by degree order


def test_context_equal_description_ranks_first(word_store, desc_store):
    tokens = ["b", "MENTION", "b"]  # context exactly e2 = c2's description
    context = one_context("local", tokens, word_store, window=1)
    ranking = context_ranking(cl("c1", "c2", "c3"), context, desc_store)
    assert ranking["c2"] == 1


def test_shared_description_falls_back_to_degree_order(word_store):
    desc = build_description_store({q: "a" for q in ("x", "y", "z")}, word_store)
    context = one_context("local", ["a", "M", "b"], word_store, window=1)
    ranking = context_ranking(cl("x", "y", "z"), context, desc)
    assert ranking == {"x": 1, "y": 2, "z": 3}


def test_unknown_context_words_fall_back_to_degree(word_store, desc_store):
    context = one_context("local", ["zz", "M", "yy"], word_store, window=1)
    assert context is None
    ranking = context_ranking(cl("c1", "c2"), context, desc_store)
    assert ranking == {"c1": 1, "c2": 2}


def test_descriptionless_candidates_rank_last(word_store, desc_store):
    context = one_context("local", ["a", "M", "b"], word_store, window=1)
    ranking = context_ranking(cl("nodesc1", "c3", "nodesc2"), context, desc_store)
    assert ranking == {"c3": 1, "nodesc1": 2, "nodesc2": 3}


def test_global_context_uses_noun_approximation(word_store):
    # stopwords are dropped entirely; "a" is one, "b" and "c" are not
    assert one_context("global", ["the", "a", "of"], word_store) is None
    vec = one_context("global", ["c", "the", "c"], word_store)
    assert np.allclose(vec, [0, 0, 1])
    vec = one_context("global", ["a", "b", "c"], word_store)
    assert np.allclose(vec, [0, 0.5, 0.5])


def test_global_context_drops_function_words_in_any_case():
    # a token is noun-ish unless its lowercase form is a stopword
    store = make_store(2, {"The": [1, 0], "IN": [1, 0], "Paris": [0, 1]})
    assert np.allclose(one_context("global", ["The", "Paris", "IN"], store), [0, 1])
    assert one_context("global", ["The", "IN"], store) is None


def test_global_context_explicit_noun_list(word_store):
    vec = one_context("global", ["c", "c"], word_store, nouns=["b"])
    assert np.allclose(vec, [0, 1, 0])


def test_local_context_window(word_store):
    tokens = ["a", "c", "M", "b", "a"]
    vec = one_context("local", tokens, word_store, position=2, window=1)
    assert np.allclose(vec, [0, 0.5, 0.5])  # mean of "c" and "b"


def test_context_scheme_requires_stores():
    with pytest.raises(ConfigError):
        mention_weights(WeightScheme("local_ctxt_rr", 1.0), cl("a"))


def test_context_scheme_weights(word_store, desc_store):
    weights = mention_weights(
        WeightScheme("local_ctxt_rr", 1.0),
        cl("c1", "c2", "c3"),
        context=one_context("local", ["a", "M", "b"], word_store),
        desc_store=desc_store,
    )
    assert weights == {"c3": 1.0, "c1": 0.5, "c2": pytest.approx(1 / 3)}


def test_load_descriptions(tmp_path):
    path = tmp_path / "desc.jsonl"
    path.write_text('{"qid": "Q1", "description": "British author and humorist"}\n')
    assert load_descriptions(str(path)) == {"Q1": "British author and humorist"}


def test_load_descriptions_keeps_only_requested(tmp_path):
    path = tmp_path / "desc.jsonl"
    rows = [f'{{"qid": "Q{i}", "description": "text {i}"}}' for i in (1, 2, 3)]
    path.write_text("\n".join(rows) + "\n")
    assert load_descriptions(str(path), keep={"Q3": "Q3", "Q1": "Q1", "absent": "absent"}) == {
        "Q1": "text 1",
        "Q3": "text 3",
    }
    # a repeat on a dropped line is still an error
    path.write_text("\n".join(rows + [rows[1]]) + "\n")
    with pytest.raises(IntegrityError, match="^line 4: duplicate qid 'Q2'$"):
        load_descriptions(str(path), keep={"Q1": "Q1"})


@pytest.mark.parametrize(
    "rows,error,message",
    [
        (['{"qid": "Q1", "description": "x"}', "[1]"], FormatError, "line 2: a description must"),
        (['{"qid": "Q1", "description": "x"}'] * 2, IntegrityError, "line 2: duplicate qid 'Q1'"),
        (['{"qid": "", "description": "w001"}'], FormatError, "line 1: missing or empty 'qid'$"),
        (['{"qid": "Q1"}'], FormatError, "line 1: need string 'qid' and 'description'$"),
    ],
    ids=["row-list", "repeated-qid", "empty-qid", "no-description"],
)
def test_load_descriptions_rejects_bad_rows(tmp_path, rows, error, message):
    path = tmp_path / "desc.jsonl"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(error, match="^" + message):
        load_descriptions(str(path))


def naive_mean_vector(tokens, word_store):
    """The mean of the known tokens' vectors by one np.mean call: the oracle of the batched means."""
    vecs = [word_store.get(t) for t in tokens]
    vecs = [v for v in vecs if v is not None]
    if not vecs:
        return None
    return np.mean(vecs, axis=0)


def same_bits(got, expected):
    return (got is None and expected is None) or (
        got is not None and expected is not None and got.tobytes() == expected.tobytes()
    )


# Known words, their case variants (known only as written: descriptions are
# lowercased, contexts are not), a stopword and words no store holds.
MEAN_WORDS = ["w0", "w1", "w2", "w3", "the", "Ab", "ab", "W1", "zz", "qq"]
KNOWN_WORDS = ["w0", "w1", "w2", "w3", "the", "Ab", "ab"]


@st.composite
def mean_cases(draw):
    d = draw(st.sampled_from([1, 16, 300]))
    # A step of d floats gathers two rows; 8 * d floats, eight; or the default.
    gather = draw(st.sampled_from([d, 8 * d, weighting._GATHER_FLOATS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-6, 7, (len(KNOWN_WORDS), 1))
    vectors = dict(zip(KNOWN_WORDS, rng.standard_normal((len(KNOWN_WORDS), d)) * scales))
    token_lists = st.lists(st.lists(st.sampled_from(MEAN_WORDS), max_size=24), max_size=30)
    return d, gather, make_store(d, vectors), draw(token_lists)


@settings(max_examples=200, deadline=None)
@given(case=mean_cases(), separator=st.sampled_from([" ", ", ", "-"]))
def test_description_store_has_the_bits_of_one_mean_per_description(case, separator):
    d, gather, word_store, token_lists = case
    descriptions = {f"Q{i}": separator.join(tokens) for i, tokens in enumerate(token_lists)}
    expected = {}
    for qid, text in descriptions.items():
        vec = naive_mean_vector(tokenize(text), word_store)
        if vec is not None:
            expected[qid] = vec
    with patch.object(weighting, "_GATHER_FLOATS", gather):
        store = build_description_store(descriptions, word_store)
    assert list(store.identifiers()) == list(expected)
    assert all(same_bits(store.get(qid), vec) for qid, vec in expected.items())


@settings(max_examples=200, deadline=None)
@given(
    case=mean_cases(),
    positions=st.lists(st.integers(0, 40), max_size=8),
    window=st.integers(0, 12),
)
def test_context_vectors_have_the_bits_of_one_mean(case, positions, window):
    d, gather, word_store, token_lists = case
    doc = [t for tokens in token_lists for t in tokens] or ["zz"]
    mentions = [Mention("M", position=p % len(doc)) for p in positions]
    nouns = token_lists[0] if token_lists else None
    noun_ish = [t for t in doc if t.lower() not in STOPWORDS]
    task = DocumentTask("d", mentions, doc)
    with_nouns = DocumentTask("d", mentions, doc, nouns)
    with patch.object(weighting, "_GATHER_FLOATS", gather):
        local = document_contexts(task, "local", word_store, window)
        global_ = document_contexts(task, "global", word_store, window)
        given_nouns = document_contexts(with_nouns, "global", word_store, window)
    assert len(local) == len(global_) == len(given_nouns) == len(mentions)
    for mention, context in zip(mentions, local):
        p = mention.position
        window_tokens = doc[max(0, p - window) : p] + doc[p + 1 : p + 1 + window]
        assert same_bits(context, naive_mean_vector(window_tokens, word_store))
    expected = naive_mean_vector(noun_ish, word_store)
    assert all(same_bits(context, expected) for context in global_)
    expected = naive_mean_vector(noun_ish if nouns is None else nouns, word_store)
    assert all(same_bits(context, expected) for context in given_nouns)


def test_add_rejects_a_vector_whose_squared_norm_overflows():
    store = EmbeddingStore(2)
    message = "^vector for 'a' has values too large, their squared norm overflows$"
    with pytest.raises(DataError, match=message):
        store.add("a", [1e160, 0.0])
    assert "a" not in store
    store.add("a", [1e154, 0.0])  # 1e308 is finite
    for vector in ([np.inf, 0.0], [np.nan, 0.0], [1e160, -np.inf]):
        with pytest.raises(DataError, match="^vector for 'b' has non-finite values$"):
            store.add("b", vector)


# Components at and around sqrt(max float) ~ 1.34e154, beside any finite float.
COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([9.4e153, -9.4e153, 1.3e154, -1.3e154, 1.34e154, 1e308]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 16]))
def test_every_mean_of_vectors_a_store_accepted_is_finite(data, d):
    store = EmbeddingStore(d)
    for i in range(6):
        try:
            store.add(f"w{i}", data.draw(st.lists(COMPONENTS, min_size=d, max_size=d)))
        except DataError:
            pass
    words = st.sampled_from([f"w{i}" for i in range(6)])
    token_lists = data.draw(st.lists(st.lists(words, max_size=40), max_size=8))
    with np.errstate(over="raise", invalid="raise"):
        kept, means = mean_vectors(token_lists, store)
    assert np.isfinite(means).all()
    known = set(store.identifiers())
    assert kept.tolist() == [i for i, tokens in enumerate(token_lists) if known.intersection(tokens)]
