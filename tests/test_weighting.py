import numpy as np
import pytest

from eigenlink.errors import ConfigError, FormatError, IntegrityError
from eigenlink.index import CandidateList
from eigenlink.weighting import (
    WeightScheme,
    build_description_store,
    context_ranking,
    degree_ranking,
    global_context_vector,
    load_descriptions,
    local_context_vector,
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


def test_context_ranking_hand_cosines(word_store, desc_store):
    # context = mean(a, b) = (e1+e2)/2; cosines: c1 = c2 = 1/sqrt(2), c3 = 1.
    tokens = ["a", "MENTION", "b"]
    context = local_context_vector(tokens, 1, word_store, window=1)
    ranking = context_ranking(cl("c1", "c2", "c3"), context, desc_store)
    assert ranking == {"c3": 1, "c1": 2, "c2": 3}  # tie broken by degree order


def test_context_equal_description_ranks_first(word_store, desc_store):
    tokens = ["b", "MENTION", "b"]  # context exactly e2 = c2's description
    context = local_context_vector(tokens, 1, word_store, window=1)
    ranking = context_ranking(cl("c1", "c2", "c3"), context, desc_store)
    assert ranking["c2"] == 1


def test_shared_description_falls_back_to_degree_order(word_store):
    desc = build_description_store({q: "a" for q in ("x", "y", "z")}, word_store)
    context = local_context_vector(["a", "M", "b"], 1, word_store, window=1)
    ranking = context_ranking(cl("x", "y", "z"), context, desc)
    assert ranking == {"x": 1, "y": 2, "z": 3}


def test_unknown_context_words_fall_back_to_degree(word_store, desc_store):
    context = local_context_vector(["zz", "M", "yy"], 1, word_store, window=1)
    ranking = context_ranking(cl("c1", "c2"), context, desc_store)
    assert ranking == {"c1": 1, "c2": 2}


def test_descriptionless_candidates_rank_last(word_store, desc_store):
    context = local_context_vector(["a", "M", "b"], 1, word_store, window=1)
    ranking = context_ranking(cl("nodesc1", "c3", "nodesc2"), context, desc_store)
    assert ranking == {"c3": 1, "nodesc1": 2, "nodesc2": 3}


def test_global_context_uses_noun_approximation(word_store):
    # stopwords are dropped entirely; "a" is one, "b" and "c" are not
    assert global_context_vector(["the", "a", "of"], word_store) is None
    vec = global_context_vector(["c", "the", "c"], word_store)
    assert np.allclose(vec, [0, 0, 1])
    vec = global_context_vector(["a", "b", "c"], word_store)
    assert np.allclose(vec, [0, 0.5, 0.5])


def test_global_context_drops_function_words_in_any_case():
    # a token is noun-ish unless its lowercase form is a stopword
    store = make_store(2, {"The": [1, 0], "IN": [1, 0], "Paris": [0, 1]})
    assert np.allclose(global_context_vector(["The", "Paris", "IN"], store), [0, 1])
    assert global_context_vector(["The", "IN"], store) is None


def test_global_context_explicit_noun_list(word_store):
    vec = global_context_vector(["c", "c"], word_store, nouns=["b"])
    assert np.allclose(vec, [0, 1, 0])


def test_local_context_window(word_store):
    tokens = ["a", "c", "M", "b", "a"]
    vec = local_context_vector(tokens, 2, word_store, window=1)
    assert np.allclose(vec, [0, 0.5, 0.5])  # mean of "c" and "b"


def test_context_scheme_requires_stores():
    with pytest.raises(ConfigError):
        mention_weights(WeightScheme("local_ctxt_rr", 1.0), cl("a"))


def test_context_scheme_weights(word_store, desc_store):
    weights = mention_weights(
        WeightScheme("local_ctxt_rr", 1.0),
        cl("c1", "c2", "c3"),
        context=local_context_vector(["a", "M", "b"], 1, word_store),
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
    assert load_descriptions(str(path), keep={"Q3", "Q1", "absent"}) == {
        "Q1": "text 1",
        "Q3": "text 3",
    }
    # a repeat on a dropped line is still an error
    path.write_text("\n".join(rows + [rows[1]]) + "\n")
    with pytest.raises(IntegrityError, match="^line 4: duplicate qid 'Q2'$"):
        load_descriptions(str(path), keep={"Q1"})


@pytest.mark.parametrize(
    "rows,error,message",
    [
        (['{"qid": "Q1", "description": "x"}', "[1]"], FormatError, "line 2: a description must"),
        (['{"qid": "Q1", "description": "x"}'] * 2, IntegrityError, "line 2: duplicate qid 'Q1'"),
    ],
    ids=["row-list", "repeated-qid"],
)
def test_load_descriptions_rejects_bad_rows(tmp_path, rows, error, message):
    path = tmp_path / "desc.jsonl"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(error, match="^" + message):
        load_descriptions(str(path))
