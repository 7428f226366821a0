import math

import numpy as np
import pytest

from eigenlink.baselines import (
    avg_scores,
    degree_baseline,
    link_document_avg,
    link_document_context,
    link_document_degree,
    link_document_namematch,
)
from eigenlink.dataset import Mention
from eigenlink.eigenthemes import DocumentMatrix
from eigenlink.index import CandidateList, candidate_lists
from eigenlink.weighting import WeightScheme, build_description_store
from tests.conftest import make_catalog, make_store, with_candidates
from tests.test_eigenthemes import mention, task, unit

NONE = WeightScheme("none")


def cl(*pairs):
    """A candidate list of (qid, degree) pairs, in the given order."""
    return CandidateList([qid for qid, _ in pairs], [degree for _, degree in pairs])


def name_match(surface, rows):
    """The pool namematch ranks for ``surface`` among the catalog ``rows``."""
    _, name_matches = candidate_lists(make_catalog(rows), [surface])
    return degree_baseline(name_matches[surface])


# ---------------------------------------------------------------------------
# NameMatch


def test_namematch_unique():
    ranking = name_match("Portugal", [("Q45", "Portugal", [], 100), ("Q1", "Spain", [], 90)])
    assert ranking == [("Q45", 100.0)]


def test_namematch_highest_degree_wins():
    rows = [("Q41421", "Michael Jordan", [], 900), ("Q3308285", "Michael Jordan", [], 40)]
    ranking = name_match("Michael Jordan", rows)
    assert [q for q, _ in ranking] == ["Q41421", "Q3308285"]


def test_namematch_no_match():
    assert name_match("Atlantis", [("Q1", "Spain", [], 90)]) == []


def test_namematch_case_and_whitespace_insensitive():
    assert name_match("  new   YORK city ", [("Q1", "New York City", [], 5)]) == [("Q1", 5.0)]


def test_namematch_aliases_only_with_flag():
    assert name_match("The Eternal City", [("Q1", "Rome", ["The Eternal City"], 5)]) == []


def test_namematch_prediction_dominates_matches():
    rng = np.random.default_rng(2)
    rows = [(f"Q{i}", f"name {i % 7}", [], int(rng.integers(0, 1000))) for i in range(50)]
    for i in range(7):
        ranking = name_match(f"name {i}", rows)
        if ranking:
            top_degree = ranking[0][1]
            assert all(top_degree >= deg for _, deg in ranking)


def test_namematch_document_contract():
    catalog = make_catalog([("Q1", "Paris", [], 7)])
    (t,) = with_candidates(catalog, [task("d", [Mention("Paris", "Q1"), Mention("Nowhere", "Q9")])])
    result = link_document_namematch(t)
    assert result.mentions[0].predicted_qid == "Q1"
    assert result.mentions[1].predicted_qid is None


# ---------------------------------------------------------------------------
# Degree


def test_degree_head_of_list():
    ranking = degree_baseline(cl(("q2", 9), ("q3", 5), ("q1", 1)))
    assert [q for q, _ in ranking] == ["q2", "q3", "q1"]
    assert ranking[0] == ("q2", 9.0)


def test_degree_empty_list_no_prediction():
    result = link_document_degree(task("d", [mention("m", None, [])]))
    assert result.mentions[0].predicted_qid is None


def test_degree_zero_degrees_is_not_a_fallback():
    result = link_document_degree(task("d", [mention("m", None, ["q1", "q2"])]))
    assert result.mentions[0].predicted_qid == "q1"
    assert result.mentions[0].fallback is None


def test_degree_deterministic():
    candidates = cl(*((f"q{i}", i) for i in range(9, -1, -1)))
    t = task("d", [Mention("m", None, candidates=candidates)])
    r1 = link_document_degree(t)
    r2 = link_document_degree(t)
    assert r1 == r2


# ---------------------------------------------------------------------------
# Avg


def test_avg_all_rows_equal_u():
    u = unit([1.0, 2.0, 2.0])
    # p and q carry zero weight, so the centroid is that of the two u rows
    dm = DocumentMatrix(
        entity_ids=["a", "b", "p", "q"],
        matrix=np.stack([u, u, unit([1, 0, 0]), unit([0, 0, 1])]),
        weights=np.array([1.0, 1.0, 0.0, 0.0]),
    )
    scores = dict(zip(dm.entity_ids, avg_scores(dm)))
    assert scores["a"] == pytest.approx(1.0)
    assert scores["p"] == pytest.approx(float(unit([1, 0, 0]) @ u))
    assert scores["q"] == pytest.approx(float(unit([0, 0, 1]) @ u))


def test_avg_antipodal_clusters_fall_back_to_degree():
    v = unit([1.0, 1.0, 0.0])
    store = make_store(3, {"a": v, "b": -v})
    t = task("d", [mention("m", None, ["a", "b"])])
    result = link_document_avg(t, store, NONE)
    assert result.mentions[0].predicted_qid == "a"  # degree order kept
    assert result.mentions[0].fallback == "degree"
    assert all(s == 0.0 for _, s in result.mentions[0].ranking)


def test_avg_weighted_centroid():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    dm = DocumentMatrix(
        entity_ids=["a", "b"], matrix=np.stack([e1, e2]), weights=np.array([3.0, 1.0])
    )
    scores = dict(zip(dm.entity_ids, avg_scores(dm)))
    centroid = (3 * e1 + e2) / 4
    assert scores["a"] == pytest.approx(float(e1 @ centroid) / np.linalg.norm(centroid))
    assert scores["a"] > scores["b"]


def test_avg_scores_match_per_row_cosines_bit_for_bit():
    rng = np.random.default_rng(11)
    for n, d in ((1, 24), (17, 64), (80, 300)):
        matrix = rng.standard_normal((n, d))
        matrix /= np.linalg.norm(matrix, axis=1)[:, None]
        matrix[0] = 0.0  # a zero embedding scores 0
        weights = rng.uniform(0.1, 1.0, n)
        dm = DocumentMatrix(entity_ids=[f"e{i}" for i in range(n)], matrix=matrix, weights=weights)
        centroid = (weights[:, None] * matrix).sum(axis=0) / float(np.sum(weights))
        cnorm = math.sqrt(float(centroid @ centroid))
        expected = [
            float(e @ centroid) / (math.sqrt(float(e @ e)) * cnorm) if e.any() else 0.0
            for e in matrix
        ]
        assert avg_scores(dm).tolist() == expected


def test_avg_missing_embedding_ranks_last():
    v = unit([1.0, 0.0])
    store = make_store(2, {"a": v})
    t = task("d", [mention("m", None, ["ghost", "a"])])
    result = link_document_avg(t, store, NONE)
    assert result.mentions[0].predicted_qid == "a"
    assert result.mentions[0].ranking[-1][0] == "ghost"
    assert result.mentions[0].ranking[-1][1] == -math.inf


# ---------------------------------------------------------------------------
# LocalCtxt / GlobalCtxt


@pytest.fixture
def ctx_stores():
    word_store = make_store(3, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]})
    desc_store = build_description_store(
        {"c1": "x", "c2": "y", "c3": "x y"}, word_store
    )
    return word_store, desc_store


def test_local_ctxt_unknown_window_falls_back_to_degree(ctx_stores):
    word_store, desc_store = ctx_stores
    t = task("d", [mention("m", None, ["c1", "c2"], position=1)])
    t.tokens = ["unk1", "m", "unk2"]
    result = link_document_context(t, word_store, desc_store, mode="local", window=1)
    assert result.mentions[0].predicted_qid == "c1"
    assert result.mentions[0].fallback == "degree"


def test_local_ctxt_exact_description_wins(ctx_stores):
    word_store, desc_store = ctx_stores
    t = task("d", [mention("m", None, ["c1", "c2"], position=1)])
    t.tokens = ["y", "m", "y"]  # context = e2 exactly = c2's description
    result = link_document_context(t, word_store, desc_store, mode="local", window=1)
    assert result.mentions[0].predicted_qid == "c2"
    assert dict(result.mentions[0].ranking)["c2"] == pytest.approx(1.0)


def test_local_ctxt_hand_cosines(ctx_stores):
    word_store, desc_store = ctx_stores
    t = task("d", [mention("m", None, ["c1", "c2", "c3"], position=1)])
    t.tokens = ["x", "m", "y"]  # context = (e1+e2)/2
    result = link_document_context(t, word_store, desc_store, mode="local", window=1)
    scores = dict(result.mentions[0].ranking)
    assert scores["c3"] == pytest.approx(1.0)
    assert scores["c1"] == pytest.approx(1 / math.sqrt(2))
    assert scores["c2"] == pytest.approx(1 / math.sqrt(2))
    assert result.mentions[0].predicted_qid == "c3"


def test_global_ctxt_uses_whole_document(ctx_stores):
    word_store, desc_store = ctx_stores
    t = task("d", [mention("m", None, ["c1", "c2"], position=0)])
    t.tokens = ["m"] + ["y"] * 20  # global context = e2 regardless of window
    result = link_document_context(t, word_store, desc_store, mode="global")
    assert result.mentions[0].predicted_qid == "c2"


def test_global_ctxt_empty_context_falls_back(ctx_stores):
    word_store, desc_store = ctx_stores
    t = task("d", [mention("m", None, ["c1", "c2"], position=0)])
    t.tokens = ["the", "of", "m"]
    result = link_document_context(t, word_store, desc_store, mode="global")
    assert result.mentions[0].fallback == "degree"
    assert result.mentions[0].predicted_qid == "c1"


def test_context_candidates_without_descriptions_fall_back_to_degree(ctx_stores):
    word_store, desc_store = ctx_stores
    t = task("d", [mention("m", None, ["c4", "c5"], position=1)])
    t.tokens = ["x", "m", "y"]  # a usable context, but no candidate has a description
    for mode in ("local", "global"):
        result = link_document_context(t, word_store, desc_store, mode=mode, window=1)
        assert result.mentions[0].predicted_qid == "c4"
        assert [s for _, s in result.mentions[0].ranking] == [-math.inf, -math.inf]
        assert result.mentions[0].fallback == "degree"
