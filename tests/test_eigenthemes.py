import dataclasses
import math
import multiprocessing.process
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigenlink import pipeline
from eigenlink.dataset import DocumentTask, Mention
from eigenlink.eigenthemes import (
    DocumentMatrix,
    build_document_matrix,
    learn_subspace,
    link_document,
    score_candidate,
)
from eigenlink.embeddings import EmbeddingStore, load_embeddings, unit_normalize
from eigenlink.errors import ConfigError, DimensionError, EmptyDocumentError
from eigenlink.index import CandidateList
from eigenlink.linalg import Subspace, truncated_svd
from eigenlink.pipeline import METHODS, LinkContext, RunConfig, link_one, run_documents
from eigenlink.weighting import WeightScheme, build_description_store, load_descriptions
from tests.conftest import make_catalog, make_store, with_candidates

NONE = WeightScheme("none")


def mention(surface, gold, cands, position=0):
    return Mention(
        surface=surface,
        gold_qid=gold,
        position=position,
        candidates=CandidateList(list(cands), [0] * len(cands)),
    )


def task(doc_id, mentions):
    return DocumentTask(doc_id=doc_id, mentions=mentions)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def principal_cosines(B, B_hat):
    return np.linalg.svd(B.T @ B_hat, compute_uv=False)


# ---------------------------------------------------------------------------
# build_document_matrix


def test_shared_candidate_appears_once():
    store = make_store(2, {"q5": [1, 0], "q6": [0, 1], "q7": [1, 1]})
    t = task("d", [mention("m1", None, ["q5", "q6"]), mention("m2", None, ["q5", "q7"])])
    dm = build_document_matrix(t, store, NONE)
    assert dm.entity_ids == ["q5", "q6", "q7"]
    assert dm.matrix.shape == (3, 2)


def test_unweighted_scheme_gives_ones():
    store = make_store(2, {"a": [1, 0], "b": [0, 1]})
    dm = build_document_matrix(task("d", [mention("m", None, ["a", "b"])]), store, NONE)
    assert np.array_equal(dm.weights, [1.0, 1.0])


def test_union_of_three_mentions_with_seven_overlaps():
    # A: e0..e19; B: e0..e3 + e20..e35 (4 shared); C: e4..e6 + e36..e52 (3 shared)
    a = [f"e{i}" for i in range(20)]
    b = [f"e{i}" for i in range(4)] + [f"e{i}" for i in range(20, 36)]
    c = [f"e{i}" for i in range(4, 7)] + [f"e{i}" for i in range(36, 53)]
    assert len(set(a) | set(b) | set(c)) == 53
    rng = np.random.default_rng(0)
    store = make_store(4, {q: rng.standard_normal(4) for q in set(a) | set(b) | set(c)})
    t = task("d", [mention("ma", None, a), mention("mb", None, b), mention("mc", None, c)])
    dm = build_document_matrix(t, store, NONE)
    assert len(dm.entity_ids) == 53
    assert dm.matrix.shape == (53, 4)


def test_duplicate_entity_takes_max_weight():
    store = make_store(2, {"x": [1, 0], "y": [0, 1], "z": [1, 1]})
    # x is rank 2 in the first mention (w=0.5) and rank 1 in the second (w=1.0)
    t = task("d", [mention("m1", None, ["y", "x"]), mention("m2", None, ["x", "z"])])
    dm = build_document_matrix(t, store, WeightScheme("degree_rr", 1.0))
    assert dm.weights[dm.entity_ids.index("x")] == 1.0


def test_rows_unit_normalized():
    store = make_store(2, {"a": [3, 4], "b": [0, 0]})
    dm = build_document_matrix(task("d", [mention("m", None, ["a", "b"])]), store, NONE)
    assert np.allclose(dm.matrix[0], [0.6, 0.8])
    assert np.array_equal(dm.matrix[1], [0.0, 0.0])  # zero vector kept as zero


def test_rows_match_per_row_unit_normalize_bit_for_bit():
    rng = np.random.default_rng(12)
    scales = rng.choice([1e-13, 1e-6, 1.0, 1e9], size=(200, 1))
    vectors = {f"q{i}": row for i, row in enumerate(rng.standard_normal((200, 37)) * scales)}
    vectors["q7"] = np.zeros(37)
    store = make_store(37, vectors)
    dm = build_document_matrix(task("d", [mention("m", None, vectors)]), store, NONE)
    want = np.stack([unit_normalize(store.get(qid)) for qid in dm.entity_ids])
    assert dm.entity_ids == list(vectors)
    assert np.array_equal(dm.matrix, want)
    assert not dm.matrix[7].any()


def test_missing_embeddings_excluded():
    store = make_store(2, {"a": [1, 0]})
    dm = build_document_matrix(
        task("d", [mention("m", None, ["a", "ghost"])]), store, NONE
    )
    assert dm.entity_ids == ["a"]


def test_no_embeddable_candidates_is_error():
    store = make_store(2, {})
    with pytest.raises(EmptyDocumentError):
        build_document_matrix(task("d", [mention("m", None, ["ghost"])]), store, NONE)


# ---------------------------------------------------------------------------
# learn_subspace


def test_identical_rows_collapse_to_rank_one():
    u = unit([1.0, 2.0, 2.0])
    store = make_store(3, {f"q{i}": u for i in range(4)})
    t = task("d", [mention("m", None, [f"q{i}" for i in range(4)])])
    sub = learn_subspace(build_document_matrix(t, store, NONE), k=10)
    assert sub.rank == 1
    assert abs(abs(sub.basis[:, 0] @ u) - 1.0) < 1e-10


def test_zero_weights_annihilate_rows():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    dm = DocumentMatrix(entity_ids=["a", "b", "c"], matrix=rows, weights=np.array([1.0, 0.0, 0.0]))
    sub = learn_subspace(dm, k=3)
    assert sub.rank == 1
    assert abs(abs(sub.basis[:, 0] @ rows[0]) - 1.0) < 1e-10


def test_planted_subspace_recovered_within_15_degrees():
    rng = np.random.default_rng(6)
    d = 64
    basis, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    gold_rows = [basis @ unit(rng.standard_normal(3)) for _ in range(10)]
    noise_rows = [0.3 * unit(rng.standard_normal(d)) for _ in range(40)]
    E = np.stack(gold_rows + noise_rows)
    sub = truncated_svd(E, np.ones(50), k=3)
    cosines = principal_cosines(basis, sub.basis)
    assert all(c > math.cos(math.radians(15.0)) for c in cosines)


# ---------------------------------------------------------------------------
# score_candidate


@pytest.fixture
def toy_subspace():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return Subspace(basis=basis, strengths=np.array([2.0, 1.0]))


def test_score_of_first_eigentheme_is_sigma1(toy_subspace):
    assert abs(score_candidate(toy_subspace, np.array([1.0, 0.0, 0.0])) - 2.0) < 1e-10


def test_score_of_orthogonal_vector_is_zero(toy_subspace):
    assert score_candidate(toy_subspace, np.array([0.0, 0.0, 1.0])) < 1e-10


def test_score_hand_arithmetic(toy_subspace):
    got = score_candidate(toy_subspace, np.array([0.6, 0.8, 0.0]))
    assert got == pytest.approx(math.sqrt(2.08), abs=1e-12)  # = 1.442...


def test_score_unscaled_variant(toy_subspace):
    got = score_candidate(toy_subspace, np.array([0.6, 0.8, 0.0]), rescale=False)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_score_sign_flip_invariance(toy_subspace):
    rng = np.random.default_rng(14)
    for _ in range(20):
        e = unit(rng.standard_normal(3))
        base = score_candidate(toy_subspace, e)
        for flip in ([-1, 1], [1, -1], [-1, -1]):
            flipped = Subspace(
                basis=toy_subspace.basis * np.array(flip), strengths=toy_subspace.strengths
            )
            assert score_candidate(flipped, e) == pytest.approx(base, abs=1e-12)


def test_score_rank_zero_subspace(toy_subspace):
    empty = Subspace(basis=np.zeros((3, 0)), strengths=np.zeros(0))
    assert score_candidate(empty, np.array([1.0, 0.0, 0.0])) == 0.0


def test_score_dimension_mismatch(toy_subspace):
    with pytest.raises(DimensionError):
        score_candidate(toy_subspace, np.array([1.0, 0.0]))


def test_stacked_scores_equal_per_row_scores():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n, d = int(rng.integers(1, 40)), int(rng.integers(2, 64))
        E = rng.standard_normal((n, d))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        sub = truncated_svd(E, rng.uniform(0, 1, n), k=int(rng.integers(1, 12)))
        for rescale in (True, False):
            stacked = score_candidate(sub, E, rescale)
            rows = np.array([score_candidate(sub, e, rescale) for e in E])
            assert stacked.shape == (n,)
            assert np.all(np.abs(stacked - rows) <= 1e-15 * np.maximum(1.0, rows))


def test_stacked_scores_rank_zero_subspace():
    empty = Subspace(basis=np.zeros((3, 0)), strengths=np.zeros(0))
    assert np.array_equal(score_candidate(empty, np.eye(3)[:2]), np.zeros(2))


def test_stacked_score_dimension_mismatch(toy_subspace):
    with pytest.raises(DimensionError):
        score_candidate(toy_subspace, np.ones((4, 2)))
    with pytest.raises(DimensionError):
        score_candidate(toy_subspace, np.ones((2, 4, 3)))


# ---------------------------------------------------------------------------
# link_document


def test_forced_choice_single_candidate():
    store = make_store(2, {"only": [1, 0]})
    result = link_document(task("d", [mention("m", "only", ["only"])]), store, NONE)
    assert result.mentions[0].predicted_qid == "only"


def test_no_candidates_no_prediction():
    store = make_store(2, {"a": [1, 0]})
    result = link_document(
        task("d", [mention("m", None, []), mention("m2", None, ["a"])]), store, NONE
    )
    assert result.mentions[0].predicted_qid is None
    assert result.mentions[0].ranking == []


def test_a_fallback_ranks_by_degree_alone():
    # "ghost" has no embedding (-inf) and "zero" a zero vector (0): no signal
    store = make_store(2, {"a": [1, 0], "zero": [0, 0]})
    t = task("d", [mention("m1", None, ["a"]), mention("m2", None, ["ghost", "zero"])])
    result = link_document(t, store, NONE)
    assert result.mentions[1].ranking == [("ghost", -math.inf), ("zero", 0.0)]
    assert result.mentions[1].fallback == "degree"


def test_mention_without_embeddings_falls_back_to_top_degree():
    store = make_store(2, {"a": [1, 0]})
    t = task("d", [mention("m1", None, ["a"]), mention("m2", None, ["ghost1", "ghost2"])])
    result = link_document(t, store, NONE)
    assert result.mentions[1].predicted_qid == "ghost1"  # degree order preserved
    assert result.mentions[1].fallback == "degree"


def test_document_without_any_embeddings_degrades_per_mention():
    store = make_store(2, {})
    t = task("d", [mention("m", "g", ["g", "h"])])
    result = link_document(t, store, NONE)
    assert result.mentions[0].predicted_qid == "g"
    assert result.effective_k is None


def planted_document(rng, d=32, n_mentions=10, n_cands=8, noise=0.3):
    basis, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    store = EmbeddingStore(d)
    mentions = []
    for i in range(n_mentions):
        gold = f"g{i}"
        store.add(gold, basis @ unit(rng.standard_normal(3)) + noise * unit(rng.standard_normal(d)))
        cands = [gold]
        for j in range(n_cands - 1):
            qid = f"n{i}_{j}"
            store.add(qid, rng.standard_normal(d))
            cands.append(qid)
        mentions.append(mention(f"m{i}", gold, cands))
    return task("planted", mentions), store, basis


def test_planted_document_links_gold():
    rng = np.random.default_rng(17)
    t, store, _ = planted_document(rng)
    result = link_document(t, store, NONE, k=3)
    correct = sum(1 for m in result.mentions if m.predicted_qid == m.gold_qid)
    assert correct >= 9


def test_two_mentions_resolve_into_planted_cluster():
    # Fig-1-style topology: an ambiguous person mention and a topic mention
    # both resolve to the science-cluster entities once the document
    # subspace is learned from all candidates jointly.
    cluster = unit([1.0, 1.0, 0.0, 0.0])
    off1 = unit([0.0, 0.0, 1.0, 0.0])
    off2 = unit([0.0, 0.0, 0.0, 1.0])
    store = make_store(
        4,
        {
            "person_sci": unit(cluster + 0.1 * off1),
            "person_sport": off1,
            "topic_sci": unit(cluster - 0.1 * off2),
            "topic_other": off2,
        },
    )
    t = task(
        "d",
        [
            mention("michael jordan", "person_sci", ["person_sport", "person_sci"]),
            mention("science", "topic_sci", ["topic_sci", "topic_other"]),
        ],
    )
    result = link_document(t, store, NONE, k=1)
    assert result.mentions[0].predicted_qid == "person_sci"
    assert result.mentions[1].predicted_qid == "topic_sci"


def test_exact_orthogonal_distractors_give_perfect_linking():
    # Golds live exactly on axes e0..e2 (two per axis, so the gold block
    # dominates); every distractor gets its own axis orthogonal to them.
    d = 24
    store = EmbeddingStore(d)
    mentions = []
    for i in range(6):
        gold = f"g{i}"
        vec = np.zeros(d)
        vec[i % 3] = 1.0
        store.add(gold, vec)
        cands = [gold]
        for j in range(3):
            qid = f"n{i}_{j}"
            vec = np.zeros(d)
            vec[3 + 3 * i + j] = 1.0
            store.add(qid, vec)
            cands.append(qid)
        mentions.append(mention(f"m{i}", gold, cands))
    result = link_document(task("d", mentions), store, NONE, k=3)
    assert all(m.predicted_qid == m.gold_qid for m in result.mentions)
    # distractors are exactly orthogonal to the learned subspace
    for mt, m in zip(mentions, result.mentions):
        scores = dict(m.ranking)
        assert all(scores[q] == 0.0 for q in mt.candidates.candidates if q != m.gold_qid)


def test_collectivity_other_mentions_change_scores():
    store = make_store(
        3,
        {
            "a1": [1, 0, 0],
            "a2": [0, 1, 0],
            "bx": [1, 0.1, 0],
            "by": [0.1, 1, 0],
        },
    )
    base = task("d", [mention("mA", None, ["a1", "a2"]), mention("mB", None, ["bx"])])
    alt = task("d", [mention("mA", None, ["a1", "a2"]), mention("mB", None, ["by"])])
    r1 = link_document(base, store, NONE, k=1)
    r2 = link_document(alt, store, NONE, k=1)
    assert r1.mentions[0].predicted_qid == "a1"
    assert r2.mentions[0].predicted_qid == "a2"
    s1 = dict(r1.mentions[0].ranking)
    s2 = dict(r2.mentions[0].ranking)
    assert s1["a1"] != pytest.approx(s2["a1"], abs=1e-12)


def test_row_order_invariance():
    rng = np.random.default_rng(23)
    t, store, _ = planted_document(rng, d=16, n_mentions=4, n_cands=5)
    dm = build_document_matrix(t, store, NONE)
    perm = rng.permutation(len(dm.entity_ids))
    dm_perm = DocumentMatrix(
        entity_ids=[dm.entity_ids[i] for i in perm],
        matrix=dm.matrix[perm],
        weights=dm.weights[perm],
    )
    sub = learn_subspace(dm, k=3)
    sub_perm = learn_subspace(dm_perm, k=3)
    for _ in range(25):
        e = unit(rng.standard_normal(16))
        assert score_candidate(sub, e) == pytest.approx(
            score_candidate(sub_perm, e), abs=1e-9
        )


def test_scale_invariance_of_predictions():
    rng = np.random.default_rng(31)
    t, store, _ = planted_document(rng, d=16, n_mentions=5, n_cands=5)
    scaled = EmbeddingStore(16)
    for qid in store.identifiers():
        scaled.add(qid, store.get(qid) * 37.5)
    r1 = link_document(t, store, NONE, k=3)
    r2 = link_document(t, scaled, NONE, k=3)
    for m1, m2 in zip(r1.mentions, r2.mentions):
        assert m1.predicted_qid == m2.predicted_qid
        for (q1, s1), (q2, s2) in zip(m1.ranking, m2.ranking):
            assert q1 == q2
            assert s1 == pytest.approx(s2, abs=1e-9)


def test_effective_k_reported():
    u = unit([1.0, 1.0, 0.0])
    store = make_store(3, {"a": u, "b": u, "c": u})
    result = link_document(task("d", [mention("m", None, ["a", "b", "c"])]), store, NONE, k=10)
    assert result.effective_k == 1


def test_degree_weighted_run_still_beats_degree_baseline(default_corpus):
    # the stock weighting scheme injects rank signal that is pure noise on
    # planted data, yet the subspace method must stay ahead of the
    # popularity prior overall
    _, _, weighted = default_corpus.run("eigen", weighting="degree_rr", delta=1.0)
    _, _, degree = default_corpus.run("degree")
    assert (
        weighted.precision_at_1["overall"] > degree.precision_at_1["overall"]
    )
    assert weighted.precision_at_1["hard"] > 0.0


def context_with_every_input(corpus, method) -> LinkContext:
    word_store = load_embeddings(f"{corpus.dir}/words.txt")
    desc_store = build_description_store(
        load_descriptions(f"{corpus.dir}/descriptions.jsonl"), word_store
    )
    return LinkContext(
        config=RunConfig(method=method),
        store=corpus.store,
        word_store=word_store,
        desc_store=desc_store,
    )


@pytest.mark.parametrize("method", METHODS)
def test_shared_ranking_loop_contract(small_corpus, method):
    ctx = context_with_every_input(small_corpus, method)
    for doc in with_candidates(small_corpus.catalog, small_corpus.docs, ctx.config.T):
        for mt, ml in zip(doc.mentions, link_one(doc, ctx).mentions):
            if ml.ranking:
                assert ml.predicted_qid == ml.ranking[0][0]
            else:
                assert ml.predicted_qid is None
            scores = [s for _, s in ml.ranking]
            assert scores == sorted(scores, reverse=True)
            if method != "namematch":
                assert sorted(q for q, _ in ml.ranking) == sorted(mt.candidates.candidates)
            if method in ("degree", "namematch"):
                assert ml.fallback is None


INDEPENDENCE_SETUPS = [(method, "degree_rr") for method in METHODS] + [
    ("eigen", "local_ctxt_rr"),
    ("eigen", "global_ctxt_rr"),
]


@pytest.mark.parametrize("method,weighting", INDEPENDENCE_SETUPS)
def test_linking_a_document_subset_gives_the_full_runs_results(small_corpus, method, weighting):
    ctx = context_with_every_input(small_corpus, method)
    ctx.config.weighting = weighting
    docs = with_candidates(small_corpus.catalog, small_corpus.docs, ctx.config.T)
    full = run_documents(docs, ctx)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, len(docs) - 1), unique=True))
    def check(picked):
        assert run_documents([docs[i] for i in picked], ctx) == [full[i] for i in picked]

    check()


@pytest.mark.parametrize("method", METHODS)
def test_check_inputs_follows_method_table(method):
    cfg = RunConfig(method=method, weighting="degree_rr")
    cfg.check_inputs(set(METHODS[method].inputs))
    if METHODS[method].inputs:
        with pytest.raises(ConfigError):
            cfg.check_inputs(set())
    else:
        cfg.check_inputs(set())


def with_jobs(ctx: LinkContext, jobs: int) -> LinkContext:
    return dataclasses.replace(ctx, config=dataclasses.replace(ctx.config, jobs=jobs))


@pytest.mark.parametrize("method", METHODS)
def test_run_rejects_documents_without_candidates(small_corpus, method, monkeypatch):
    ctx = context_with_every_input(small_corpus, method)
    first, second, *rest = small_corpus.docs
    docs = [*with_candidates(small_corpus.catalog, [first]), second, *rest]

    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_workers)
    for jobs in (1, 2):
        with pytest.raises(ValueError) as info:
            run_documents(docs, with_jobs(ctx, jobs))
        assert str(info.value) == (
            f"document {second.doc_id!r} has mentions without candidates; "
            "call attach_candidates first"
        )


def first_docs(corpus, n: int) -> list[DocumentTask]:
    return with_candidates(corpus.catalog, corpus.docs[:n])


@pytest.mark.parametrize("jobs,workers", [(8, 3), (2, 2)])
def test_run_starts_at_most_one_worker_per_document(small_corpus, recorded_pools, jobs, workers):
    ctx = context_with_every_input(small_corpus, "degree")
    docs = first_docs(small_corpus, 3)
    assert run_documents(docs, with_jobs(ctx, jobs)) == run_documents(docs, ctx)
    assert recorded_pools == [workers]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(jobs=st.integers(1, 2**63 - 1), n=st.integers(0, 5))
def test_any_jobs_starts_one_pool_of_at_most_one_worker_per_document(
    small_corpus, recorded_pools, jobs, n
):
    ctx = LinkContext(config=RunConfig(method="degree"))
    docs = first_docs(small_corpus, n)
    recorded_pools.clear()
    assert run_documents(docs, with_jobs(ctx, jobs)) == run_documents(docs, ctx)
    workers = min(jobs, n)
    assert recorded_pools == ([workers] if workers > 1 else [])


def test_run_takes_its_worker_count_from_the_config(small_corpus, recorded_pools):
    ctx = LinkContext(config=RunConfig(method="degree", jobs=2))
    serial = run_documents(first_docs(small_corpus, 3), with_jobs(ctx, 1))
    assert recorded_pools == []
    assert run_documents(first_docs(small_corpus, 3), ctx) == serial
    assert recorded_pools == [2]


@pytest.mark.parametrize("jobs", [2, 8])
@pytest.mark.parametrize("method", METHODS)
def test_run_links_on_threads_without_child_processes(small_corpus, method, jobs, monkeypatch):
    ctx = context_with_every_input(small_corpus, method)
    docs = first_docs(small_corpus, len(small_corpus.docs))
    serial = run_documents(docs, ctx)

    def no_process(self):
        raise AssertionError("a child process started")

    # every process class, forked or spawned, starts through BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    # switching threads often makes a race on shared state more likely to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_documents(docs, with_jobs(ctx, jobs)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_namematch_link_one_matches_run_documents():
    # "Rome" is a candidate of both; only Q1 has it as its whole name
    catalog = make_catalog([("Q1", "Rome", [], 1), ("Q2", "Rome Italy", [], 5)])
    (doc,) = with_candidates(catalog, [task("d", [Mention("Rome", "Q1")])])
    config = RunConfig(method="namematch")
    (expected,) = run_documents([doc], LinkContext(config=config))
    assert expected.mentions[0].predicted_qid == "Q1"
    assert link_one(doc, LinkContext(config=config)) == expected


def test_namematch_rejects_documents_without_name_matches():
    catalog = make_catalog([("Q1", "Rome", [], 1)])
    (doc,) = with_candidates(catalog, [task("d", [Mention("Rome", "Q1")])], names=False)
    with pytest.raises(ValueError, match="call attach_candidates first"):
        run_documents([doc], LinkContext(config=RunConfig(method="namematch")))
    (result,) = run_documents([doc], LinkContext(config=RunConfig(method="degree")))
    assert result.mentions[0].predicted_qid == "Q1"
