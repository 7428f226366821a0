"""The shared ranking path against a plain reference of each of its steps.

``mention_weights``, ``build_document_matrix``, ``link_mentions`` and
``build_outcomes`` are written for speed: positional weights come from one
cached tuple, store membership and the sort key make no method call, and
the non-gold mean is one ``np.add.reduce``. The references below are the
straightforward versions (a dict of ``reciprocal_rank_weight`` calls, a
lambda sort key, ``np.mean``), and every record must equal theirs bit for
bit, ``float.hex`` of each float included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink.dataset import DocumentTask, Mention
from eigenlink.eigenthemes import build_document_matrix, link_mentions
from eigenlink.embeddings import EmbeddingStore, unit_normalize_rows
from eigenlink.evaluation import MentionOutcome, build_outcomes, classify
from eigenlink.index import CandidateList
from eigenlink.weighting import (
    WeightScheme,
    context_ranking,
    degree_ranking,
    mention_weights,
    reciprocal_rank_weight,
)

T = 12
QIDS = [f"Q{i}" for i in range(2 * T)]
INF = math.inf

# Few distinct values, so that ties are common, plus the special ones.
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.25, 1.0, -1.0, INF, -INF, math.nan, 5e-324]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)


# ---------------------------------------------------------------------------
# references


def reference_weights(scheme, candidates, context=None, desc_store=None):
    if scheme.kind == "none":
        return {qid: 1.0 for qid in candidates.candidates}
    if scheme.kind == "degree_rr":
        ranking = degree_ranking(candidates)
    else:
        ranking = context_ranking(candidates, context, desc_store)
    return {qid: reciprocal_rank_weight(rank, scheme.delta) for qid, rank in ranking.items()}


def reference_document_matrix(task, store, scheme):
    """Entity ids and weights of a document under a positional scheme."""
    entity_ids, weight_of = [], {}
    for mention in task.mentions:
        weights = reference_weights(scheme, mention.candidates)
        for qid in mention.candidates.candidates:
            if qid not in store:
                continue
            if qid not in weight_of:
                entity_ids.append(qid)
                weight_of[qid] = weights[qid]
            elif weights[qid] > weight_of[qid]:
                weight_of[qid] = weights[qid]
    return entity_ids, np.array([weight_of[qid] for qid in entity_ids], dtype=np.float64)


def reference_rankings(pools, degree_fallback):
    rankings, fallbacks = [], []
    for pool in pools:
        void = not any(math.isfinite(s) and s != 0.0 for _, s in pool)
        fallback = "degree" if pool and void and degree_fallback else None
        rankings.append(pool if fallback else sorted(pool, key=lambda pair: -pair[1]))
        fallbacks.append(fallback)
    return rankings, fallbacks


def _finite(x):
    return x if x is not None and math.isfinite(x) else None


def reference_outcomes(task, rankings, fallbacks):
    outcomes = []
    for idx, (mention, ranking, fallback) in enumerate(zip(task.mentions, rankings, fallbacks)):
        gold = mention.gold_qid
        rank_of_gold = gold_score = None
        nongold = []
        for pos, (qid, score) in enumerate(ranking if gold is not None else (), start=1):
            if qid == gold:
                rank_of_gold, gold_score = pos, _finite(score)
            elif math.isfinite(score):
                nongold.append(score)
        outcomes.append(
            MentionOutcome(
                doc_id=task.doc_id,
                mention_idx=idx,
                surface=mention.surface,
                gold_qid=gold,
                predicted_qid=ranking[0][0] if ranking else None,
                bucket=classify(mention.candidates.candidates, gold) if gold is not None else None,
                rank_of_gold=rank_of_gold,
                predicted_score=_finite(ranking[0][1]) if ranking else None,
                gold_score=gold_score,
                nongold_mean=float(np.mean(nongold)) if nongold else None,
                ranking=ranking,
                fallback=fallback,
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# comparison by bits


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def record(outcome):
    fields = outcome.__dataclass_fields__
    return {name: hexed(getattr(outcome, name)) for name in fields}


def weights_bits(weights):
    return [(qid, w.hex()) for qid, w in weights.items()]


# ---------------------------------------------------------------------------
# strategies


@st.composite
def candidate_lists(draw, max_size=T):
    qids = draw(st.lists(st.sampled_from(QIDS), unique=True, max_size=max_size))
    return CandidateList(qids, [0] * len(qids))


@st.composite
def documents(draw):
    """A document whose mentions' golds are absent, among the candidates or elsewhere."""
    mentions = []
    for i in range(draw(st.integers(1, 5))):
        candidates = draw(candidate_lists())
        golds = [st.none(), st.sampled_from(QIDS)]
        if candidates.candidates:
            golds.append(st.sampled_from(candidates.candidates))
        gold = draw(st.one_of(golds))
        mentions.append(Mention(surface=f"m{i}", gold_qid=gold, position=i, candidates=candidates))
    return DocumentTask(doc_id="d", mentions=mentions)


def scored(draw, qids):
    return [(qid, draw(SCORES)) for qid in qids]


SCHEMES = st.builds(
    WeightScheme,
    kind=st.sampled_from(["none", "degree_rr", "local_ctxt_rr", "global_ctxt_rr"]),
    delta=st.floats(min_value=1e-3, max_value=8.0),
)


def desc_store_of(draw, dim=3):
    """Descriptions for some of the qids, a few of them zero vectors."""
    store = EmbeddingStore(dim)
    for qid in QIDS:
        if draw(st.booleans()):
            values = st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5]), min_size=dim, max_size=dim)
            store.add(qid, draw(values))
    return store


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, T),
    delta=st.floats(min_value=1e-6, max_value=50.0),
    kind=st.sampled_from(["none", "degree_rr"]),
)
def test_positional_weights_equal_a_weight_call_per_rank(n, delta, kind):
    scheme = WeightScheme(kind, delta)
    candidates = CandidateList(QIDS[:n], [0] * n)
    assert weights_bits(mention_weights(scheme, candidates)) == weights_bits(
        reference_weights(scheme, candidates)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), doc=documents(), scheme=SCHEMES)
def test_document_matrix_equals_the_reference(data, doc, scheme):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    store = EmbeddingStore(4)
    for qid in QIDS:
        if data.draw(st.booleans()):
            store.add(qid, rng.standard_normal(4))
    desc_store = desc_store_of(data.draw)
    context = data.draw(st.sampled_from([None, np.zeros(3), np.array([1.0, -0.5, 2.0])]))
    for mention in doc.mentions:
        assert weights_bits(
            mention_weights(scheme, mention.candidates, context, desc_store)
        ) == weights_bits(reference_weights(scheme, mention.candidates, context, desc_store))
    if scheme.kind not in ("none", "degree_rr"):
        return  # build_document_matrix would read the context from the document's tokens
    entity_ids, weights = reference_document_matrix(doc, store, scheme)
    if not entity_ids:
        return
    dm = build_document_matrix(doc, store, scheme)
    assert dm.entity_ids == entity_ids
    assert dm.weights.tobytes() == weights.tobytes()
    assert dm.matrix.tobytes() == unit_normalize_rows(store.rows(entity_ids)).tobytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), doc=documents(), degree_fallback=st.booleans())
def test_link_mentions_equals_the_reference(data, doc, degree_fallback):
    pools = [scored(data.draw, m.candidates.candidates) for m in doc.mentions]
    with np.errstate(over="ignore"):
        result = link_mentions(doc, [list(p) for p in pools], degree_fallback)
        want = reference_outcomes(doc, *reference_rankings(pools, degree_fallback))
    assert [record(o) for o in result.mentions] == [record(o) for o in want]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), doc=documents())
def test_build_outcomes_equals_the_reference(data, doc):
    # Any ranking of distinct qids, in any order, with or without gold.
    orders = [data.draw(st.permutations(m.candidates.candidates)) for m in doc.mentions]
    rankings = [scored(data.draw, order) for order in orders]
    fallbacks = [data.draw(st.sampled_from([None, "degree"])) for _ in doc.mentions]
    with np.errstate(over="ignore"):  # a mean of scores near the float maximum is inf in both
        got = build_outcomes(doc, rankings, fallbacks)
        want = reference_outcomes(doc, rankings, fallbacks)
    assert [record(o) for o in got] == [record(o) for o in want]


def test_the_mean_is_summed_as_np_mean_sums():
    # numpy's pairwise sum of these differs from the exact and the left-to-right sums.
    scores = [-7.3, 6.9, 5.3, -4.9, -0.1, -1.0, 3.0, 5.8, -8.1, -9.4, 6.7]
    doc = DocumentTask("d", [Mention("m", "G", 0, CandidateList(["G"], [0]))])
    ranking = [("G", 1.0)] + [(f"x{i}", s) for i, s in enumerate(scores)]
    (got,) = build_outcomes(doc, [ranking], [None])
    assert got.nongold_mean.hex() == float(np.mean(scores)).hex()
    assert got.nongold_mean != math.fsum(scores) / len(scores)
    assert got.nongold_mean != sum(scores) / len(scores)


def test_ties_keep_pool_order_and_signed_zeros_tie():
    doc = DocumentTask("d", [Mention("m", "b", 0, CandidateList(list("abcde"), [0] * 5))])
    pool = [("a", 0.5), ("b", 1.0), ("c", 0.5), ("d", -0.0), ("e", 0.0)]
    (outcome,) = link_mentions(doc, [pool], degree_fallback=True).mentions
    assert outcome.ranking == [("b", 1.0), ("a", 0.5), ("c", 0.5), ("d", -0.0), ("e", 0.0)]
    assert [math.copysign(1.0, s) for _, s in outcome.ranking[3:]] == [-1.0, 1.0]
