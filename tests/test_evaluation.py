import math
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink import evaluation
from eigenlink.dataset import DocumentTask, Mention
from eigenlink.evaluation import (
    BOOTSTRAP_BLOCK_ELEMENTS,
    BUCKETS,
    MentionOutcome,
    MetricsReport,
    _Draws,
    _percentile,
    build_outcomes,
    classify,
    metrics_report,
    mutilation,
    read_predictions,
    score_gap,
    write_predictions,
)
from eigenlink.index import CandidateList
from tests.conftest import build_corpus, with_candidates


def outcomes_of(*mentions):
    """build_outcomes over one document of (gold, candidates, ranking) mentions."""
    task = DocumentTask(
        "d",
        [
            Mention("m", gold, candidates=CandidateList(cands, [0] * len(cands)))
            for gold, cands, _ in mentions
        ],
    )
    return build_outcomes(task, [ranking for *_, ranking in mentions], [None] * len(mentions))


def outcome(bucket, gold="g", predicted=None, rank=None):
    return MentionOutcome(
        doc_id="d",
        mention_idx=0,
        surface="m",
        gold_qid=gold,
        predicted_qid=predicted,
        bucket=bucket,
        rank_of_gold=rank,
        predicted_score=None,
    )


# ---------------------------------------------------------------------------
# classify


def test_classify_easy():
    assert classify(["g", "x", "y"], "g") == "easy"


def test_classify_hard():
    cands = [f"c{i}" for i in range(20)]
    cands[4] = "g"
    assert classify(cands, "g") == "hard"


def test_classify_not_found():
    assert classify(["a", "b"], "g") == "not_found"


# ---------------------------------------------------------------------------
# precision@1 / MRR


def p1(outs, bucket="overall"):
    return metrics_report(outs).precision_at_1[bucket]


def mrr(outs, bucket="overall"):
    return metrics_report(outs).mrr[bucket]


def test_p1_all_correct():
    outs = [outcome("easy", predicted="g", rank=1) for _ in range(5)]
    assert p1(outs) == 1.0


def test_p1_only_not_found():
    outs = [outcome("not_found") for _ in range(4)]
    assert p1(outs) == 0.0


def test_p1_ten_mention_fixture():
    outs = (
        [outcome("easy", predicted="g", rank=1) for _ in range(4)]
        + [outcome("hard", predicted="g", rank=1) for _ in range(2)]
        + [outcome("hard", predicted="x", rank=3) for _ in range(2)]
        + [outcome("not_found") for _ in range(2)]
    )
    assert p1(outs) == pytest.approx(0.6)


def test_mrr_gold_always_second():
    outs = [outcome("hard", predicted="x", rank=2) for _ in range(3)]
    assert mrr(outs) == pytest.approx(0.5)


def test_mrr_absent_gold_contributes_zero():
    outs = [outcome("hard", predicted="x", rank=1), outcome("not_found")]
    assert mrr(outs) == pytest.approx(0.5)


def test_mrr_hand_fixture():
    outs = [
        outcome("easy", predicted="g", rank=1),
        outcome("hard", predicted="x", rank=2),
        outcome("hard", predicted="x", rank=4),
        outcome("not_found"),
    ]
    assert mrr(outs) == pytest.approx(0.4375)


def test_mrr_at_least_p1_per_bucket():
    rng = np.random.default_rng(3)
    outs = []
    for _ in range(200):
        bucket = rng.choice(["easy", "hard", "not_found"])
        if bucket == "not_found":
            outs.append(outcome("not_found", predicted="x"))
        else:
            rank = int(rng.integers(1, 6))
            predicted = "g" if rank == 1 else "x"
            outs.append(outcome(bucket, predicted=predicted, rank=rank))
    for bucket in ("overall", "easy", "hard"):
        assert mrr(outs, bucket) >= p1(outs, bucket) - 1e-12


def test_unlabeled_mentions_excluded():
    outs = [outcome("easy", predicted="g", rank=1), outcome(None, gold=None)]
    assert p1(outs) == 1.0
    counts = metrics_report(outs).counts
    assert counts["unlabeled"] == 1
    assert counts["total"] == 1


def test_report_p1_bounded_by_oracle_recall():
    outs = (
        [outcome("easy", predicted="g", rank=1) for _ in range(6)]
        + [outcome("not_found") for _ in range(4)]
    )
    report = metrics_report(outs)
    assert report.precision_at_1["overall"] <= report.oracle_recall
    assert report.oracle_recall == pytest.approx(0.6)


def reference_report(outs):
    """Counts, P@1, MRR and oracle recall from each bucket's own selection."""
    labeled = [o for o in outs if o.bucket is not None]
    selected = {"overall": labeled, **{b: [o for o in labeled if o.bucket == b] for b in BUCKETS}}
    p1s, mrrs = {}, {}
    for bucket in ("overall", "easy", "hard"):
        sel = selected[bucket]
        hits = [o for o in sel if o.predicted_qid is not None and o.predicted_qid == o.gold_qid]
        total = 0.0
        for o in sel:  # left to right, in outcome order
            if o.rank_of_gold is not None:
                total += 1.0 / o.rank_of_gold
        p1s[bucket] = len(hits) / len(sel) if sel else 0.0
        mrrs[bucket] = total / len(sel) if sel else 0.0
    counts = {b: len(selected[b]) for b in BUCKETS}
    counts.update(total=len(labeled), unlabeled=len(outs) - len(labeled))
    found = counts["easy"] + counts["hard"]
    return MetricsReport(counts, p1s, mrrs, found / len(labeled) if labeled else 0.0)


@st.composite
def random_outcome(draw):
    bucket = draw(st.sampled_from([None, *BUCKETS]))
    gold = None if bucket is None else draw(st.sampled_from(["g", "h"]))
    # not_found mentions may carry a rank: namematch ranks its name matches.
    rank = None if bucket is None else draw(st.none() | st.integers(1, 40))
    return outcome(bucket, gold=gold, predicted=draw(st.sampled_from([None, "g", "h"])), rank=rank)


def bits(report):
    """The report's fields, floats as their exact hex spelling."""
    return (
        report.counts,
        {b: v.hex() for b, v in report.precision_at_1.items()},
        {b: v.hex() for b, v in report.mrr.items()},
        report.oracle_recall.hex(),
    )


@settings(max_examples=300, deadline=None)
@given(outs=st.lists(random_outcome(), max_size=60))
def test_metrics_report_is_one_pass_of_the_bucket_definitions(outs):
    want = bits(reference_report(outs))
    assert bits(metrics_report(outs)) == want
    assert bits(metrics_report(o for o in outs)) == want  # read once, as a stream


# ---------------------------------------------------------------------------
# build_outcomes


def test_build_outcomes_records_ranks_and_scores():
    outs = outcomes_of(
        ("g", ["a", "g"], [("a", 2.0), ("g", 1.0)]),
        ("g2", ["g2", "b"], [("g2", 3.0), ("b", 0.5)]),
        ("gx", ["a", "b"], [("a", 1.0), ("b", 0.5)]),
    )
    assert outs[0].bucket == "hard"  # candidates[0] != gold... a is top candidate
    assert outs[0].rank_of_gold == 2
    assert outs[0].gold_score == 1.0
    assert outs[0].nongold_mean == 2.0
    assert outs[1].bucket == "easy"
    assert outs[1].rank_of_gold == 1
    assert outs[2].bucket == "not_found"
    assert outs[2].rank_of_gold is None


def test_build_outcomes_scores_the_prediction_at_the_head_of_the_ranking():
    outs = outcomes_of(
        ("g", ["a", "g"], [("a", 2.5), ("g", 1.0)]),
        (None, ["a"], [("a", -math.inf)]),
        ("g", [], []),
    )
    assert [o.predicted_score for o in outs] == [2.5, None, None]
    assert (outs[1].bucket, outs[1].rank_of_gold, outs[1].nongold_mean) == (None, None, None)
    assert (outs[2].bucket, outs[2].predicted_qid) == ("not_found", None)


def test_build_outcomes_ignores_infinite_scores():
    outs = outcomes_of(("g", ["g", "x"], [("g", 1.0), ("x", -math.inf)]))
    assert outs[0].nongold_mean is None


# ---------------------------------------------------------------------------
# score gap


def gap_outcome(gold_score, nongold_mean):
    o = outcome("hard", predicted="x", rank=2)
    o.gold_score = gold_score
    o.nongold_mean = nongold_mean
    return o


def test_score_gap_equal_scores_zero():
    outs = [gap_outcome(0.5, 0.5) for _ in range(10)]
    report = score_gap(outs, resamples=500, seed=1)
    assert report.mean == pytest.approx(0.0)
    assert report.ci_low == pytest.approx(0.0)
    assert report.ci_high == pytest.approx(0.0)


def test_score_gap_excludes_single_candidate_mentions():
    outs = [gap_outcome(1.0, None)]
    assert score_gap(outs, resamples=10, seed=1) is None


def test_score_gap_positive_with_ci():
    rng = np.random.default_rng(5)
    outs = [gap_outcome(1.0 + rng.uniform(0, 0.2), 0.5 + rng.uniform(0, 0.1)) for _ in range(80)]
    report = score_gap(outs, resamples=2000, seed=2)
    assert report.mean > 0.5
    assert report.ci_low > 0.0
    assert report.n_mentions == 80


def test_score_gap_deterministic():
    outs = [gap_outcome(1.0, 0.4 + 0.01 * i) for i in range(30)]
    r1 = score_gap(outs, resamples=1000, seed=9)
    r2 = score_gap(outs, resamples=1000, seed=9)
    assert (r1.mean, r1.ci_low, r1.ci_high) == (r2.mean, r2.ci_low, r2.ci_high)


def test_score_gap_blocks_match_one_shot_bootstrap():
    rng = np.random.default_rng(6)
    n, resamples = 3001, 1000
    block = BOOTSTRAP_BLOCK_ELEMENTS // n
    assert 1 < block < resamples and resamples % block != 0
    outs = [gap_outcome(1.0 + rng.uniform(0, 0.5), 0.5 + rng.uniform(0, 0.2)) for _ in range(n)]
    report = score_gap(outs, resamples=resamples, seed=4)

    gaps = np.asarray([(o.gold_score - o.nongold_mean) / o.nongold_mean for o in outs])
    idx = _Draws(4, n, resamples * n).take(0, resamples * n).reshape(resamples, n)
    lo, hi = np.percentile(gaps[idx].mean(axis=1), [2.5, 97.5])
    assert (report.mean, report.ci_low, report.ci_high) == (gaps.mean(), lo, hi)


MASK64 = (1 << 64) - 1


def spread_outcomes(n):
    """``n`` outcomes with unequal gaps, all eligible."""
    return [gap_outcome(1.0 + ((i * 37) % 11) / 7, 0.5 + i / 100) for i in range(n)]


def splitmix64_indices(seed, n, first, count):
    """Draws ``first .. first + count - 1`` of the bootstrap stream, in Python ints."""
    out = []
    for j in range(first, first + count):
        z = (seed + (j // 2 + 1) * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        x = z >> 32 if j % 2 else z & 0xFFFFFFFF
        out.append(x * n >> 32)
    return out


def test_draws_match_python_int_splitmix64():
    # SplitMix64's first output from state 0 is 0xE220A8397B1DCDAF.
    assert splitmix64_indices(0, 1 << 32, 0, 2) == [0x7B1DCDAF, 0xE220A839]
    cases = [(0, 7, 0, 11), (5, 1909, 3, 1000), (2**64 - 1, 2**32 - 1, 7, 100), (9, 1, 1, 4)]
    for seed, n, first, count in cases:
        drawn = _Draws(seed, n, count).take(first, count)
        assert drawn.tolist() == splitmix64_indices(seed, n, first, count)


@pytest.mark.parametrize("n,resamples,seed", [(1, 5, 0), (7, 301, 3), (40, 250, 2**63 + 5)])
def test_score_gap_ci_matches_python_int_splitmix64(n, resamples, seed):
    outs = spread_outcomes(n)
    report = score_gap(outs, resamples=resamples, seed=seed)
    gaps = np.asarray([(o.gold_score - o.nongold_mean) / o.nongold_mean for o in outs])
    idx = np.asarray(splitmix64_indices(seed, n, 0, resamples * n)).reshape(resamples, n)
    want = np.percentile(gaps[idx].mean(axis=1), [2.5, 97.5])
    assert [report.ci_low.hex(), report.ci_high.hex()] == [float(w).hex() for w in want]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    resamples=st.integers(1, 120),
    block_elements=st.integers(1, 5000),
    seed=st.integers(0, 2**70),
)
def test_score_gap_ci_does_not_depend_on_the_block_size(n, resamples, block_elements, seed):
    # An odd n with an odd block of resamples starts every other block on an odd draw.
    assert n * resamples <= BOOTSTRAP_BLOCK_ELEMENTS  # the default draws them in one block
    outs = spread_outcomes(n)
    one_shot = score_gap(outs, resamples=resamples, seed=seed)
    with mock.patch.object(evaluation, "BOOTSTRAP_BLOCK_ELEMENTS", block_elements):
        blocked = score_gap(outs, resamples=resamples, seed=seed)
    assert (blocked.ci_low.hex(), blocked.ci_high.hex()) == (
        one_shot.ci_low.hex(),
        one_shot.ci_high.hex(),
    )


# The 0.999 quantiles of chi-square with n - 1 degrees of freedom.
CHI2_999 = {2: 10.828, 3: 13.816, 5: 18.467, 7: 22.458, 10: 27.877}


@pytest.mark.parametrize("n", sorted(CHI2_999))
def test_draws_are_uniform_over_small_n(n):
    count = 100_000
    counts = np.bincount(_Draws(11, n, count).take(0, count), minlength=n)
    assert len(counts) == n
    expected = count / n
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_999[n]


def test_score_gap_seed_is_read_mod_2_to_the_64():
    outs = [gap_outcome(1.0 + i / 10, 0.5) for i in range(9)]
    big = score_gap(outs, resamples=200, seed=2**200 + 3)
    assert big == score_gap(outs, resamples=200, seed=3)
    with pytest.raises(ValueError):
        score_gap(outs, resamples=200, seed=-1)
    with pytest.raises(ValueError):
        _Draws(0, 2**32, 2)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        # + 0.0 folds -0.0 into 0.0: the two tie, and a tie's sign depends on the sort.
        st.floats(-1e300, 1e300).map(lambda v: v + 0.0),
        min_size=1,
        max_size=50,
    ),
    q=st.floats(0.0, 100.0) | st.sampled_from([2.5, 97.5]),
)
def test_percentile_matches_numpy_bit_for_bit(values, q):
    ordered = np.sort(np.asarray(values))
    assert _percentile(ordered, q).hex() == float(np.percentile(ordered, q)).hex()


def test_percentile_matches_numpy_on_bootstrap_means():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 40, 999, 10_000):
        ordered = np.sort(rng.normal(size=n) * rng.uniform(0.1, 10.0))
        want = np.percentile(ordered, [2.5, 97.5])
        assert [_percentile(ordered, q) for q in (2.5, 97.5)] == list(want)


def test_score_gap_does_not_import_numpy_ma():
    # A fresh process: numpy imports numpy.ma lazily, and only once.
    code = (
        "import sys\n"
        "from eigenlink.evaluation import MentionOutcome, score_gap\n"
        "before = 'numpy.ma' in sys.modules\n"
        "o = MentionOutcome('d', 0, 'm', 'g', 'g', 'easy', 1, 1.0, 1.0, 0.5)\n"
        "score_gap([o, o], resamples=100)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    before, after = out.stdout.split()
    assert after == before, out.stderr


# ---------------------------------------------------------------------------
# mutilation


@pytest.fixture(scope="module")
def crossing_corpus(tmp_path_factory):
    # degree starts strong (easy_fraction 0.9) while heavy noise weakens
    # the subspace method; removing easy mentions then flips the order.
    return build_corpus(
        tmp_path_factory,
        "crossing_corpus",
        docs=10,
        mentions_per_doc=5,
        candidates_per_mention=6,
        d=24,
        rank=2,
        noise_amplitude=0.55,
        easy_fraction=0.9,
        seed=41,
    )


def runner_for(corpus, method, **cfg):
    from eigenlink.pipeline import LinkContext, RunConfig, run_documents

    config = RunConfig(method=method, **cfg)
    ctx = LinkContext(config=config, store=corpus.store)
    return lambda docs: run_documents(docs, ctx)


def test_mutilation_full_fraction_is_plain_evaluation(crossing_corpus):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    runner = runner_for(crossing_corpus, "degree")
    by_fraction = mutilation(docs, runner, [1.0], seed=3, repeats=10)
    plain = p1(o for r in runner(docs) for o in r.mentions)
    assert by_fraction[1.0] == plain  # bit-exact


def test_mutilation_degree_zero_at_fraction_zero(crossing_corpus):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    runner = runner_for(crossing_corpus, "degree")
    by_fraction = mutilation(docs, runner, [0.0], seed=3, repeats=3)
    assert by_fraction[0.0] == 0.0


def test_mutilation_eigen_degree_curves_cross(crossing_corpus):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    degree = mutilation(
        docs, runner_for(crossing_corpus, "degree"), [1.0, 0.0], seed=3, repeats=3
    )
    eigen = mutilation(
        docs,
        runner_for(crossing_corpus, "eigen", weighting="none", k=4),
        [1.0, 0.0],
        seed=3,
        repeats=3,
    )
    assert degree[1.0] > eigen[1.0]  # degree looks deceptively strong
    assert degree[0.0] < eigen[0.0]  # and collapses once easy mentions go


def test_mutilation_rejects_bad_fraction(crossing_corpus):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    with pytest.raises(ValueError):
        mutilation(docs, runner_for(crossing_corpus, "degree"), [1.5], seed=0)
    # fractions that agree to 1/1000 would share their draws
    with pytest.raises(ValueError, match="fraction 0.5004 is listed twice"):
        mutilation(docs, runner_for(crossing_corpus, "degree"), [0.5, 0.5004], seed=0)


def naive_mutilation(docs, runner, fractions, seed, repeats):
    """Overall P@1 per fraction, each (fraction, repeat) relinking its whole subset.

    The loop ``mutilation`` ran before it linked each distinct document
    subset once: fraction 1.0 links the unmodified documents once, and
    every other draw drops its dropped easy mentions and the documents
    left without a mention.
    """
    easy_slots = [
        (di, mi)
        for di, doc in enumerate(docs)
        for mi, m in enumerate(doc.mentions)
        if m.gold_qid is not None and classify(m.candidates.candidates, m.gold_qid) == "easy"
    ]
    results = {}
    for f in fractions:
        if f >= 1.0:
            results[f] = p1(o for r in runner(list(docs)) for o in r.mentions)
            continue
        keep = round(f * len(easy_slots))
        values = []
        for rep in range(repeats):
            rng = np.random.default_rng([seed, int(round(f * 1000)), rep])
            kept_idx = rng.choice(len(easy_slots), size=keep, replace=False) if keep else []
            dropped = set(easy_slots).difference(easy_slots[i] for i in kept_idx)
            subsampled = []
            for di, doc in enumerate(docs):
                mentions = [m for mi, m in enumerate(doc.mentions) if (di, mi) not in dropped]
                if mentions:
                    subsampled.append(replace(doc, mentions=mentions))
            values.append(p1(o for r in runner(subsampled) for o in r.mentions))
        results[f] = float(np.mean(values))
    return results


def recording(runner, docs, linked):
    """``runner``, appending each document it links to ``linked`` as (doc index, kept mentions).

    Kept mentions are indices into the full document's mentions, found by
    identity, so two equal mentions are told apart.
    """
    index = {doc.doc_id: di for di, doc in enumerate(docs)}

    def run(subset):
        for doc in subset:
            full = docs[index[doc.doc_id]].mentions
            kept = (next(i for i, m in enumerate(full) if m is mention) for mention in doc.mentions)
            linked.append((index[doc.doc_id], tuple(kept)))
        return runner(subset)

    return run


fraction_lists = st.lists(
    st.integers(0, 1000), min_size=1, max_size=5, unique=True
).map(lambda thousandths: [t / 1000 for t in thousandths])


@settings(max_examples=30, deadline=None)
@given(
    fractions=fraction_lists,
    repeats=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    method=st.sampled_from(["degree", "eigen"]),
)
def test_mutilation_equals_the_per_draw_loop(crossing_corpus, fractions, repeats, seed, method):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    runner = runner_for(crossing_corpus, method, weighting="none", k=4)
    got = mutilation(docs, runner, fractions, seed=seed, repeats=repeats)
    want = naive_mutilation(docs, runner, fractions, seed, repeats)
    assert list(got) == fractions
    assert [got[f].hex() for f in fractions] == [want[f].hex() for f in fractions]


@settings(max_examples=15, deadline=None)
@given(fractions=fraction_lists, repeats=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_mutilation_links_each_distinct_subset_once(crossing_corpus, fractions, repeats, seed):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    runner = runner_for(crossing_corpus, "degree")
    calls, linked, relinked = [], [], []

    def counting(subset):
        calls.append(len(subset))
        return runner(subset)

    mutilation(docs, recording(counting, docs, linked), fractions, seed=seed, repeats=repeats)
    naive_mutilation(docs, recording(runner, docs, relinked), fractions, seed, repeats)
    assert len(calls) == len(fractions)  # one runner call per fraction
    assert len(linked) == len(set(linked))
    assert set(linked) == set(relinked)


def test_mutilation_with_no_mention_left_scores_0(crossing_corpus):
    docs = with_candidates(crossing_corpus.catalog, crossing_corpus.docs)
    only_easy = [
        replace(doc, mentions=[m for m in doc.mentions if m.candidates.candidates[0] == m.gold_qid])
        for doc in docs
    ]
    by_fraction = mutilation(only_easy, runner_for(crossing_corpus, "degree"), [0.0, 1.0])
    assert by_fraction == {0.0: 0.0, 1.0: 1.0}


# ---------------------------------------------------------------------------
# predictions CSV


def test_predictions_roundtrip(tmp_path):
    outs = [
        outcome("easy", predicted="g", rank=1),
        outcome("not_found", predicted="x"),
        outcome(None, gold=None, predicted="y"),
    ]
    for idx, o in enumerate(outs):
        o.mention_idx = idx  # a repeated (doc_id, mention_idx) is rejected on reading
    outs[0].predicted_score = 1.25
    path = tmp_path / "predictions.csv"
    write_predictions(outs, str(path))
    loaded = read_predictions(str(path))
    assert len(loaded) == 3
    assert loaded[0].bucket == "easy"
    assert loaded[0].predicted_score == 1.25
    assert loaded[1].bucket == "not_found"
    assert loaded[2].bucket is None
    assert loaded[2].gold_qid is None
    before = metrics_report(outs)
    after = metrics_report(loaded)
    assert before.precision_at_1 == after.precision_at_1
    assert before.mrr == after.mrr
    assert before.counts == after.counts


def test_bucket_counts_invariant_across_methods(small_corpus):
    _, eigen_outcomes, eigen_report = small_corpus.run("eigen", weighting="none")
    _, degree_outcomes, degree_report = small_corpus.run("degree")
    assert eigen_report.counts == degree_report.counts
    for oe, od in zip(eigen_outcomes, degree_outcomes):
        assert oe.bucket == od.bucket
