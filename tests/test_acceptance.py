"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are echoed again in the terminal summary (see conftest) so they
survive pytest's output capture, e.g. in `pytest -v | tee test_output.txt`.
"""

import time

import numpy as np
import pytest

from eigenlink.eigenthemes import (
    DocumentMatrix,
    build_document_matrix,
    learn_subspace,
    link_document,
    score_candidate,
)
from eigenlink.embeddings import EmbeddingStore
from eigenlink.evaluation import mutilation, score_gap
from eigenlink.index import candidate_lists
from eigenlink.linalg import Subspace, truncated_svd
from eigenlink.pipeline import LinkContext, RunConfig, run_documents
from eigenlink.synth import SynthConfig, generate
from eigenlink.weighting import WeightScheme
from tests.conftest import build_corpus, load_corpus, with_candidates
from tests.test_index import brute_force_match, recall, synthetic_catalog
from tests.test_linalg import (
    bisect_eigenvalues,
    naive_weighted_sscp,
    random_orthonormal,
    reconstruction_error,
)


SUMMARY_LINES: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {status}{suffix}"
    print(line)
    SUMMARY_LINES.append(line)
    assert ok, f"criterion {num} {name} failed{suffix}"


# ---------------------------------------------------------------------------
# Shared end-to-end run on the stock planted corpus (criterion 4 timing
# covers generation plus all three methods, single-threaded).


@pytest.fixture(scope="session")
def planted_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance_corpus"))
    t0 = time.perf_counter()
    manifest = generate(SynthConfig(), out)
    corpus = load_corpus(out, manifest)
    _, eigen_outcomes, eigen_report = corpus.run("eigen", weighting="none")
    _, _, avg_report = corpus.run("avg", weighting="none")
    _, degree_outcomes, degree_report = corpus.run("degree")
    elapsed = time.perf_counter() - t0
    return {
        "corpus": corpus,
        "eigen_outcomes": eigen_outcomes,
        "eigen": eigen_report,
        "avg": avg_report,
        "degree": degree_report,
        "degree_outcomes": degree_outcomes,
        "elapsed": elapsed,
    }


def test_criterion_1_eckart_young_and_bisection_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_margin = 0.0
    worst_sv = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(4, 17))
        k = int(rng.integers(1, min(4, d) + 1))
        E = rng.standard_normal((n, d))
        sub = truncated_svd(E, np.ones(n), k=k)
        err = reconstruction_error(E, sub.basis)
        for _ in range(100):
            Q = random_orthonormal(rng, d, k)
            margin = err - reconstruction_error(E, Q)
            worst_margin = max(worst_margin, margin)

        lam = bisect_eigenvalues(naive_weighted_sscp(E, np.ones(n)), how_many=k)
        expected = np.sqrt(np.maximum(lam, 0.0))
        rel = np.abs(sub.strengths - expected) / expected
        worst_sv = max(worst_sv, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 1e-9 and worst_sv <= 1e-8 and elapsed < 10.0
    report(
        1,
        "Eckart-Young / SVD oracle",
        ok,
        f"worst projection margin {worst_margin:.2e}, worst sv rel err {worst_sv:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_weighted_sscp_identity():
    rng = np.random.default_rng(202)
    worst_elem = 0.0
    worst_vec = 0.0
    pairs = 0
    while pairs < 50:
        n = int(rng.integers(4, 14))
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, d) + 1))
        E = rng.standard_normal((n, d))
        w = rng.uniform(0.1, 2.0, size=n)
        sv = np.linalg.svd(w[:, None] * E, compute_uv=False)
        gaps = np.abs(np.diff(sv[: k + 1])) / sv[0]
        if len(sv) > k and gaps.min() < 1e-3:
            continue  # eigenvector comparison needs separated singular values
        pairs += 1

        full = truncated_svd(E, w, k=d)
        S = (full.basis * full.strengths**2) @ full.basis.T
        worst_elem = max(worst_elem, float(np.abs(S - naive_weighted_sscp(E, w)).max()))

        sub = truncated_svd(E, w, k=k)
        _, _, vt = np.linalg.svd(w[:, None] * E)
        for j in range(sub.rank):
            diff = min(
                float(np.abs(sub.basis[:, j] - vt[j]).max()),
                float(np.abs(sub.basis[:, j] + vt[j]).max()),
            )
            worst_vec = max(worst_vec, diff)
    ok = worst_elem <= 1e-12 and worst_vec <= 1e-8
    report(
        2,
        "weighted SSCP identity",
        ok,
        f"worst element err {worst_elem:.2e}, worst eigenvector err {worst_vec:.2e}",
    )


def test_criterion_3_score_contract():
    rng = np.random.default_rng(303)
    cases = 0
    ok = True
    for _ in range(10_000):
        d = int(rng.integers(2, 21))
        k = int(rng.integers(1, min(4, d) + 1))
        basis = random_orthonormal(rng, d, k)
        strengths = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1]
        sub = Subspace(basis=basis, strengths=strengths)

        e = rng.standard_normal(d)
        e /= np.linalg.norm(e)
        score = score_candidate(sub, e)
        ok &= -1e-12 <= score <= strengths[0] + 1e-10

        j = int(rng.integers(0, k))
        ok &= abs(score_candidate(sub, basis[:, j]) - strengths[j]) <= 1e-10

        x = rng.standard_normal(d)
        x -= basis @ (basis.T @ x)
        norm = np.linalg.norm(x)
        if norm > 1e-8:
            ok &= score_candidate(sub, x / norm) < 1e-10
        cases += 1
        if not ok:
            break
    report(3, "projection score contract", ok, f"{cases} random cases")


def test_criterion_4_planted_end_to_end(planted_run):
    eigen = planted_run["eigen"].precision_at_1["overall"]
    avg = planted_run["avg"].precision_at_1["overall"]
    degree = planted_run["degree"].precision_at_1["overall"]
    counts = planted_run["degree"].counts
    realized_easy = counts["easy"] / counts["total"]
    elapsed = planted_run["elapsed"]
    ok = (
        eigen >= 0.90
        and abs(degree - realized_easy) <= 0.02
        and avg < eigen
        and avg > planted_run["degree"].precision_at_1["hard"]
        and elapsed < 60.0
    )
    report(
        4,
        "planted-subspace end-to-end",
        ok,
        f"eigen {eigen:.3f}, avg {avg:.3f}, degree {degree:.3f} "
        f"(easy fraction {realized_easy:.3f}), {elapsed:.1f}s",
    )


def test_criterion_5_bucket_identities(planted_run, tmp_path_factory):
    degree_report = planted_run["degree"]
    ok = (
        degree_report.precision_at_1["easy"] == 1.0
        and degree_report.precision_at_1["hard"] == 0.0
    )

    # second dataset with not-found mentions: identities must still hold,
    # and full mutilation must drive degree's overall P@1 to exactly 0
    corpus = build_corpus(
        tmp_path_factory,
        "bucket_corpus",
        docs=10,
        mentions_per_doc=6,
        candidates_per_mention=6,
        d=24,
        rank=2,
        miss_fraction=0.25,
        seed=97,
    )
    _, _, miss_report = corpus.run("degree")
    ok &= miss_report.precision_at_1["easy"] == 1.0
    ok &= miss_report.precision_at_1["hard"] == 0.0
    ok &= miss_report.counts["not_found"] > 0

    docs = with_candidates(corpus.catalog, corpus.docs)
    cfg = RunConfig(method="degree")
    ctx = LinkContext(config=cfg)
    runner = lambda subset: run_documents(subset, ctx)
    collapsed = mutilation(docs, runner, [0.0], seed=11, repeats=3)
    ok &= collapsed[0.0] == 0.0
    report(
        5,
        "degree bucket identities",
        ok,
        f"easy {degree_report.precision_at_1['easy']}, hard "
        f"{degree_report.precision_at_1['hard']}, mutilated overall {collapsed[0.0]}",
    )


def test_criterion_6_score_gap(planted_run):
    gap = score_gap(planted_run["eigen_outcomes"], resamples=10_000, seed=17)
    ok = gap is not None and gap.mean > 0.25 and gap.ci_low > 0.0
    report(
        6,
        "gold vs non-gold score gap",
        ok,
        f"mean {gap.mean:.3f}, 95% CI [{gap.ci_low:.3f}, {gap.ci_high:.3f}], "
        f"n={gap.n_mentions}",
    )


def test_criterion_7_invariance_suite(small_corpus, tmp_path):
    rng = np.random.default_rng(71)
    scheme = WeightScheme("none")
    ok = True

    docs = with_candidates(small_corpus.catalog, small_corpus.docs)
    store = small_corpus.store

    # row permutation: candidate scores unchanged within 1e-9
    for doc in docs[:3]:
        dm = build_document_matrix(doc, store, scheme)
        perm = rng.permutation(len(dm.entity_ids))
        dm_perm = DocumentMatrix(
            entity_ids=[dm.entity_ids[i] for i in perm],
            matrix=dm.matrix[perm],
            weights=dm.weights[perm],
        )
        sub = learn_subspace(dm, k=10)
        sub_perm = learn_subspace(dm_perm, k=10)
        for row in dm.matrix[:10]:
            ok &= abs(score_candidate(sub, row) - score_candidate(sub_perm, row)) <= 1e-9

    # global embedding scaling: identical argmax, scores within 1e-9
    scaled = EmbeddingStore(store.dim)
    for qid in store.identifiers():
        scaled.add(qid, store.get(qid) * 123.4)
    for doc in docs:
        r1 = link_document(doc, store, scheme, k=10)
        r2 = link_document(doc, scaled, scheme, k=10)
        for m1, m2 in zip(r1.mentions, r2.mentions):
            ok &= m1.predicted_qid == m2.predicted_qid
            ok &= all(
                q1 == q2 and abs(s1 - s2) <= 1e-9
                for (q1, s1), (q2, s2) in zip(m1.ranking, m2.ranking)
            )

    # basis sign flips: scores bit-identical
    dm = build_document_matrix(docs[0], store, scheme)
    sub = learn_subspace(dm, k=10)
    signs = np.where(rng.random(sub.rank) < 0.5, -1.0, 1.0)
    flipped = Subspace(basis=sub.basis * signs, strengths=sub.strengths)
    for row in dm.matrix:
        ok &= score_candidate(sub, row) == score_candidate(flipped, row)

    # --jobs 1 vs --jobs N: byte-identical CLI artifacts
    from eigenlink.cli import main

    out1, out2 = str(tmp_path / "j1"), str(tmp_path / "j2")
    base = [
        "link",
        "--method",
        "eigen",
        "--weighting",
        "none",
        "--dataset",
        f"{small_corpus.dir}/dataset.jsonl",
        "--catalog",
        f"{small_corpus.dir}/catalog.jsonl",
        "--embeddings",
        f"{small_corpus.dir}/embeddings.txt",
        "--out",
    ]
    ok &= main(base + [out1, "--jobs", "1"]) == 0
    ok &= main(base + [out2, "--jobs", "4"]) == 0
    for name in ("predictions.csv", "metrics.json"):
        with open(f"{out1}/{name}", "rb") as fh1, open(f"{out2}/{name}", "rb") as fh2:
            ok &= fh1.read() == fh2.read()

    report(7, "invariance suite", ok)


@pytest.fixture(scope="module")
def plateau_corpus(tmp_path_factory):
    return build_corpus(
        tmp_path_factory,
        "plateau_corpus",
        docs=25,
        mentions_per_doc=8,
        candidates_per_mention=8,
        d=48,
        rank=3,
        noise_amplitude=0.1,
        seed=23,
    )


@pytest.fixture(scope="module")
def multitopic_corpus(tmp_path_factory):
    return build_corpus(
        tmp_path_factory,
        "multitopic_corpus",
        docs=30,
        mentions_per_doc=6,
        candidates_per_mention=8,
        d=48,
        rank=1,
        subclusters=2,
        noise_amplitude=0.25,
        seed=29,
    )


def test_criterion_8_k_plateau(plateau_corpus, multitopic_corpus):
    plateau = {}
    for k in range(3, 11):
        _, _, rep = plateau_corpus.run("eigen", weighting="none", k=k)
        plateau[k] = rep.precision_at_1["overall"]
    spread = (max(plateau.values()) - min(plateau.values())) * 100

    multi = {}
    for k in (1, 3):
        _, _, rep = multitopic_corpus.run("eigen", weighting="none", k=k)
        multi[k] = rep.precision_at_1["overall"]
    gap = (multi[3] - multi[1]) * 100

    ok = spread < 2.0 and gap >= 5.0
    report(
        8,
        "k-plateau",
        ok,
        f"plateau spread {spread:.2f} pts over k=3..10, multi-topic k1->k3 gap "
        f"{gap:.1f} pts",
    )


def test_criterion_9_candidate_generation_oracle():
    catalog, vocab, rng = synthetic_catalog(n=1000, seed=909)
    mentions = [" ".join(rng.sample(vocab, rng.randint(1, 3))) for _ in range(500)]
    lists, _ = candidate_lists(catalog, mentions, T=10**9)
    ok = all(set(lists[m].candidates) == brute_force_match(catalog, m) for m in mentions)

    tasks = []
    for _ in range(200):
        rec = catalog[rng.randrange(1000)]
        tasks.append((rec.name, rec.qid))
    recalls = [recall(tasks, catalog, T=T) for T in (1, 2, 5, 10, 20, 10**9)]
    ok &= all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
    report(
        9,
        "candidate-generation oracle",
        ok,
        f"500 mentions vs brute force, recall curve {['%.3f' % r for r in recalls]}",
    )
