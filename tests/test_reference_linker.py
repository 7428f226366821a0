"""`eigenlink link` against a plain linker written from PAPER.md and the README.

The reference reads the raw files itself. Candidates come from the
one-pass brute-force oracle in tests/test_index.py, ``reference_lists``,
made once per corpus. Then, per document:

- each mention's context vector is the mean word vector of the document
  tokens within ``window`` positions of the mention's own, which is not
  one of them (local), or of the document's ``nouns``, else of its
  tokens whose lowercase form is not a function word (global; the
  function words are ``weighting.STOPWORDS``, read as data); tokens
  without a word vector add nothing, and a context without any is empty;
- a description's vector is the mean word vector of its tokens, split
  as mentions are; a description without a known word has none;
- the document matrix is the union of the mentions' candidates that have
  an embedding, as unit rows, each weighted by the largest weight it earns
  from any mention: 1 under ``none``, ``rank**(-delta)`` of its position
  in that mention's list under ``degree_rr``, and of its position when
  the list is ranked by context cosine under ``local_ctxt_rr`` and
  ``global_ctxt_rr``;
- ``eigen`` scores a unit row e by ``||(e V_k) * sigma_k||``, from the thin
  SVD of the weighted rows, with the directions whose
  ``sigma_i**2 <= 1e-10 * sigma_1**2`` dropped and at most k kept;
- ``avg`` scores it by its cosine with the weighted centroid, 0 when the
  centroid is (near) zero;
- a candidate without an embedding scores -inf;
- ``local`` and ``global`` score each candidate by the cosine of its
  description vector with the mention's context vector, -inf without a
  description vector; an empty context scores every candidate 0, so the
  context ranking of a ``*_ctxt_rr`` weighting is then the degree order;
- ``degree`` scores each candidate by its degree, and ``namematch`` does
  the same over the mention's exact name matches.

Each pool is ranked by score, descending, ties keeping degree order. An
``eigen``, ``avg``, ``local`` or ``global`` pool without a finite,
non-zero score is ranked by degree alone.
"""

import csv
import importlib.util
import json
import math
import os
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenlink.cli import main
from eigenlink.pipeline import METHODS, RunConfig
from eigenlink.synth import SynthConfig, generate
from eigenlink.weighting import STOPWORDS
from eigenlink.index import candidate_lists
from eigenlink.kg import catalog_lines
from tests.test_index import (
    reference_lists,
    reference_name_lookup,
    reference_name_matches,
)

# Scores agree within this relative tolerance. Where two scores of one
# ranking lie closer than it, but are not equal, the order of those two
# is not compared.
SCORE_RTOL = 1e-9
RANK_TOL = 1e-10
# Each method with the weightings it is compared under: local, global,
# degree and namematch read no weighting.
WEIGHTINGS = ("none", "degree_rr", "local_ctxt_rr", "global_ctxt_rr")
RUNS = [
    *((method, w) for method in ("eigen", "avg") for w in WEIGHTINGS),
    *((method, w) for method in ("degree", "namematch") for w in WEIGHTINGS[:2]),
    ("local", "none"),
    ("global", "none"),
]
CONTEXT_MODE = {"local_ctxt_rr": "local", "global_ctxt_rr": "global"}


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [
        SimpleNamespace(
            qid=row["qid"], name=row["name"], aliases=row.get("aliases", []),
            degree=row.get("degree", 0),
        )
        for row in rows
    ]


def read_vectors(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return {
            parts[0]: np.array([float(v) for v in parts[1:]])
            for parts in map(str.split, fh)
            if parts
        }


def mean_vector(tokens, words):
    """The mean of the tokens' word vectors, or None when no token has one."""
    vecs = [words[t] for t in tokens if t in words]
    return np.mean(vecs, axis=0) if vecs else None


def read_descriptions(path, words):
    """Each description's vector: the mean word vector of its lowercased alphanumeric runs."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    vectors = {}
    for row in rows:
        vec = mean_vector(re.findall(r"[^\W_]+", row["description"].lower()), words)
        if vec is not None:
            vectors[row["qid"]] = vec
    return vectors


def context_vector(doc, mention, words, mode, window):
    tokens = doc["tokens"]
    if mode == "global":
        nouns = doc.get("nouns", [t for t in tokens if t.lower() not in STOPWORDS])
        return mean_vector(nouns, words)
    at = mention.get("position", 0)
    return mean_vector(tokens[max(0, at - window) : at] + tokens[at + 1 : at + window + 1], words)


def unit(v):
    norm = math.sqrt(float(v @ v))
    return v / norm if norm > 1e-12 else v


def cosine(a, b):
    return float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))


def context_pool(candidates, context, descriptions):
    """(qid, cosine of its description with the context), in degree order.

    An empty context scores every candidate 0; otherwise a candidate
    without a description vector scores -inf.
    """
    if context is None:
        return [(qid, 0.0) for qid in candidates]
    return [
        (qid, cosine(descriptions[qid], context) if qid in descriptions else -math.inf)
        for qid in candidates
    ]


def ranked(pool):
    """The pool's qids by score descending, ties keeping degree order."""
    return [qid for qid, _ in sorted(pool, key=lambda pair: -pair[1])]


def entity_scores(method, orders, vectors, weighting, k, delta):
    """Each embedded candidate's score in one document.

    ``orders`` gives each mention's candidates in the order its weights
    are read from.
    """
    weight = {}
    for order in orders:
        for rank, qid in enumerate(order, 1):
            if qid in vectors:
                w = 1.0 if weighting == "none" else rank ** (-delta)
                weight[qid] = max(weight.get(qid, w), w)
    if not weight:
        return {}
    ids = list(weight)
    rows = np.array([unit(vectors[qid]) for qid in ids])
    w = np.array([weight[qid] for qid in ids])
    if method == "eigen":
        _, sigma, vt = np.linalg.svd(w[:, None] * rows, full_matrices=False)
        kept = 0 if sigma[0] <= 0 else min(k, int(np.sum(sigma**2 > RANK_TOL * sigma[0] ** 2)))
        scores = [float(np.linalg.norm((e @ vt[:kept].T) * sigma[:kept])) for e in rows]
    else:
        centroid = (w[:, None] * rows).sum(axis=0) / w.sum()
        c = math.sqrt(float(centroid @ centroid))
        scores = [
            0.0 if c <= 1e-12 or not e.any() else float(e @ centroid) / (np.linalg.norm(e) * c)
            for e in rows
        ]
    return dict(zip(ids, scores))


def read_corpus(corpus, T):
    """The raw files of ``corpus``, read once for every run over it, and each surface's list."""
    records = read_records(f"{corpus}/catalog.jsonl")
    words = read_vectors(f"{corpus}/words.txt")
    with open(f"{corpus}/dataset.jsonl", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    return SimpleNamespace(
        docs=docs,
        degree={r.qid: r.degree for r in records},
        candidates=reference_lists(records, {m["surface"] for d in docs for m in d["mentions"]}, T),
        names=reference_name_lookup(records),
        vectors=read_vectors(f"{corpus}/embeddings.txt"),
        words=words,
        descriptions=read_descriptions(f"{corpus}/descriptions.jsonl", words),
    )


def reference_link(raw, method, weighting, k, delta, window):
    """{(doc_id, mention index): (predicted qid, bucket, rank of gold, ranking)}.

    ``raw`` is the corpus as ``read_corpus`` reads it.
    """
    mode = method if method in ("local", "global") else CONTEXT_MODE.get(weighting)
    out = {}
    for doc in raw.docs:
        lists = [raw.candidates[m["surface"]] for m in doc["mentions"]]
        contexts = [
            mode and context_vector(doc, m, raw.words, mode, window) for m in doc["mentions"]
        ]
        if method in ("eigen", "avg"):
            orders = [
                ranked(context_pool(cl.candidates, c, raw.descriptions)) if mode else cl.candidates
                for cl, c in zip(lists, contexts)
            ]
            score_of = entity_scores(method, orders, raw.vectors, weighting, k, delta)
        for i, (m, cl, context) in enumerate(zip(doc["mentions"], lists, contexts)):
            if method == "namematch":
                pool = reference_name_matches(raw.names, m["surface"]).candidates
            else:
                pool = cl.candidates
            if method in ("degree", "namematch"):
                scored = [(qid, float(raw.degree[qid])) for qid in pool]
            elif method in ("local", "global"):
                scored = context_pool(pool, context, raw.descriptions)
            else:
                scored = [(qid, score_of.get(qid, -math.inf)) for qid in pool]
            if method in ("degree", "namematch") or any(
                math.isfinite(s) and s != 0.0 for _, s in scored
            ):
                scored.sort(key=lambda pair: -pair[1])
            gold = m.get("gold_qid")
            order = [qid for qid, _ in scored]
            bucket = None
            if gold is not None:
                found = gold in cl.candidates
                bucket = "not_found" if not found else "easy" if cl.candidates[0] == gold else "hard"
            rank = order.index(gold) + 1 if gold in order else None
            out[doc["doc_id"], i] = (order[0] if order else None, bucket, rank, scored)
    return out


def near_tie(a, b, exact):
    """Two scores too close to order: computed scores within the tolerance of each other.

    Equal ``exact`` scores (degrees) keep degree order, and -inf, which
    marks a candidate without an embedding, is exact too.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    if a == b:
        return not exact
    return abs(a - b) <= SCORE_RTOL * max(abs(a), abs(b))


def read_run(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return {(row["doc_id"], int(row["mention_idx"])): row for row in csv.DictReader(fh)}


def check_run(got, want, exact):
    """Compare one run's predictions.csv rows with the reference's outcomes.

    ``exact`` says whether the scores are degrees rather than computed.
    """
    assert got.keys() == want.keys()
    for key, (predicted, bucket, rank, scored) in want.items():
        row = got[key]
        assert row["bucket"] == (bucket or ""), key
        scores = [s for _, s in scored]
        if scored:
            score = float(row["score"]) if row["score"] else None
            top = scores[0] if math.isfinite(scores[0]) else None
            assert (score is None) == (top is None), key
            if top is not None:
                assert math.isclose(score, top, rel_tol=SCORE_RTOL, abs_tol=1e-12), key
        if not (len(scores) > 1 and near_tie(scores[0], scores[1], exact)):
            assert row["predicted_qid"] == (predicted or ""), key
        # A rank is compared when no two scores down to one past it are a near tie.
        depth = rank if rank is not None else len(scores)
        if not any(near_tie(a, b, exact) for a, b in zip(scores[:depth], scores[1 : depth + 1])):
            assert row["rank_of_gold"] == ("" if rank is None else str(rank)), key


@st.composite
def corpora(draw):
    """Synth settings plus extra entities named after mentions, and the documents' nouns.

    An extra has a zero vector, a random one or none, so pools hold
    candidates without embeddings, and a description of known words, of
    unknown ones or none; a "solo" mention added to a document has only
    extras as candidates, often none with an embedding or description.
    The documents carry no nouns, some of their tokens, or none at all.
    Function words in mixed case, each with a word vector, take the place
    of some document tokens.
    """
    synth = {
        "docs": draw(st.integers(1, 3)),
        "mentions_per_doc": draw(st.integers(1, 4)),
        "candidates_per_mention": draw(st.integers(2, 5)),
        "d": draw(st.sampled_from([4, 6, 8])),
        "rank": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 10_000)),
        "easy_fraction": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "miss_fraction": draw(st.sampled_from([0.0, 0.3])),
        "doc_length": 12,
        "vocab_size": 20,
        "word_dim": 2,
    }
    extras = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # named after a new solo mention, or after an existing one
                st.integers(0, 20),  # which mention
                st.sampled_from(["{}", "{} ", "  {}"]),
                st.booleans(),  # upper case
                st.sampled_from([0, 10, 20, 45]),
                st.sampled_from([None, "zero", "random"]),
                st.sampled_from([None, "known", "unknown"]),  # description
            ),
            max_size=5,
        )
    )
    nouns = draw(st.sampled_from([None, "some", "empty"]))
    function_words = draw(
        st.lists(
            st.tuples(st.integers(0, 50), st.sampled_from(["The", "the", "IN", "Of", "and"])),
            max_size=4,
        )
    )
    run = {
        "T": draw(st.integers(1, 6)),
        "k": draw(st.integers(1, 4)),
        "delta": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "window": draw(st.integers(1, 3)),
    }
    return synth, (extras, nouns, function_words), run


def write_corpus(path, synth, additions):
    extras, nouns, function_words = additions
    if os.path.isdir(path):
        shutil.rmtree(path)
    config = ",".join(f"{key}={value}" for key, value in synth.items())
    assert main(["synth", "--config", config, "--out", path]) == 0
    with open(f"{path}/dataset.jsonl", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    with open(f"{path}/embeddings.txt", encoding="utf-8") as fh:
        header, *vectors = fh.readlines()
    dim = int(header.split()[1])
    rng = np.random.default_rng(synth["seed"])
    catalog, descriptions = [], []
    for n, (solo, which, spelling, upper, degree, vector, about) in enumerate(extras):
        if solo:
            surface = f"solo{which % 2}"
            doc = docs[which % len(docs)]
            if all(m["surface"] != surface for m in doc["mentions"]):
                gold = f"X{n}" if which % 3 else None
                doc["mentions"].append({"surface": surface, "gold_qid": gold, "position": 0})
        else:
            mentions = [m for doc in docs for m in doc["mentions"]]
            surface = mentions[which % len(mentions)]["surface"]
        name = spelling.format(surface.upper() if upper else surface)
        catalog.append({"qid": f"X{n}", "name": name, "degree": degree})
        if vector is not None:
            values = np.zeros(dim) if vector == "zero" else rng.standard_normal(dim)
            vectors.append(f"X{n} " + " ".join(repr(float(v)) for v in values) + "\n")
        if about is not None:
            text = f"W{n:03d}, w{which % 20:03d}." if about == "known" else "no such words"
            descriptions.append({"qid": f"X{n}", "description": text})
    with open(f"{path}/words.txt", encoding="utf-8") as fh:
        word_header, *word_vectors = fh.readlines()
    word_dim = int(word_header.split()[1])
    for at, word in function_words:
        doc = docs[at % len(docs)]
        doc["tokens"][at % len(doc["tokens"])] = word
        if not any(line.startswith(word + " ") for line in word_vectors):
            values = rng.standard_normal(word_dim)
            word_vectors.append(word + " " + " ".join(repr(float(v)) for v in values) + "\n")
    with open(f"{path}/words.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{len(word_vectors)} {word_dim}\n")
        fh.writelines(word_vectors)
    for doc in docs:
        if nouns is not None:
            doc["nouns"] = doc["tokens"][::3] if nouns == "some" else []
    for name, rows in (("catalog", catalog), ("descriptions", descriptions)):
        with open(f"{path}/{name}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
    with open(f"{path}/embeddings.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        fh.writelines(vectors)
    with open(f"{path}/dataset.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)


# An avg or eigen pool of a candidate without an embedding and one with a
# zero vector has no signal, so degree order ranks it.
NO_SIGNAL = (
    {"docs": 1, "mentions_per_doc": 1, "candidates_per_mention": 2, "d": 4, "rank": 1,
     "seed": 0, "easy_fraction": 0.0, "miss_fraction": 0.0, "doc_length": 12,
     "vocab_size": 20, "word_dim": 2},
    ([(True, 0, "{}", False, 0, None, None), (True, 0, "{}", False, 0, "zero", "known")], None,
     []),
    {"T": 2, "k": 1, "delta": 0.5, "window": 1},
)


# An empty global context beside a top-degree candidate without a description.
NO_CONTEXT = (
    NO_SIGNAL[0],
    ([(True, 0, "{}", False, 45, None, None), (True, 0, "{}", False, 0, "random", "known")],
     "empty", []),
    NO_SIGNAL[2],
)


def check_all_runs(corpus, root, run, runs=RUNS):
    """Link ``corpus`` with every entry of ``runs`` and compare each with the reference."""
    raw = read_corpus(corpus, run["T"])
    for method, weighting in runs:
        out = str(root / f"{method}-{weighting}")
        args = ["link", "--method", method, "--weighting", weighting, "--out", out]
        for flag in ("dataset", "catalog", "descriptions"):
            args += [f"--{flag}", f"{corpus}/{flag}.jsonl"]
        args += ["--embeddings", f"{corpus}/embeddings.txt", "--words", f"{corpus}/words.txt"]
        args += [arg for key, value in run.items() for arg in (f"--{key}", str(value))]
        assert main(args) == 0
        settings = {key: value for key, value in run.items() if key != "T"}
        want = reference_link(raw, method, weighting, **settings)
        check_run(read_run(f"{out}/predictions.csv"), want, method in ("degree", "namematch"))


@settings(max_examples=25, deadline=None)
@given(case=corpora())
@example(case=NO_SIGNAL)
@example(case=NO_CONTEXT)
def test_link_agrees_with_the_reference_linker(tmp_path_factory, case):
    synth, additions, run = case
    root = tmp_path_factory.getbasetemp() / "reference_linker"
    corpus = str(root / "corpus")
    write_corpus(corpus, synth, additions)
    check_all_runs(corpus, root, run)


def bench_workloads():
    """perfbench's workload table, loaded from perfbench/workloads.py by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["eigen-d64", "eigen-d300-ctx"])
def test_link_agrees_with_the_reference_linker_on_bench_corpora(tmp_path, name):
    corpus = str(tmp_path / "corpus")
    generate(SynthConfig(seed=1, **bench_workloads()[name]["synth"]), corpus)
    defaults = RunConfig()
    run = {key: getattr(defaults, key) for key in ("T", "k", "delta", "window")}
    check_all_runs(corpus, tmp_path, run)


@pytest.fixture(scope="module")
def bulk_avg(tmp_path_factory):
    """bulk-avg's corpus, seed 1: 80,000 entities, and its 250-document slice as the dataset."""
    workload = bench_workloads()["bulk-avg"]
    corpus = str(tmp_path_factory.mktemp("bulk_avg") / "corpus")
    generate(SynthConfig(seed=1, **workload["synth"]), corpus)
    with open(f"{corpus}/dataset.jsonl", encoding="utf-8") as fh:
        docs = [line for line, _ in zip(fh, range(workload["slice_docs"]))]
    with open(f"{corpus}/dataset.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(docs)
    return corpus


def test_candidates_agree_with_the_one_pass_reference_on_bulk_avg(bulk_avg):
    with open(f"{bulk_avg}/dataset.jsonl", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    surfaces = {m["surface"] for doc in docs for m in doc["mentions"]}
    assert sum(len(doc["mentions"]) for doc in docs) == 2000
    T = RunConfig().T
    lists, name_matches = candidate_lists(catalog_lines(f"{bulk_avg}/catalog.jsonl"), surfaces, T)
    records = read_records(f"{bulk_avg}/catalog.jsonl")
    assert len(records) == 80_000
    assert lists == reference_lists(records, surfaces, T)
    names = reference_name_lookup(records)
    for surface in surfaces:
        assert name_matches[surface] == reference_name_matches(names, surface)


def test_link_agrees_with_the_reference_linker_on_bulk_avg(bulk_avg, tmp_path):
    """Each of the six methods under the default weighting, and eigen and avg
    under ``none`` and ``local_ctxt_rr``, 2,000 mentions each."""
    defaults = RunConfig()
    run = {key: getattr(defaults, key) for key in ("T", "k", "delta", "window")}
    runs = [(method, defaults.weighting) for method in METHODS]
    runs += [(method, kind) for method in ("eigen", "avg") for kind in ("none", "local_ctxt_rr")]
    check_all_runs(bulk_avg, tmp_path, run, runs)
