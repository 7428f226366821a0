"""What `link` and `mutilate` keep in memory: each input only while a stage reads it."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eigenlink import baselines, cli, index, kg
from eigenlink.cli import _load_context, build_parser, main
from eigenlink.embeddings import EmbeddingStore
from eigenlink.index import CandidateList, tokenize
from eigenlink.pipeline import METHODS
from eigenlink.weighting import build_description_store
from tests.conftest import read_catalog
from tests.test_index import reference_list, reference_name_lookup, reference_name_matches

CORPUS_CFG = "docs=30,mentions_per_doc=8,candidates_per_mention=10,d=64,seed=5"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("memory_corpus"))
    assert main(["synth", "--config", CORPUS_CFG, "--out", out]) == 0
    return out


def run_args(corpus_dir, out, command="link", method="avg"):
    args = [command, "--methods" if command == "mutilate" else "--method", method]
    for flag, name in [
        ("dataset", "dataset.jsonl"),
        ("catalog", "catalog.jsonl"),
        ("embeddings", "embeddings.txt"),
        ("words", "words.txt"),
        ("descriptions", "descriptions.jsonl"),
    ]:
        args += [f"--{flag}", f"{corpus_dir}/{name}"]
    if command == "mutilate":
        args += ["--fractions", "1.0", "--repeats", "1"]
    return args + ["--jobs", "1", "--out", out]


def test_link_releases_the_inputs_before_the_bootstrap(corpus_dir, tmp_path, monkeypatch):
    seen = {}
    load_embeddings, score_gap = cli.load_embeddings, cli.score_gap

    def loading(*args, **kwargs):
        store = load_embeddings(*args, **kwargs)
        seen["after_load"] = tracemalloc.get_traced_memory()[0]
        seen["matrix"] = len(store) * store.dim * 8
        return store

    def bootstrapping(*args, **kwargs):
        seen["at_bootstrap"] = tracemalloc.get_traced_memory()[0]
        return score_gap(*args, **kwargs)

    monkeypatch.setattr(cli, "load_embeddings", loading)
    monkeypatch.setattr(cli, "score_gap", bootstrapping)
    args = run_args(corpus_dir, str(tmp_path / "x"))
    args[args.index("--words") : args.index("--descriptions") + 2] = []
    tracemalloc.start()
    try:
        assert main(args) == 0
    finally:
        tracemalloc.stop()
    # The outcomes are all that is left of the stores, documents and links.
    assert seen["at_bootstrap"] < seen["after_load"] - seen["matrix"]


@pytest.mark.parametrize("method", METHODS)
def test_catalog_is_loaded_only_for_methods_that_read_it(corpus_dir, tmp_path, method):
    # No method reads the catalog: linking reads the lists attached to the mentions.
    args = build_parser().parse_args(run_args(corpus_dir, str(tmp_path / "x"), method=method))
    (ctx,), _ = _load_context(args, [method])
    assert not hasattr(ctx, "catalog")
    assert "catalog" not in METHODS[method].inputs


@pytest.fixture
def normalized_names(monkeypatch):
    """The number of names normalized, counted as they are."""
    made = {"names": 0}
    normalize_name = index.normalize_name

    def counting_name(name):
        made["names"] += 1
        return normalize_name(name)

    monkeypatch.setattr(index, "normalize_name", counting_name)
    return made


@pytest.mark.parametrize("method", [*METHODS, "mutilate"])
def test_no_record_is_made_for_a_method_that_does_not_read_the_catalog(
    corpus_dir, tmp_path, normalized_names, method
):
    # No catalog line is kept for any method (test_the_catalog_pass_holds_8_bytes_a_line).
    if method == "mutilate":
        args = run_args(corpus_dir, str(tmp_path / "x"), "mutilate", "eigen,degree,namematch")
        assert main(args) == 0
    else:
        args = build_parser().parse_args(run_args(corpus_dir, str(tmp_path / "x"), method=method))
        _load_context(args, [method])
    # Names are normalized only when a namematch run needs its name matches.
    assert (normalized_names["names"] > 0) == (method in ("namematch", "mutilate"))


@pytest.mark.parametrize("methods,kept", [("eigen,avg", False), ("eigen,degree", True)])
def test_mutilate_keeps_the_catalog_when_any_method_reads_it(
    corpus_dir, tmp_path, monkeypatch, methods, kept
):
    # What mutilate keeps of the catalog is each candidate's degree, on the
    # mentions: no run's context holds a catalog, and only degree reads them.
    with open(f"{corpus_dir}/catalog.jsonl") as fh:
        catalog = {row["qid"]: row["degree"] for row in map(json.loads, fh)}
    reads = []
    linked, read = cli.run_documents, baselines.degree_baseline

    def recording(docs, ctx):
        assert not hasattr(ctx, "catalog")
        reads.append(False)
        return linked(docs, ctx)

    def reading(entities):
        assert entities.degrees == [catalog[qid] for qid in entities.candidates]
        reads[-1] = True
        return read(entities)

    monkeypatch.setattr(cli, "run_documents", recording)
    monkeypatch.setattr(baselines, "degree_baseline", reading)
    assert main(run_args(corpus_dir, str(tmp_path / "x"), "mutilate", methods)) == 0
    assert reads == [False, kept]


# "york" is a candidate of Q1, Q2 and Q3, "New York" of Q2 only. Q5 and
# Q6 are name hits, without tokens and by casefolding. Q4 (no "city"), Q7
# (no "york") and Q8 ("new" and "jersey" in two texts) share tokens with
# a mention but are no hit of any.
HIT_CATALOG = [
    {"qid": "Q1", "name": "York", "degree": 4},
    {"qid": "Q2", "name": "New-York", "degree": 9},
    {"qid": "Q3", "name": "ruins", "aliases": ["old york"], "degree": 7},
    {"qid": "Q4", "name": "new jersey", "aliases": ["yorkshire"], "degree": 1},
    {"qid": "Q5", "name": "!!!", "degree": 1},
    {"qid": "Q6", "name": "STRASSE", "degree": 2},
    {"qid": "Q7", "name": "minster", "degree": 3},
    {"qid": "Q8", "name": "new", "aliases": ["jersey"], "degree": 3},
]
HIT_SURFACES = ["york", "New York", "!!!", "Straße", "york minster", "new jersey city"]


@pytest.mark.parametrize("method", ["degree", "namematch"])
def test_kept_records_are_the_candidate_hits_and_the_name_hits(tmp_path, method):
    # What link keeps of the catalog is the qid and degree of each hit, on the mentions.
    catalog, dataset = tmp_path / "catalog.jsonl", tmp_path / "dataset.jsonl"
    catalog.write_text("".join(json.dumps(row) + "\n" for row in HIT_CATALOG))
    mentions = [{"surface": surface} for surface in HIT_SURFACES]
    dataset.write_text(json.dumps({"doc_id": "d", "mentions": mentions}) + "\n")
    args = ["link", "--method", method, "--dataset", str(dataset), "--catalog", str(catalog)]
    args = build_parser().parse_args(args + ["--out", str(tmp_path / "x")])
    _, (doc,) = _load_context(args, [method])

    full = read_catalog(str(catalog))
    attached = {m.surface: (m.candidates, m.name_matches) for m in doc.mentions}
    # Candidate degrees are kept only for a degree run, which reads them.
    degrees = method == "degree"
    lists = {surface: reference_list(full, surface, 20) for surface in HIT_SURFACES}
    names = reference_name_lookup(full)
    assert attached == {
        surface: (
            cl if degrees else replace(cl, degrees=None),
            reference_name_matches(names, surface) if method == "namematch" else None,
        )
        for surface, cl in lists.items()
    }
    assert attached["york"][0] == CandidateList(["Q2", "Q3", "Q1"], [9, 7, 4] if degrees else None)
    if method == "namematch":
        kept = {q for lists in attached.values() for cl in lists for q in cl.candidates}
        assert kept == {"Q1", "Q2", "Q3", "Q5", "Q6"}
        assert attached["Straße"][1] == CandidateList(["Q6"], [2])


def catalog_pass_peak(path) -> int:
    """The tracemalloc peak of one catalog pass that makes HIT_SURFACES' candidates."""
    tracemalloc.start()
    try:
        index.candidate_lists(kg.catalog_lines(path), HIT_SURFACES)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_catalog_pass_holds_8_bytes_a_line(tmp_path):
    # Past its hits, the pass keeps of each line only the duplicate check's hash.
    n = 5000
    peaks = []
    for lines in (n, 4 * n):
        path = tmp_path / f"catalog-{lines}.jsonl"
        misses = [{"qid": f"M{i}", "name": f"miss {i}", "degree": i % 7} for i in range(lines)]
        rows = HIT_CATALOG + misses[len(HIT_CATALOG) :]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        catalog_pass_peak(str(path))  # one-time allocations stay out of the peaks
        peaks.append(catalog_pass_peak(str(path)))
    assert peaks[1] - peaks[0] <= 9 * 3 * n


def description_store_overhead(descriptions, word_store):
    """Peak traced memory of building the description store, above the finished store."""
    tracemalloc.start()
    try:
        store = build_description_store(descriptions, word_store)
        held, peak = tracemalloc.get_traced_memory()
        assert len(store) == len(descriptions)
        return peak - held
    finally:
        tracemalloc.stop()


def test_the_description_store_holds_8_bytes_a_known_word_above_the_store():
    # 8 bytes a known word for its row index, plus a few 8-byte entries a
    # description (about 1 byte a word at 40 words) and a constant: the
    # gather step. Gathering every description's word rows at once would
    # take d * 8 = 2,400 bytes a known word; copying the finished vectors
    # into the store, 2,400 bytes a description (60 a known word here).
    d, n, length = 300, 1000, 40
    rng = np.random.default_rng(0)
    vocabulary = [f"w{i}" for i in range(500)]
    word_store = EmbeddingStore(d)
    word_store._append(vocabulary, rng.standard_normal((len(vocabulary), d)))
    words = np.array(vocabulary + ["unknown"])
    overheads, known = [], []
    for count in (n, 4 * n):
        descriptions = {
            f"Q{i}": " ".join(words[rng.integers(0, len(words), length + i % 5)])
            for i in range(count)
        }
        known.append(sum(t in word_store for text in descriptions.values() for t in tokenize(text)))
        description_store_overhead(descriptions, word_store)  # one-time allocations stay out
        overheads.append(description_store_overhead(descriptions, word_store))
    assert overheads[1] - overheads[0] <= 10 * (known[1] - known[0])
