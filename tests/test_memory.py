"""What `link` and `mutilate` keep in memory: each input only while a stage reads it."""

import json
import tracemalloc

import pytest

from eigenlink import cli, kg
from eigenlink.baselines import normalize_name
from eigenlink.cli import _load_context, _resolve_run_config, build_parser, main
from eigenlink.errors import ConfigError
from eigenlink.pipeline import METHODS, LinkContext, RunConfig, run_documents
from tests.test_index import reference_hits

CORPUS_CFG = "docs=30,mentions_per_doc=8,candidates_per_mention=10,d=64,seed=5"
READS_CATALOG = {"degree", "namematch"}


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
    args = build_parser().parse_args(run_args(corpus_dir, str(tmp_path / "x"), method=method))
    ctx, _ = _load_context(args, [_resolve_run_config(args, method)])
    assert (ctx.catalog is not None) == (method in READS_CATALOG)
    assert ("catalog" in METHODS[method].inputs) == (method in READS_CATALOG)


@pytest.mark.parametrize("method", METHODS)
def test_no_record_is_made_for_a_method_that_does_not_read_the_catalog(
    corpus_dir, tmp_path, monkeypatch, method
):
    made = []
    record = kg.EntityRecord

    def counting(*args, **kwargs):
        made.append(args[0])
        return record(*args, **kwargs)

    monkeypatch.setattr(kg, "EntityRecord", counting)
    args = build_parser().parse_args(run_args(corpus_dir, str(tmp_path / "x"), method=method))
    ctx, _ = _load_context(args, [_resolve_run_config(args, method)])
    if method in READS_CATALOG:
        assert made and made == list(ctx.catalog.records)
    else:
        assert made == []


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


@pytest.mark.parametrize("method", sorted(READS_CATALOG))
def test_kept_records_are_the_candidate_hits_and_the_name_hits(tmp_path, method):
    catalog, dataset = tmp_path / "catalog.jsonl", tmp_path / "dataset.jsonl"
    catalog.write_text("".join(json.dumps(row) + "\n" for row in HIT_CATALOG))
    mentions = [{"surface": surface} for surface in HIT_SURFACES]
    dataset.write_text(json.dumps({"doc_id": "d", "mentions": mentions}) + "\n")
    args = ["link", "--method", method, "--dataset", str(dataset), "--catalog", str(catalog)]
    args = build_parser().parse_args(args + ["--out", str(tmp_path / "x")])
    ctx, _ = _load_context(args, [_resolve_run_config(args, method)])

    full = kg.load_catalog(str(catalog))
    names = {normalize_name(surface) for surface in HIT_SURFACES}
    hits = {rec.qid for surface in HIT_SURFACES for rec in reference_hits(full, surface)}
    hits |= {rec.qid for rec in full if normalize_name(rec.name) in names}
    assert set(ctx.catalog.records) == hits == {"Q1", "Q2", "Q3", "Q5", "Q6"}


@pytest.mark.parametrize("methods,kept", [("eigen,avg", False), ("eigen,degree", True)])
def test_mutilate_keeps_the_catalog_when_any_method_reads_it(
    corpus_dir, tmp_path, monkeypatch, methods, kept
):
    catalogs = []
    linked = cli.run_documents

    def recording(docs, ctx):
        catalogs.append(ctx.catalog is not None)
        return linked(docs, ctx)

    monkeypatch.setattr(cli, "run_documents", recording)
    assert main(run_args(corpus_dir, str(tmp_path / "x"), "mutilate", methods)) == 0
    assert catalogs == [kept, kept]


@pytest.mark.parametrize("method", sorted(READS_CATALOG))
def test_run_without_the_catalog_a_method_reads_raises(method):
    with pytest.raises(ConfigError, match="needs the catalog"):
        run_documents([], LinkContext(catalog=None, config=RunConfig(method=method)))
