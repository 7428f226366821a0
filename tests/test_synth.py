import hashlib
import json
import os

import pytest

from eigenlink.dataset import load_dataset
from eigenlink.errors import ConfigError
from eigenlink.evaluation import classify
from eigenlink.index import candidate_lists
from eigenlink.synth import SynthConfig, generate
from tests.conftest import build_corpus, load_corpus


def file_hashes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


SMALL = dict(
    docs=6,
    mentions_per_doc=4,
    candidates_per_mention=5,
    d=24,
    rank=2,
    noise_amplitude=0.25,
    seed=77,
)


def test_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(SynthConfig(**SMALL), str(a))
    generate(SynthConfig(**SMALL), str(b))
    assert file_hashes(a) == file_hashes(b)


def test_different_seed_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(SynthConfig(**SMALL), str(a))
    generate(SynthConfig(**{**SMALL, "seed": 78}), str(b))
    assert file_hashes(a) != file_hashes(b)


def test_manifest_candidates_match_generated_candidates(tmp_path_factory):
    corpus = build_corpus(tmp_path_factory, "synth_check", **SMALL)
    mentions = [m for doc in corpus.manifest["documents"] for m in doc["mentions"]]
    lists, _ = candidate_lists(corpus.catalog, [m["surface"] for m in mentions], T=20)
    for m in mentions:
        assert lists[m["surface"]].candidates == m["candidates"]


def test_gold_always_present_and_easy_flags_match_buckets(tmp_path_factory):
    corpus = build_corpus(tmp_path_factory, "synth_buckets", **SMALL)
    for doc in corpus.manifest["documents"]:
        for m in doc["mentions"]:
            assert m["gold_qid"] in m["candidates"]  # oracle recall 1.0
            bucket = classify(m["candidates"], m["gold_qid"])
            assert bucket == ("easy" if m["easy"] else "hard")


def test_miss_fraction_creates_not_found(tmp_path_factory):
    corpus = build_corpus(
        tmp_path_factory, "synth_miss", **{**SMALL, "miss_fraction": 0.5}
    )
    missed = sum(
        1 for doc in corpus.manifest["documents"] for m in doc["mentions"] if m["missed"]
    )
    assert missed > 0
    _, outcomes, report = corpus.run("degree")
    assert report.counts["not_found"] == missed


def test_easy_fraction_one_makes_degree_perfect(tmp_path_factory):
    corpus = build_corpus(
        tmp_path_factory, "synth_easy1", **{**SMALL, "easy_fraction": 1.0}
    )
    _, _, report = corpus.run("degree")
    assert report.precision_at_1["overall"] == 1.0


def test_zero_noise_gives_perfect_eigen(tmp_path_factory):
    # With zero noise the gold rows sit exactly in the planted span; enough
    # of them per document and the subspace separates them from every
    # isotropic distractor.
    corpus = build_corpus(
        tmp_path_factory,
        "synth_zero_noise",
        docs=6,
        mentions_per_doc=8,
        candidates_per_mention=4,
        d=32,
        rank=2,
        noise_amplitude=0.0,
        seed=77,
    )
    _, _, report = corpus.run("eigen", weighting="none", k=4)
    assert report.precision_at_1["overall"] == 1.0


def test_shared_distractor_pool_overlaps(tmp_path_factory):
    corpus = build_corpus(
        tmp_path_factory,
        "synth_pool",
        **{**SMALL, "distractors_per_doc": 6},
    )
    doc = corpus.manifest["documents"][0]
    all_cands = [q for m in doc["mentions"] for q in m["candidates"]]
    assert len(set(all_cands)) < len(all_cands)  # reuse across mentions
    for m in doc["mentions"]:
        bucket = classify(m["candidates"], m["gold_qid"])
        assert bucket == ("easy" if m["easy"] else "hard")


def test_adversarial_cluster_degrades_eigen(tmp_path_factory):
    clean = build_corpus(tmp_path_factory, "synth_clean", **SMALL)
    hostile = build_corpus(
        tmp_path_factory, "synth_hostile", **{**SMALL, "adversarial": True}
    )
    _, _, clean_report = clean.run("eigen", weighting="none", k=4)
    _, _, hostile_report = hostile.run("eigen", weighting="none", k=4)
    assert (
        hostile_report.precision_at_1["overall"]
        < clean_report.precision_at_1["overall"]
    )


def test_default_config_counts(default_corpus):
    docs = default_corpus.manifest["documents"]
    assert len(docs) == 50
    n_mentions = sum(len(d["mentions"]) for d in docs)
    assert n_mentions == 400
    easy = sum(1 for d in docs for m in d["mentions"] if m["easy"])
    # binomial sampling tolerance around the configured 0.4
    assert abs(easy / n_mentions - 0.4) < 0.08
    for d in docs:
        for m in d["mentions"]:
            assert len(m["candidates"]) == 10


def test_manifest_basis_shape(default_corpus):
    doc = default_corpus.manifest["documents"][0]
    basis = doc["basis"]
    assert len(basis) == 64
    assert len(basis[0]) == 3


def test_dataset_tokens_carry_mention_surfaces(tmp_path_factory):
    corpus = build_corpus(tmp_path_factory, "synth_tokens", **SMALL)
    for doc in corpus.docs:
        assert doc.tokens is not None
        for m in doc.mentions:
            assert doc.tokens[m.position] == m.surface


@pytest.mark.parametrize(
    "bad",
    [
        {"rank": 30, "d": 24},  # planted rank must stay below d
        {"easy_fraction": 1.5},
        {"miss_fraction": -0.1},
        {"noise_amplitude": -1.0},
        {"candidates_per_mention": 1},
        {"distractors_per_doc": 2},  # pool smaller than one mention's needs
        {"doc_length": 4},
    ],
)
def test_infeasible_configs_rejected(tmp_path, bad):
    with pytest.raises(ConfigError):
        generate(SynthConfig(**{**SMALL, **bad}), str(tmp_path / "x"))


def test_emitted_files_parse(tmp_path):
    out = tmp_path / "corpus"
    manifest = generate(SynthConfig(**SMALL), str(out))
    corpus = load_corpus(str(out), manifest)
    assert len(corpus.catalog) == len(corpus.store)
    docs = load_dataset(str(out / "dataset.jsonl"))
    assert len(docs) == SMALL["docs"]
    with open(out / "manifest.json") as fh:
        loaded = json.load(fh)
    assert loaded["config"]["seed"] == SMALL["seed"]
    assert loaded["format"] == "eigenlink-synth-manifest"
