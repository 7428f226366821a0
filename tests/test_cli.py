import csv
import gc
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigenlink import cli, weighting
from eigenlink.cli import _load_context, build_parser, main
from eigenlink.dataset import Mention, load_dataset
from eigenlink.errors import DataError
from eigenlink.evaluation import MentionOutcome, write_predictions
from eigenlink.index import CandidateList
from eigenlink.pipeline import METHODS, LinkContext, RunConfig, run_documents
from tests.conftest import read_catalog, with_candidates
from tests.test_index import reference_hits

CORPUS_CFG = "docs=6,mentions_per_doc=4,candidates_per_mention=5,d=24,rank=2,seed=77"


def load_strict_json(path):
    """The JSON value in ``path``; NaN and Infinity, which JSON lacks, raise."""

    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


@pytest.fixture(autouse=True)
def artifacts_are_strict_json(tmp_path):
    """Every metrics.json and mutilation.json a test writes parses as strict JSON."""
    yield
    for name in ("metrics.json", "mutilation.json"):
        for path in tmp_path.rglob(name):
            load_strict_json(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_corpus"))
    assert main(["synth", "--config", CORPUS_CFG, "--out", out]) == 0
    return out


def link_args(corpus_dir, out, method="degree", extra=()):
    return [
        "link",
        "--method",
        method,
        "--dataset",
        f"{corpus_dir}/dataset.jsonl",
        "--catalog",
        f"{corpus_dir}/catalog.jsonl",
        "--embeddings",
        f"{corpus_dir}/embeddings.txt",
        "--jobs",
        "1",
        "--out",
        out,
        *extra,
    ]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_synth_emits_all_artifacts(corpus_dir):
    names = sorted(os.listdir(corpus_dir))
    assert names == [
        "catalog.jsonl",
        "dataset.jsonl",
        "descriptions.jsonl",
        "embeddings.txt",
        "manifest.json",
        "words.txt",
    ]


def test_link_writes_predictions_and_metrics(corpus_dir, tmp_path):
    out = str(tmp_path / "run")
    assert main(link_args(corpus_dir, out)) == 0
    with open(f"{out}/predictions.csv") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "doc_id",
        "mention_idx",
        "surface",
        "gold_qid",
        "predicted_qid",
        "bucket",
        "rank_of_gold",
        "score",
    ]
    with open(f"{out}/metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["format"] == "eigenlink-metrics"
    assert metrics["version"] == 1
    # defaults echoed into the artifact
    cfg = metrics["config"]
    assert (cfg["T"], cfg["k"], cfg["delta"], cfg["weighting"], cfg["window"]) == (
        20,
        10,
        1.0,
        "degree_rr",
        5,
    )
    assert metrics["seed"] == 0
    assert metrics["counts"]["total"] == 24


def test_link_rerun_byte_identical(corpus_dir, tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(link_args(corpus_dir, out1)) == 0
    assert main(link_args(corpus_dir, out2)) == 0
    assert read_bytes(f"{out1}/predictions.csv") == read_bytes(f"{out2}/predictions.csv")
    assert read_bytes(f"{out1}/metrics.json") == read_bytes(f"{out2}/metrics.json")


def text_args(corpus_dir):
    words, descriptions = f"{corpus_dir}/words.txt", f"{corpus_dir}/descriptions.jsonl"
    return ("--words", words, "--descriptions", descriptions)


# Every method of the table, and eigen under both context weightings.
JOBS_CASES = [(method, None) for method in METHODS] + [
    ("eigen", "local_ctxt_rr"),
    ("eigen", "global_ctxt_rr"),
]


@pytest.mark.parametrize(
    "method,kind", JOBS_CASES, ids=[m + (f"-{k}" if k else "") for m, k in JOBS_CASES]
)
def test_jobs_count_does_not_change_outputs(corpus_dir, tmp_path, method, kind):
    extra = text_args(corpus_dir) + (("--weighting", kind) if kind else ())
    out1, out2 = str(tmp_path / "j1"), str(tmp_path / "j2")
    args1 = link_args(corpus_dir, out1, method=method, extra=extra)
    args2 = link_args(corpus_dir, out2, method=method, extra=extra)
    args2[args2.index("--jobs") + 1] = "3"
    assert main(args1) == 0
    assert main(args2) == 0
    assert read_bytes(f"{out1}/predictions.csv") == read_bytes(f"{out2}/predictions.csv")
    assert read_bytes(f"{out1}/metrics.json") == read_bytes(f"{out2}/metrics.json")


def test_link_with_more_jobs_than_a_machine_has_threads(corpus_dir, tmp_path, recorded_pools):
    with open(f"{corpus_dir}/dataset.jsonl", encoding="utf-8") as fh:
        two_docs = fh.readlines()[:2]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(two_docs), encoding="utf-8")
    outs = []
    for jobs in ("1", str(10**30)):
        outs.append(str(tmp_path / f"j{jobs}"))
        args = link_args(corpus_dir, outs[-1], method="eigen")
        args[args.index("--dataset") + 1] = str(dataset)
        args[args.index("--jobs") + 1] = jobs
        assert main(args) == 0
    assert recorded_pools == [2]  # one pool, one worker per document
    for name in ("predictions.csv", "metrics.json"):
        assert read_bytes(f"{outs[0]}/{name}") == read_bytes(f"{outs[1]}/{name}")


SLOTTED = (Mention, CandidateList, MentionOutcome)


@pytest.mark.parametrize("method", ["eigen", "degree"])
def test_slotted_records_cross_to_workers_unchanged(corpus_dir, tmp_path, method):
    assert all("__slots__" in vars(cls) for cls in SLOTTED)
    record = CandidateList(["Q1"], [3])
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    # --jobs 2 links on threads, which share the records unpickled; the
    # outputs still match --jobs 1's.
    out1, out2 = str(tmp_path / "j1"), str(tmp_path / "j2")
    args1 = link_args(corpus_dir, out1, method=method)
    args2 = link_args(corpus_dir, out2, method=method)
    args2[args2.index("--jobs") + 1] = "2"
    assert main(args1) == 0
    assert main(args2) == 0
    assert read_bytes(f"{out1}/predictions.csv") == read_bytes(f"{out2}/predictions.csv")
    assert read_bytes(f"{out1}/metrics.json") == read_bytes(f"{out2}/metrics.json")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the CPU count, so 2 acts as 1"
)
def test_blas_thread_count_does_not_change_outputs(tmp_path):
    # 1000 candidate rows at d=300: large enough for BLAS to split the work.
    corpus = str(tmp_path / "corpus")
    cfg = "d=300,docs=1,mentions_per_doc=50,candidates_per_mention=20"
    assert main(["synth", "--config", cfg, "--out", corpus]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = str(tmp_path / f"t{threads}")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        argv = link_args(corpus, outs[threads], method="eigen")
        cmd = [sys.executable, "-m", "eigenlink.cli", *argv]
        subprocess.run(cmd, env=env, check=True, timeout=120)
    for name in ("metrics.json", "predictions.csv"):
        assert read_bytes(f"{outs['1']}/{name}") == read_bytes(f"{outs['2']}/{name}")


def test_missing_input_file_exits_2(corpus_dir, tmp_path):
    args = link_args(corpus_dir, str(tmp_path / "x"))
    args[args.index("--dataset") + 1] = str(tmp_path / "nope.jsonl")
    assert main(args) == 2


def test_malformed_catalog_exits_3(corpus_dir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"qid": "Q1"}\n')
    args = link_args(corpus_dir, str(tmp_path / "x"))
    args[args.index("--catalog") + 1] = str(bad)
    assert main(args) == 3


GOOD_MENTION = {"surface": "x", "gold_qid": None, "position": 0}


@pytest.mark.parametrize(
    "document",
    [
        [1, 2],
        {"doc_id": "d", "mentions": ["x"]},
        {"doc_id": "d", "mentions": [{**GOOD_MENTION, "position": "abc"}]},
        {"doc_id": "d", "mentions": [{**GOOD_MENTION, "position": -3}]},
        {"doc_id": "d", "mentions": [{**GOOD_MENTION, "position": True}]},
        {"doc_id": "d", "mentions": [{**GOOD_MENTION, "position": 1.0}]},
        {"doc_id": "d", "mentions": [GOOD_MENTION], "tokens": "not a list"},
        {"doc_id": "d", "mentions": [GOOD_MENTION], "nouns": "x"},
        {"doc_id": "d", "mentions": [GOOD_MENTION], "nouns": ["x", 3]},
        {"doc_id": "d", "mentions": [{**GOOD_MENTION, "gold_qid": ""}]},
        {"doc_id": "d", "mentions": [{**GOOD_MENTION, "position": 2}], "tokens": ["x", "y"]},
    ],
    ids=[
        "document-list",
        "mention-string",
        "position-string",
        "position-negative",
        "position-bool",
        "position-float",
        "tokens-string",
        "nouns-string",
        "nouns-non-string-item",
        "gold-empty",
        "position-past-tokens",
    ],
)
def test_malformed_dataset_exits_3(corpus_dir, tmp_path, capsys, document):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(document) + "\n")
    args = link_args(corpus_dir, str(tmp_path / "x"))
    args[args.index("--dataset") + 1] = str(bad)
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("error: line 1: ")


def test_duplicate_embedding_identifier_exits_3(corpus_dir, tmp_path, capsys):
    with open(f"{corpus_dir}/embeddings.txt") as fh:
        header, first, *rest = fh.readlines()
    count, dim = header.split()
    bad = tmp_path / "emb.txt"
    bad.write_text(f"{int(count) + 1} {dim}\n" + first + "".join(rest) + first)
    args = link_args(corpus_dir, str(tmp_path / "x"), method="avg")
    args[args.index("--embeddings") + 1] = str(bad)
    assert main(args) == 3
    assert "duplicate identifier" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method,unread",
    [
        ("degree", ["embeddings"]),
        ("eigen", ["words", "descriptions"]),
        ("degree", ["embeddings", "descriptions"]),  # --descriptions without --words
    ],
)
def test_a_file_no_method_of_the_run_reads_is_not_opened(
    corpus_dir, tmp_path, monkeypatch, capsys, method, unread
):
    malformed = tmp_path / "malformed"
    malformed.write_bytes(b"3 x\n\xff\n")
    opened = []
    for name in ("load_embeddings", "load_descriptions"):
        loader = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda path, *a, _load=loader: opened.append(path) or _load(path, *a)
        )

    def args(side, files):
        argv = link_args(corpus_dir, str(tmp_path / side), method)
        at = argv.index("--embeddings")
        return argv[:at] + argv[at + 2 :] + files

    read = [] if "embeddings" in unread else ["--embeddings", f"{corpus_dir}/embeddings.txt"]
    plain = args("plain", read)
    given = args("given", read + [arg for flag in unread for arg in (f"--{flag}", str(malformed))])
    assert main(plain) == 0
    printed = capsys.readouterr()
    assert main(given) == 0
    assert capsys.readouterr() == printed
    assert opened == read[1:] * 2  # the entity embeddings, when read, once by each run
    files = [tmp_path / side / "predictions.csv" for side in ("plain", "given")]
    assert read_bytes(files[0]) == read_bytes(files[1])
    metrics = [load_strict_json(tmp_path / side / "metrics.json") for side in ("plain", "given")]
    # The config echo still names every file given.
    assert {flag: metrics[1]["config"].pop(flag) for flag in unread} == dict.fromkeys(
        unread, str(malformed)
    )
    assert metrics[0] == metrics[1]


def test_malformed_embedding_row_outside_candidates_exits_3(corpus_dir, tmp_path, capsys):
    with open(f"{corpus_dir}/embeddings.txt") as fh:
        header, *rows = fh.readlines()
    count, dim = header.split()
    bad = tmp_path / "emb.txt"
    # no mention can propose this identifier, so its row is never kept
    bad_row = "not-a-candidate " + " ".join(["1.5"] * (int(dim) - 1)) + " oops\n"
    bad.write_text(f"{int(count) + 1} {dim}\n" + "".join(rows) + bad_row)
    args = link_args(corpus_dir, str(tmp_path / "x"), method="eigen")
    args[args.index("--embeddings") + 1] = str(bad)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == f"error: line {len(rows) + 2}: non-numeric value\n"


@pytest.mark.parametrize("flag,method", [("--embeddings", "eigen"), ("--words", "local")])
def test_embedding_row_whose_squared_norm_overflows_exits_3(
    corpus_dir, tmp_path, capsys, flag, method
):
    # Each value is finite, but the row's squared norm is not: normalizing it
    # would give a zero row, so the file is rejected instead.
    args = link_args(corpus_dir, str(tmp_path / "x"), method, extra=text_args(corpus_dir))
    with open(args[args.index(flag) + 1]) as fh:
        header, first, *rest = fh.readlines()
    identifier, _, *values = first.split()
    bad = tmp_path / "vectors.txt"
    bad.write_text(header + " ".join([identifier, "1e160", *values]) + "\n" + "".join(rest))
    args[args.index(flag) + 1] = str(bad)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == "error: line 2: values too large, their squared norm overflows\n"


def test_setup_is_frozen_out_of_the_collector_only_while_a_command_runs(
    corpus_dir, tmp_path, monkeypatch
):
    frozen = []
    link = cli.run_documents

    def linking(docs, ctx):
        frozen.append(gc.get_freeze_count())
        if ctx.config.method == "avg":
            raise DataError("bad input found while linking")
        return link(docs, ctx)

    monkeypatch.setattr(cli, "run_documents", linking)
    assert main(link_args(corpus_dir, str(tmp_path / "link"))) == 0
    assert frozen[0] > 0  # linking ran with setup's objects frozen
    assert gc.get_freeze_count() == 0
    mutilate = link_args(corpus_dir, str(tmp_path / "mutilate"))
    mutilate[:3] = ["mutilate", "--methods", "eigen,degree", "--repeats", "1"]
    assert main(mutilate) == 0
    assert gc.get_freeze_count() == 0
    # An error raised after the freeze still unfreezes.
    assert main(link_args(corpus_dir, str(tmp_path / "avg"), method="avg")) == 3
    assert frozen[-1] > 0
    assert gc.get_freeze_count() == 0
    bad = tmp_path / "emb.txt"
    bad.write_text("1 2\nq1 nan 0\n")
    args = link_args(corpus_dir, str(tmp_path / "bad"), method="eigen")
    args[args.index("--embeddings") + 1] = str(bad)
    assert main(args) == 3
    assert gc.get_freeze_count() == 0


def test_load_context_leaves_the_collector_unfrozen(corpus_dir, tmp_path):
    # Direct callers, such as tests, get no frozen objects to leak to what runs after them.
    args = build_parser().parse_args(link_args(corpus_dir, str(tmp_path / "x"), "eigen"))
    before = gc.get_freeze_count()
    _load_context(args, [args.method])
    assert gc.get_freeze_count() == before


def test_numerical_failure_names_document_and_exits_1(corpus_dir, tmp_path, capsys, monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with open(f"{corpus_dir}/dataset.jsonl") as fh:
        first_doc = json.loads(fh.readline())["doc_id"]
    assert main(link_args(corpus_dir, str(tmp_path / "x"), method="eigen")) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: document {first_doc!r}: eigendecomposition failed: "
        "Eigenvalues did not converge\n"
    )


def test_invalid_k_exits_4(corpus_dir, tmp_path):
    args = link_args(corpus_dir, str(tmp_path / "x"), extra=("--k", "0"))
    assert main(args) == 4


@pytest.mark.parametrize("command", ["link", "mutilate"])
@pytest.mark.parametrize("source", ["flag", "config-file"])
def test_negative_seed_exits_4_before_loading(corpus_dir, tmp_path, capsys, command, source):
    if source == "flag":
        extra = ("--seed", "-1")
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": -3}')
        extra = ("--config-file", str(cfg_path))
    args = link_args(corpus_dir, str(tmp_path / "x"), extra=extra)
    # the dataset does not exist, so reaching any loader would exit 2
    args[args.index("--dataset") + 1] = str(tmp_path / "nope.jsonl")
    if command == "mutilate":
        args[:3] = ["mutilate", "--methods", "degree"]
    assert main(args) == 4
    seed = -1 if source == "flag" else -3
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"


def test_context_method_without_words_exits_4(corpus_dir, tmp_path):
    assert main(link_args(corpus_dir, str(tmp_path / "x"), method="local")) == 4


def test_unknown_synth_key_exits_4(tmp_path):
    assert main(["synth", "--config", "bananas=3", "--out", str(tmp_path / "x")]) == 4


@pytest.mark.parametrize(
    "configs", [["docs=2,docs=3"], ["docs=2", "docs=4"]], ids=["one-flag", "two-flags"]
)
def test_repeated_synth_key_exits_4(tmp_path, capsys, configs):
    out = tmp_path / "x"
    args = ["synth", *(arg for cfg in configs for arg in ("--config", cfg)), "--out", str(out)]
    assert main(args) == 4
    assert capsys.readouterr().err == "error: synth config key 'docs' is given twice\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    ["seed=-1", "word_dim=0", "word_dim=-2", "noise_amplitude=nan", "noise_amplitude=inf"],
)
def test_synth_value_it_cannot_generate_from_exits_4(tmp_path, capsys, setting):
    out = tmp_path / "x"
    assert main(["synth", "--config", setting, "--out", str(out)]) == 4
    key = setting.partition("=")[0]
    assert capsys.readouterr().err.startswith(f"error: {key} must ")
    assert not out.exists()


@pytest.mark.parametrize("spelling,code", [("maybe", 4), ("2", 4), ("YES", 0), ("No", 0)])
def test_synth_boolean_spellings(tmp_path, capsys, spelling, code):
    out = str(tmp_path / "x")
    cfg = f"docs=1,mentions_per_doc=2,candidates_per_mention=3,adversarial={spelling}"
    assert main(["synth", "--config", cfg, "--out", out]) == code
    if code:
        assert capsys.readouterr().err == f"error: bad value for 'adversarial': {spelling!r}\n"
    else:
        with open(f"{out}/manifest.json") as fh:
            adversarial = json.load(fh)["config"]["adversarial"]
        assert adversarial is (spelling.lower() == "yes")


@pytest.mark.parametrize("command,words", [("link", False), ("link", True), ("mutilate", False)])
def test_missing_text_inputs_exit_4_before_loading(corpus_dir, tmp_path, capsys, command, words):
    # the dataset does not exist, so reaching any loader would exit 2
    extra = ("--words", f"{corpus_dir}/words.txt") if words else ()
    args = link_args(corpus_dir, str(tmp_path / "x"), method="local", extra=extra)
    args[args.index("--dataset") + 1] = str(tmp_path / "nope.jsonl")
    if command == "mutilate":
        args[:3] = ["mutilate", "--methods", "eigen,local"]
    assert main(args) == 4
    assert capsys.readouterr().err.startswith("error: context-based methods")


def test_context_method_runs_with_words(corpus_dir, tmp_path):
    out = str(tmp_path / "ctx")
    args = link_args(
        corpus_dir,
        out,
        method="global",
        extra=(
            "--words",
            f"{corpus_dir}/words.txt",
            "--descriptions",
            f"{corpus_dir}/descriptions.jsonl",
        ),
    )
    assert main(args) == 0
    with open(f"{out}/metrics.json") as fh:
        assert json.load(fh)["counts"]["total"] == 24


CONTEXT_CASES = [
    ("local", "degree_rr"),
    ("global", "degree_rr"),
    ("eigen", "local_ctxt_rr"),
    ("eigen", "global_ctxt_rr"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("method,kind", CONTEXT_CASES)
def test_context_on_document_without_tokens_exits_4(
    corpus_dir, tmp_path, capsys, method, kind, jobs
):
    with open(f"{corpus_dir}/dataset.jsonl", encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    del docs[1]["tokens"]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    extra = text_args(corpus_dir) + ("--weighting", kind)
    args = link_args(corpus_dir, str(tmp_path / "x"), method=method, extra=extra)
    args[args.index("--dataset") + 1] = str(dataset)
    args[args.index("--jobs") + 1] = jobs
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"document {docs[1]['doc_id']!r} has no 'tokens' field" in err


@pytest.mark.parametrize(
    "method,kind",
    [
        ("local", "degree_rr"),
        ("global", "degree_rr"),
        ("eigen", "local_ctxt_rr"),
        ("eigen", "global_ctxt_rr"),
    ],
)
def test_each_documents_contexts_are_one_mean_vectors_call(
    corpus_dir, tmp_path, monkeypatch, method, kind
):
    calls = []
    original = weighting.mean_vectors

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(weighting, "mean_vectors", counting)
    extra = text_args(corpus_dir) + ("--weighting", kind)
    assert main(link_args(corpus_dir, str(tmp_path / "x"), method=method, extra=extra)) == 0
    # one more call builds the description store
    assert len(calls) == len(load_dataset(f"{corpus_dir}/dataset.jsonl")) + 1


def test_link_collects_candidates_in_its_one_catalog_pass(corpus_dir, tmp_path, monkeypatch):
    passes = []
    reading = cli.catalog_lines

    def recording(path, *args, **kwargs):
        passes.append(path)
        return reading(path, *args, **kwargs)

    monkeypatch.setattr(cli, "catalog_lines", recording)
    args = link_args(corpus_dir, str(tmp_path / "x"), method="avg", extra=("--T", "3"))
    args = build_parser().parse_args(args)
    _, docs = _load_context(args, [args.method])
    assert passes == [f"{corpus_dir}/catalog.jsonl"]
    catalog = read_catalog(f"{corpus_dir}/catalog.jsonl")
    dataset = load_dataset(f"{corpus_dir}/dataset.jsonl")
    assert docs == with_candidates(catalog, dataset, T=3, names=False, degrees=False)
    assert any(m.candidates.truncated for doc in docs for m in doc.mentions)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


# Mentions reach Q1 only through casefolding ("STRASSE" / "Straße"), Q2
# only by its token-free name, Q3 and Q4 by name under whitespace
# variants and by token, Q8 only by an alias token; Q6 is unreachable.
# "apple york" spreads over Q3's name and alias, so it reaches nothing.
REACH_CATALOG = [
    {"qid": "Q1", "name": "Straße", "degree": 3},
    {"qid": "Q2", "name": "!!!", "degree": 2},
    {"qid": "Q3", "name": "New  York", "aliases": ["big apple"], "degree": 5},
    {"qid": "Q4", "name": " new york", "degree": 7},
    {"qid": "Q5", "name": "York Minster", "degree": 9},
    {"qid": "Q6", "name": "unreachable", "degree": 1},
    {"qid": "Q7", "name": "strasse", "aliases": ["street"], "degree": 1},
    {"qid": "Q8", "name": "Gotham", "aliases": ["the apple"], "degree": 6},
]
REACH_MENTIONS = [
    ("STRASSE", "Q1"),
    ("!!!", "Q2"),
    ("New York", "Q3"),
    ("york", "Q5"),
    ("apple", "Q3"),
    ("York Minster", "Q5"),
    ("apple york", None),
    ("nowhere", None),
]


def reach_files(tmp_path, catalog_rows=REACH_CATALOG):
    catalog, dataset = tmp_path / "catalog.jsonl", tmp_path / "dataset.jsonl"
    write_jsonl(catalog, catalog_rows)
    mentions = [{"surface": s, "gold_qid": g, "position": 0} for s, g in REACH_MENTIONS]
    write_jsonl(dataset, [{"doc_id": "d", "mentions": mentions}])
    return str(catalog), str(dataset)


def plain_link_args(catalog, dataset, out, method="degree"):
    args = ["link", "--method", method, "--dataset", dataset, "--catalog", catalog]
    return args + ["--jobs", "1", "--out", out]


@pytest.mark.parametrize("method", ["namematch", "degree"])
def test_reachable_catalog_links_as_the_full_catalog(tmp_path, method):
    catalog_path, dataset_path = reach_files(tmp_path)
    catalog = read_catalog(catalog_path)
    ctx = LinkContext(config=RunConfig(method))
    docs = with_candidates(catalog, load_dataset(dataset_path))
    expected = str(tmp_path / "expected.csv")
    write_predictions((o for r in run_documents(docs, ctx) for o in r.mentions), expected)
    out = str(tmp_path / "run")
    assert main(plain_link_args(catalog_path, dataset_path, out, method)) == 0
    assert read_bytes(f"{out}/predictions.csv") == read_bytes(expected)


@pytest.mark.parametrize(
    "bad,message",
    [
        (
            {"qid": "Q9", "name": "unreachable", "degree": "x"},
            "'degree' must be a non-negative integer",
        ),
        ({"qid": "Q6", "name": "unreachable too"}, "duplicate qid 'Q6'"),
    ],
    ids=["malformed", "duplicate"],
)
def test_catalog_lines_the_dataset_cannot_reach_are_validated(tmp_path, capsys, bad, message):
    catalog, dataset = reach_files(tmp_path, REACH_CATALOG + [bad])
    assert main(plain_link_args(catalog, dataset, str(tmp_path / "x"))) == 3
    line = len(REACH_CATALOG) + 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("method", ["degree", "namematch"])
@pytest.mark.parametrize("name", ["rome", "\\u0072ome"], ids=["plain", "escaped"])
def test_catalog_degree_above_the_largest_float_exits_3(tmp_path, capsys, method, name):
    catalog, dataset = tmp_path / "catalog.jsonl", tmp_path / "dataset.jsonl"
    catalog.write_text(
        f'{{"qid": "Q1", "name": "{name}", "degree": {10**309}}}\n'
        '{"qid": "Q2", "name": "paris", "degree": 1}\n'
    )
    write_jsonl(dataset, [{"doc_id": "d", "mentions": [{"surface": "rome", "gold_qid": "Q1"}]}])
    args = plain_link_args(str(catalog), str(dataset), str(tmp_path / "x"), method)
    assert main(args) == 3
    message = "error: line 1: 'degree' is above the largest float (about 1.8e308)\n"
    assert capsys.readouterr().err == message


def test_link_never_imports_numpy_random(corpus_dir, tmp_path):
    # Importing it costs about 10 ms and 4 MiB a process; the score-gap
    # bootstrap draws from its own counter-based stream instead.
    outs = [str(tmp_path / f"{method}-{kind}") for method, kind in JOBS_CASES]
    runs = []
    for out, (method, kind) in zip(outs, JOBS_CASES):
        extra = text_args(corpus_dir) + (("--weighting", kind) if kind else ())
        runs.append(link_args(corpus_dir, out, method, extra))
    code = (
        "import sys\n"
        "from eigenlink.cli import main\n"
        f"assert [main(args) for args in {runs!r}] == [0] * {len(runs)}\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    # Every method but namematch, whose ranking is its name matches, has a gap to bootstrap.
    gaps = [load_strict_json(f"{out}/metrics.json")["score_gap"] for out in outs]
    assert [method for (method, _), gap in zip(JOBS_CASES, gaps) if gap is None] == ["namematch"]


def test_edges_fill_degrees_of_kept_records(tmp_path):
    rows = [
        {"qid": "Q1", "name": "york"},
        {"qid": "Q5", "name": "York Minster", "degree": 9},
        {"qid": "Q6", "name": "unreachable"},
    ]
    catalog, dataset = reach_files(tmp_path, rows)
    edges = tmp_path / "edges.tsv"
    edges.write_text("Q1\tQ5\nQ1\tQ6\nQ5\tQ6\n")
    args = plain_link_args(catalog, dataset, str(tmp_path / "x")) + ["--edges", str(edges)]
    args = build_parser().parse_args(args)
    _, docs = _load_context(args, [args.method])
    lists = [m.candidates for doc in docs for m in doc.mentions]
    degrees = {q: d for cl in lists for q, d in zip(cl.candidates, cl.degrees)}
    assert degrees == {"Q1": 2, "Q5": 9}


def test_edges_degrees_order_candidates_as_stored_degrees_do(tmp_path):
    rows = [{"qid": f"Q{i}", "name": f"york {i}"} for i in range(1, 6)]
    edges = tmp_path / "edges.tsv"
    edges.write_text("Q2\tQ1\nQ2\tQ3\nQ5\tQ2\nQ3\tQ5\nQ3\tQ9\nQ1\tQ2\n")
    catalog, dataset = reach_files(tmp_path, rows)
    args = plain_link_args(catalog, dataset, str(tmp_path / "x")) + ["--edges", str(edges)]
    args = build_parser().parse_args(args)
    _, docs = _load_context(args, [args.method])
    lists = {m.surface: m.candidates for doc in docs for m in doc.mentions}
    assert lists["york"].candidates == ["Q2", "Q3", "Q5", "Q1", "Q4"]
    assert lists["york"].degrees == [3, 3, 2, 1, 0]
    filled = read_catalog(catalog, edges_path=str(edges))
    stored = [{**row, "degree": line.degree} for row, line in zip(rows, filled)]
    write_jsonl(tmp_path / "catalog.jsonl", stored)
    full = read_catalog(catalog)
    assert docs == with_candidates(full, load_dataset(dataset), names=False)


def test_malformed_edges_are_reported_before_a_malformed_catalog(tmp_path, capsys):
    catalog, dataset = reach_files(tmp_path, REACH_CATALOG + [{"qid": "Q9", "name": 1}])
    edges = tmp_path / "edges.tsv"
    edges.write_text("Q1\tQ2\nQ1\n")
    args = plain_link_args(catalog, dataset, str(tmp_path / "x")) + ["--edges", str(edges)]
    assert main(args) == 3
    assert capsys.readouterr().err == "error: line 2: expected two tab-separated qids\n"


def test_catalog_keeps_only_reachable_records(corpus_dir, tmp_path):
    padded = tmp_path / "catalog.jsonl"
    pad = [{"qid": f"P{i}", "name": f"pad entity {i}"} for i in range(50)]
    padded.write_bytes(read_bytes(f"{corpus_dir}/catalog.jsonl"))
    with open(padded, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in pad)
    args = link_args(corpus_dir, str(tmp_path / "x"), method="namematch")
    args[args.index("--catalog") + 1] = str(padded)
    args = build_parser().parse_args(args)
    _, docs = _load_context(args, [args.method])
    surfaces = {m.surface for doc in docs for m in doc.mentions}
    names = {" ".join(surface.casefold().split()) for surface in surfaces}
    full = read_catalog(str(padded))
    hits = {rec.qid for surface in surfaces for rec in reference_hits(full, surface)}
    reachable = {
        rec.qid for rec in full if rec.qid in hits or " ".join(rec.name.casefold().split()) in names
    }
    mentions = [m for doc in docs for m in doc.mentions]
    kept = {q for m in mentions for cl in (m.candidates, m.name_matches) for q in cl.candidates}
    assert kept == reachable  # no list is cut: every mention has fewer than T candidates
    assert not any(qid.startswith("P") for qid in kept)


@pytest.mark.parametrize(
    "kind,row,key",
    [
        ("catalog", '{"qid": "Z1", "name": "z", "degree": 1, "degree": 2}', "degree"),
        ("dataset", '{"doc_id": "z", "mentions": [{"surface": "z", "surface": "y"}]}', "surface"),
        ("descriptions", '{"qid": "Z1", "description": "z", "description": "z"}', "description"),
    ],
)
def test_repeated_key_in_a_data_row_exits_3(corpus_dir, tmp_path, capsys, kind, row, key):
    rows = read_bytes(f"{corpus_dir}/{kind}.jsonl").decode("utf-8").splitlines(keepends=True)
    path = tmp_path / f"{kind}.jsonl"
    path.write_text("".join(rows) + row + "\n", encoding="utf-8")
    args = link_args(corpus_dir, str(tmp_path / "x"), method="local", extra=text_args(corpus_dir))
    args[args.index(f"--{kind}") + 1] = str(path)
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: line {len(rows) + 1}: key {key!r} is given twice\n"


@pytest.mark.parametrize("bad", ["row-list", "repeated-qid"])
def test_malformed_descriptions_exit_3(corpus_dir, tmp_path, capsys, bad):
    with open(f"{corpus_dir}/descriptions.jsonl", encoding="utf-8") as fh:
        rows = fh.readlines()
    if bad == "row-list":
        extra_row = "[1]\n"
        message = f"line {len(rows) + 1}: a description must be a JSON object"
    else:
        extra_row = rows[0]
        message = f"line {len(rows) + 1}: duplicate qid {json.loads(rows[0])['qid']!r}"
    path = tmp_path / "descriptions.jsonl"
    path.write_text("".join(rows) + extra_row, encoding="utf-8")
    text = ("--words", f"{corpus_dir}/words.txt", "--descriptions", str(path))
    assert main(link_args(corpus_dir, str(tmp_path / "x"), method="local", extra=text)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_recomputes_link_metrics(corpus_dir, tmp_path):
    out = str(tmp_path / "run")
    assert main(link_args(corpus_dir, out, method="eigen")) == 0
    eval_out = str(tmp_path / "eval")
    assert (
        main(["eval", "--predictions", f"{out}/predictions.csv", "--out", eval_out]) == 0
    )
    with open(f"{out}/metrics.json") as fh:
        linked = json.load(fh)
    with open(f"{eval_out}/metrics.json") as fh:
        evaled = json.load(fh)
    assert evaled["precision_at_1"] == linked["precision_at_1"]
    assert evaled["mrr"] == linked["mrr"]
    assert evaled["counts"] == linked["counts"]


GOOD_ROW = "d1,0,Foo,Q1,Q1,easy,1,0.5"
BOTH_OR_NEITHER = "bucket and gold_qid must both be set or empty"
ONE_IFF_GOLD = "rank_of_gold is 1 exactly when predicted_qid is gold_qid"


@pytest.mark.parametrize(
    "row,message",
    [
        ("d1,1,Foo,Q1,Q1,easy,1", "line 3: expected 8 fields, got 7"),
        ("d1,one,Foo,Q1,Q1,easy,1,0.5", "line 3: bad mention_idx 'one'"),
        ("d1,1,Foo,Q1,Q1,easy,1.0,0.5", "line 3: bad rank_of_gold '1.0'"),
        ("d1,1,Foo,Q1,Q1,easy,0,0.5", "line 3: bad rank_of_gold '0'"),
        ("d1,1,Foo,Q1,Q1,easy,1,high", "line 3: bad score 'high'"),
        ("d1,1,Foo,Q1,Q1,easy,1,nan", "line 3: bad score 'nan'"),
        ("d1,0_0,Foo,Q1,Q1,easy,1,0.5", "line 3: bad mention_idx '0_0'"),
        ("d1,+0,Foo,Q1,Q1,easy,1,0.5", "line 3: bad mention_idx '+0'"),
        ("d1,\u0660,Foo,Q1,Q1,easy,1,0.5", "line 3: bad mention_idx '\u0660'"),
        ("d1,1,Foo,Q1,Q1,easy, 1,0.5", "line 3: bad rank_of_gold ' 1'"),
        ("d1,1,Foo,Q1,Q1,easy,1,1_0.5", "line 3: bad score '1_0.5'"),
        ("d1,00,Foo,Q1,Q1,easy,1,0.5", "line 3: bad mention_idx '00'"),
        ("d1,01,Foo,Q1,Q1,easy,1,0.5", "line 3: bad mention_idx '01'"),
        ("d1,1,Foo,Q1,Q1,easy,01,0.5", "line 3: bad rank_of_gold '01'"),
        ("d1,1" + "0" * 400 + ",Foo,Q1,Q1,easy,1,0.5", f"line 3: bad mention_idx '1{'0' * 400}'"),
        ("d1,1,Foo,Q1,Q1,medium,1,0.5", "line 3: unknown bucket 'medium'"),
        (GOOD_ROW, "line 3: repeated mention 'd1' #0"),
        # Rows write_predictions never writes.
        ("d1,1,m,,Q1,easy,1,0.5", f"line 3: {BOTH_OR_NEITHER}"),
        ("d1,1,m,Q1,Q1,,1,0.5", f"line 3: {BOTH_OR_NEITHER}"),
        ("d1,1,m,,Q1,,1,0.5", "line 3: rank_of_gold without a gold_qid"),
        ("d1,1,m,Q1,Q2,hard,1,0.5", f"line 3: {ONE_IFF_GOLD}"),
        ("d1,1,m,Q1,,hard,1,", f"line 3: {ONE_IFF_GOLD}"),
        ("d1,1,m,Q1,Q1,hard,2,0.5", f"line 3: {ONE_IFF_GOLD}"),
        ("d1,1,m,Q1,Q1,not_found,,0.5", f"line 3: {ONE_IFF_GOLD}"),
    ],
    ids=[
        "short-row",
        "mention-idx",
        "rank-not-int",
        "rank-zero",
        "score-text",
        "score-nan",
        "mention-idx-underscore",
        "mention-idx-plus",
        "mention-idx-arabic-indic",
        "rank-space",
        "score-underscore",
        "mention-idx-double-zero",
        "mention-idx-leading-zero",
        "rank-leading-zero",
        "mention-idx-too-large-for-a-float",
        "unknown-bucket",
        "repeated-mention",
        "bucket-without-gold",
        "gold-without-bucket",
        "rank-without-gold",
        "rank-1-other-prediction",
        "rank-1-no-prediction",
        "gold-predicted-rank-2",
        "gold-predicted-unranked",
    ],
)
def test_eval_rejects_malformed_prediction_rows(tmp_path, capsys, row, message):
    path = tmp_path / "predictions.csv"
    header = "doc_id,mention_idx,surface,gold_qid,predicted_qid,bucket,rank_of_gold,score"
    path.write_text("\n".join([header, GOOD_ROW, row]) + "\n", encoding="utf-8")
    assert main(["eval", "--predictions", str(path), "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_accepts_every_row_kind_link_writes(tmp_path):
    rows = [
        "d1,1,m,Q1,Q2,hard,3,0.5",  # gold ranked, not first
        "d1,2,m,Q1,Q2,hard,,0.5",  # namematch: gold a candidate but not a name match
        "d1,3,m,Q1,Q1,not_found,1,0.5",  # namematch: gold a name match, not a candidate
        "d1,4,m,Q1,,not_found,,",  # no prediction
        "d1,5,m,,Q2,,,0.5",  # unlabeled
    ]
    path = tmp_path / "predictions.csv"
    header = "doc_id,mention_idx,surface,gold_qid,predicted_qid,bucket,rank_of_gold,score"
    path.write_text("\n".join([header, GOOD_ROW, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(["eval", "--predictions", str(path), "--out", str(out)]) == 0
    metrics = load_strict_json(out / "metrics.json")
    assert metrics["counts"] == {"easy": 1, "hard": 2, "not_found": 2, "total": 5, "unlabeled": 1}
    assert metrics["precision_at_1"]["overall"] == 2 / 5


def test_eval_bad_header_names_line_1(tmp_path, capsys):
    path = tmp_path / "predictions.csv"
    path.write_text("doc_id,mention_idx\n" + GOOD_ROW + "\n", encoding="utf-8")
    assert main(["eval", "--predictions", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err == "error: line 1: unexpected predictions header: ['doc_id', 'mention_idx']\n"


def test_config_file_with_flag_override(corpus_dir, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"k": 4, "seed": 9}))
    out = str(tmp_path / "cfg")
    args = link_args(
        corpus_dir,
        out,
        method="eigen",
        extra=("--config-file", str(cfg_path), "--seed", "11"),
    )
    assert main(args) == 0
    with open(f"{out}/metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["config"]["k"] == 4  # from file
    assert metrics["config"]["seed"] == 11  # flag wins


@pytest.mark.parametrize(
    "file_cfg",
    [
        {"bogus": 1},
        {"k": "10"},
        {"T": 2.5},
        {"k": True},
        {"rescale": "false"},
        {"method": "avg"},
    ],
    ids=["bogus", "k-string", "T-float", "k-bool", "rescale-string", "method"],
)
def test_config_file_unknown_key_exits_4(corpus_dir, tmp_path, capsys, file_cfg):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(file_cfg))
    out = str(tmp_path / "x")
    args = link_args(corpus_dir, out, extra=("--config-file", str(cfg_path)))
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text", ['{"k": 5, "k": 7}', '{"k": 5, "seed": 1, "k": 5}'], ids=["changed", "same-value"]
)
def test_config_file_repeated_key_exits_4(corpus_dir, tmp_path, capsys, text):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    out = tmp_path / "x"
    assert main(link_args(corpus_dir, str(out), extra=("--config-file", str(cfg_path)))) == 4
    assert capsys.readouterr().err == "error: config-file key 'k' is given twice\n"
    assert not out.exists()


def test_config_file_int_widens_to_float_field(corpus_dir, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"delta": 2}))
    out = str(tmp_path / "cfg")
    assert main(link_args(corpus_dir, out, extra=("--config-file", str(cfg_path)))) == 0
    with open(f"{out}/metrics.json") as fh:
        assert '"delta": 2.0,' in fh.read()


def test_config_file_oversized_int_for_float_field_exits_4(corpus_dir, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"delta": 1%s}' % ("0" * 400))
    out = tmp_path / "x"
    assert main(link_args(corpus_dir, str(out), extra=("--config-file", str(cfg_path)))) == 4
    assert capsys.readouterr().err == "error: config-file key 'delta' is too large for a float\n"
    assert not out.exists()


# (method, weighting): every weighting, under methods that do and do not read it.
DELTA_RUNS = [("eigen", "none"), ("eigen", "degree_rr"), ("avg", "degree_rr"), ("degree", "none")]
DELTA_VALUES = [
    ("flag", "nan"),
    ("flag", "inf"),
    ("flag", "-inf"),
    ("file", "NaN"),
    ("file", "Infinity"),
]


@pytest.mark.parametrize("source,value", DELTA_VALUES)
@pytest.mark.parametrize("method,weighting", DELTA_RUNS)
def test_non_finite_delta_exits_4(corpus_dir, tmp_path, capsys, method, weighting, source, value):
    if source == "flag":
        extra = (f"--delta={value}",)
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"delta": %s}' % value)
        extra = ("--config-file", str(cfg_path))
    out = tmp_path / "x"
    args = link_args(corpus_dir, str(out), method=method, extra=("--weighting", weighting, *extra))
    assert main(args) == 4
    assert capsys.readouterr().err == f"error: delta must be finite, got {float(value)}\n"
    assert not out.exists()


def test_jobs_defaults_to_one(corpus_dir, tmp_path):
    args = link_args(corpus_dir, str(tmp_path / "x"))
    del args[args.index("--jobs") : args.index("--jobs") + 2]
    parsed = build_parser().parse_args(args)
    (ctx,), _ = _load_context(parsed, [parsed.method])
    assert ctx.config.jobs == 1


def test_mutilate_degree_collapses_to_zero(corpus_dir, tmp_path):
    out = str(tmp_path / "mut")
    args = [
        "mutilate",
        "--methods",
        "degree",
        "--fractions",
        "1.0,0.0",
        "--repeats",
        "2",
        "--dataset",
        f"{corpus_dir}/dataset.jsonl",
        "--catalog",
        f"{corpus_dir}/catalog.jsonl",
        "--jobs",
        "1",
        "--out",
        out,
    ]
    assert main(args) == 0
    with open(f"{out}/mutilation.json") as fh:
        payload = json.load(fh)
    assert payload["format"] == "eigenlink-mutilation"
    assert payload["fractions"] == [1.0, 0.0]
    assert payload["p1_overall"]["degree"][1] == 0.0
    assert "method" not in payload["config"]
    assert payload["config"]["methods"] == ["degree"]


def mutilate_args(corpus_dir, out, methods):
    args = link_args(corpus_dir, out)
    args[:3] = ["mutilate", "--methods", methods]
    return args + ["--fractions", "1.0,0.5", "--repeats", "1"]


@pytest.mark.parametrize("command", ["link", "mutilate"])
def test_commands_link_through_the_cli_run_documents_name(
    corpus_dir, tmp_path, monkeypatch, command
):
    # perfbench hooks this name to split setup time from linking time.
    calls = []
    linked = cli.run_documents

    def recording(*args, **kwargs):
        calls.append(command)
        return linked(*args, **kwargs)

    monkeypatch.setattr(cli, "run_documents", recording)
    out = str(tmp_path / "x")
    if command == "link":
        assert main(link_args(corpus_dir, out)) == 0
    else:
        assert main(mutilate_args(corpus_dir, out, "degree")) == 0
    assert calls


def test_mutilate_links_each_distinct_subset_once_per_method(corpus_dir, tmp_path, monkeypatch):
    linked = []
    run = cli.run_documents

    def recording(subset, ctx):
        # The subsets share the full documents' Mention objects, so ids name them.
        linked.extend((ctx.config.method, d.doc_id, tuple(map(id, d.mentions))) for d in subset)
        return run(subset, ctx)

    monkeypatch.setattr(cli, "run_documents", recording)
    args = mutilate_args(corpus_dir, str(tmp_path / "x"), "eigen,degree,avg")
    args[args.index("--fractions") + 1] = "1.0,0.6,0.3,0.0"
    args[args.index("--repeats") + 1] = "3"
    assert main(args) == 0
    by_method = {}
    for method, *key in linked:
        by_method.setdefault(method, []).append(tuple(key))
    assert all(len(keys) == len(set(keys)) for keys in by_method.values())
    assert set(by_method["eigen"]) == set(by_method["degree"]) == set(by_method["avg"])


def test_mutilate_reads_the_config_file_once(corpus_dir, tmp_path, monkeypatch):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write('{"T": 4, "k": 3}')
    reads = []
    opening = open

    def counting(file, *args, **kwargs):
        reads.append(file)
        return opening(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    args = mutilate_args(corpus_dir, str(tmp_path / "x"), "eigen,avg,degree")
    assert main([*args, "--config-file", cfg_path]) == 0
    assert reads.count(cfg_path) == 1


@pytest.mark.parametrize(
    "command,method,kind",
    [
        ("link", "local", "degree_rr"),
        ("mutilate", "local", "degree_rr"),
        ("mutilate", "eigen", "local_ctxt_rr"),
    ],
)
def test_document_without_mentions_or_tokens_exits_4_whatever_the_fractions(
    corpus_dir, tmp_path, capsys, command, method, kind
):
    dataset = tmp_path / "dataset.jsonl"
    empty = b'{"doc_id": "empty", "mentions": []}\n'
    dataset.write_bytes(read_bytes(f"{corpus_dir}/dataset.jsonl") + empty)
    args = link_args(corpus_dir, str(tmp_path / "x"), method=method)
    args += [*text_args(corpus_dir), "--weighting", kind]
    args[args.index("--dataset") + 1] = str(dataset)
    if command == "mutilate":
        args[:3] = ["mutilate", "--methods", method]
        args += ["--fractions", "0.5"]
    assert main(args) == 4
    message = "document 'empty' has no 'tokens' field, which context methods and weightings need"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fraction", ["1.5", "-0.1", "nan", "inf"])
def test_mutilate_fraction_out_of_range_exits_4_before_loading(
    corpus_dir, tmp_path, capsys, fraction
):
    args = [
        "mutilate",
        "--methods",
        "degree",
        "--fractions",
        f"1.0,{fraction}",
        "--dataset",
        f"{corpus_dir}/dataset.jsonl",
        "--catalog",
        str(tmp_path / "missing.jsonl"),
        "--out",
        str(tmp_path / "mut"),
    ]
    assert main(args) == 4
    message = f"fractions must lie in [0, 1], got {float(fraction)}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_mutilate_repeated_method_exits_4_before_loading(corpus_dir, tmp_path, capsys):
    args = [
        "mutilate",
        "--methods",
        "eigen,degree,eigen",
        "--dataset",
        f"{corpus_dir}/dataset.jsonl",
        "--catalog",
        str(tmp_path / "missing.jsonl"),
        "--out",
        str(tmp_path / "mut"),
    ]
    assert main(args) == 4
    assert capsys.readouterr().err == "error: method 'eigen' is listed twice\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--methods", ""], "need at least one method"),
        (["--methods", " , "], "need at least one method"),
        (["--methods", "degree", "--fractions", "0.5,0.5"], "fraction 0.5 is listed twice"),
        (["--methods", "degree", "--fractions", "0.0,-0.0"], "fraction -0.0 is listed twice"),
        (["--methods", "degree", "--fractions", "0.5,0.5004"], "fraction 0.5004 is listed twice"),
    ],
    ids=[
        "no-method",
        "blank-methods",
        "repeated-fraction",
        "signed-zero-fraction",
        "fraction-within-a-thousandth",
    ],
)
def test_mutilate_empty_methods_or_repeated_fraction_exits_4_before_loading(
    corpus_dir, tmp_path, capsys, flags, message
):
    args = [
        "mutilate",
        *flags,
        "--dataset",
        f"{corpus_dir}/dataset.jsonl",
        "--catalog",
        str(tmp_path / "missing.jsonl"),
        "--out",
        str(tmp_path / "mut"),
    ]
    assert main(args) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--weighting", "bogus"], "argument --weighting: invalid choice: 'bogus'"),
        (["--method", "bogus"], "argument --method: invalid choice: 'bogus'"),
        (["--k", "abc"], "argument --k: invalid int value: 'abc'"),
        (["--delta", "x"], "argument --delta: invalid float value: 'x'"),
        (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ],
    ids=["weighting", "method", "k", "delta", "unknown-flag"],
)
def test_bad_flag_values_exit_4_with_one_error_line(tmp_path, capsys, flags, message):
    # The input files do not exist: a flag error stops before any is read.
    args = ["link", "--dataset", "d", "--catalog", "c", "--out", str(tmp_path / "x"), *flags]
    assert main(args) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["link", "--help"])
    assert exc.value.code == 0
    assert "--weighting" in capsys.readouterr().out


def test_unscaled_flag_changes_scores(corpus_dir, tmp_path):
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(link_args(corpus_dir, out1, method="eigen")) == 0
    assert main(link_args(corpus_dir, out2, method="eigen", extra=("--unscaled",))) == 0
    assert read_bytes(f"{out1}/predictions.csv") != read_bytes(f"{out2}/predictions.csv")
    with open(f"{out2}/metrics.json") as fh:
        assert json.load(fh)["config"]["rescale"] is False


def test_namematch_runs_even_without_exact_names(corpus_dir, tmp_path):
    # synthetic corpora reach candidates through aliases only, so exact
    # name matching legitimately predicts nothing
    out = str(tmp_path / "nm")
    assert main(link_args(corpus_dir, out, method="namematch")) == 0
    with open(f"{out}/metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["precision_at_1"]["overall"] == 0.0


def test_namematch_not_found_mention_can_score(tmp_path):
    # T=1 keeps only Q1, the higher degree, so gold Q2 is not found; but
    # namematch ranks its name matches, and Q2's name is the mention's.
    catalog, dataset = tmp_path / "catalog.jsonl", tmp_path / "dataset.jsonl"
    write_jsonl(
        catalog,
        [
            {"qid": "Q1", "name": "Rome Italy", "degree": 9},
            {"qid": "Q2", "name": "Rome", "degree": 5},
        ],
    )
    write_jsonl(dataset, [{"doc_id": "d", "mentions": [{"surface": "Rome", "gold_qid": "Q2"}]}])
    out = tmp_path / "run"
    args = plain_link_args(str(catalog), str(dataset), str(out), "namematch") + ["--T", "1"]
    assert main(args) == 0
    with open(out / "predictions.csv", newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert (row["bucket"], row["predicted_qid"], row["rank_of_gold"]) == ("not_found", "Q2", "1")
    metrics = load_strict_json(out / "metrics.json")
    assert metrics["precision_at_1"]["overall"] == 1.0
    assert metrics["mrr"]["overall"] == 1.0
    assert metrics["oracle_recall"] == 0.0


def test_link_with_edge_list_degrees(tmp_path):
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text(
        '{"qid": "Q1", "name": "acme corp"}\n'
        '{"qid": "Q2", "name": "acme labs"}\n'
    )
    edges = tmp_path / "edges.tsv"
    edges.write_text("Q1\tQ2\nQ1\tQ3\n")  # Q1 degree 2, Q2 degree 1
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        '{"doc_id": "d", "mentions": [{"surface": "acme", "gold_qid": "Q1", "position": 0}]}\n'
    )
    out = str(tmp_path / "run")
    args = [
        "link",
        "--method",
        "degree",
        "--dataset",
        str(dataset),
        "--catalog",
        str(catalog),
        "--edges",
        str(edges),
        "--jobs",
        "1",
        "--out",
        out,
    ]
    assert main(args) == 0
    with open(f"{out}/metrics.json") as fh:
        metrics = json.load(fh)
    assert metrics["precision_at_1"]["overall"] == 1.0  # Q1 outranks Q2 via edges


# A bad line in any text input exits 3 with one error line naming it.
PREDICTIONS_HEADER = b"doc_id,mention_idx,surface,gold_qid,predicted_qid,bucket,rank_of_gold,score"
BAD_LINES = {
    "utf8": (b'{"qid": "Q\xff"}', "not valid UTF-8"),
    "surrogate": (b'{"qid": "Q\\udfff"}', "escape of a lone surrogate"),
    "nesting": (b"[" * 100_000, "JSON nested too deeply"),
    "long-field": (
        b"d1,1," + b"x" * 131_073 + b",Q1,Q1,easy,1,0.5",
        "field larger than field limit (131072)",
    ),
}
BAD_LINE_CASES = [
    ("catalog", "utf8", 2),
    ("catalog", "nesting", 2),
    ("catalog", "surrogate", 2),
    ("dataset", "utf8", 2),
    ("dataset", "nesting", 2),
    ("dataset", "surrogate", 2),
    ("descriptions", "utf8", 2),
    ("descriptions", "nesting", 2),
    ("descriptions", "surrogate", 2),
    ("edges", "utf8", 2),
    ("predictions", "utf8", 2),
    ("predictions", "long-field", 2),
    ("config", "utf8", 2),
    # a document's nesting error names the line the document starts on
    ("config", "nesting", 1),
]


@pytest.mark.parametrize(
    "kind,bad,line", BAD_LINE_CASES, ids=[f"{kind}-{bad}" for kind, bad, _ in BAD_LINE_CASES]
)
def test_bad_line_in_text_input_exits_3(corpus_dir, tmp_path, capsys, kind, bad, line):
    path = str(tmp_path / kind)
    args = link_args(corpus_dir, str(tmp_path / "x"), method="local", extra=text_args(corpus_dir))
    if kind in ("catalog", "dataset", "descriptions"):
        lines = read_bytes(args[args.index(f"--{kind}") + 1]).splitlines(keepends=True)
        args[args.index(f"--{kind}") + 1] = path
    elif kind == "edges":
        lines = [b"Q1\tQ2\n", b"Q2\tQ3\n"]
        args += ["--edges", path]
    elif kind == "predictions":
        lines = [PREDICTIONS_HEADER + b"\r\n", b"d1,0,Foo,Q1,Q1,easy,1,0.5\r\n"]
        args = ["eval", "--predictions", path, "--out", str(tmp_path / "x")]
    else:
        lines = [b'{"k": 4, "T":\n', b"3}\n"]
        args += ["--config-file", path]
    bad_line, message = BAD_LINES[bad]
    with open(path, "wb") as fh:
        fh.write(b"".join([lines[0], bad_line + b"\n", *lines[1:]]))
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def test_context_weighting_is_ignored_by_methods_without_embeddings(corpus_dir, tmp_path):
    outs = {kind: str(tmp_path / kind) for kind in ("degree_rr", "local_ctxt_rr")}
    for kind, out in outs.items():
        args = link_args(corpus_dir, out, extra=("--weighting", kind))
        args[args.index("--embeddings") : args.index("--embeddings") + 2] = []
        assert main(args) == 0
    assert read_bytes(f"{outs['degree_rr']}/predictions.csv") == read_bytes(
        f"{outs['local_ctxt_rr']}/predictions.csv"
    )


def test_context_weighting_without_words_still_exits_4_for_eigen(corpus_dir, tmp_path, capsys):
    args = link_args(corpus_dir, str(tmp_path / "x"), method="eigen")
    args += ["--weighting", "local_ctxt_rr"]
    for extra in ([], ["--descriptions", f"{corpus_dir}/descriptions.jsonl"]):
        assert main(args + extra) == 4
        assert capsys.readouterr().err == (
            "error: context-based methods and weightings need word embeddings "
            "and entity descriptions\n"
        )


# Numbers at the edges of int64, float64 and what JSON can spell, for each
# numeric input: a catalog degree, a mention position, a config-file value
# or a flag. --jobs is left out, since a large value could start that many
# workers.
NUMERIC_EXTREMES = [
    "0",
    "1",
    "-1",
    str(2**53 + 1),
    str(2**63),
    str(10**309),
    "5e-324",
    "1e308",
    "1.7976931348623157e308",
    "-1.7976931348623157e308",
    "1.3407807929942596e154",
]
NUMERIC_FLAGS = ["k", "T", "delta", "window", "seed"]
# Values for the first embedding row's first component or for all of them:
# zero, subnormal, near where a squared norm underflows or overflows, and
# spellings past a float.
EMBEDDING_EXTREMES = [
    "0",
    "-0.0",
    "5e-324",
    "1e-320",
    "1.3e154",
    "1e155",
    "1e308",
    "1.7976931348623157e308",
    "1e309",
    "inf",
    "nan",
]


def jsonl_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    method=st.sampled_from(sorted(METHODS)),
    numbers=st.lists(
        st.tuples(
            st.sampled_from(["degree", "position", "config-file", "flag"]),
            st.sampled_from(NUMERIC_FLAGS),
            st.sampled_from(NUMERIC_EXTREMES),
        ),
        min_size=1,
        max_size=3,
    ),
    embedding=st.none() | st.tuples(st.sampled_from(EMBEDDING_EXTREMES), st.booleans()),
)
def test_numeric_extremes_link_or_exit_3_or_4(
    corpus_dir, tmp_path_factory, capsys, method, numbers, embedding
):
    work = tmp_path_factory.mktemp("extremes")
    catalog = jsonl_rows(f"{corpus_dir}/catalog.jsonl")
    dataset = jsonl_rows(f"{corpus_dir}/dataset.jsonl")
    config, flags = {}, []
    for where, name, text in numbers:
        if where == "degree":
            catalog[0]["degree"] = json.loads(text)
        elif where == "position":
            dataset[0]["mentions"][0]["position"] = json.loads(text)
        elif where == "config-file":
            config[name] = json.loads(text)
        else:
            flags += [f"--{name}", text]
    for name, rows in (("catalog", catalog), ("dataset", dataset)):
        (work / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    (work / "config.json").write_text(json.dumps(config))
    args = link_args(corpus_dir, str(work / "out"), method, extra=text_args(corpus_dir))
    args[args.index("--catalog") + 1] = str(work / "catalog.jsonl")
    args[args.index("--dataset") + 1] = str(work / "dataset.jsonl")
    if embedding is not None:
        value, whole_row = embedding
        with open(f"{corpus_dir}/embeddings.txt", encoding="utf-8") as fh:
            header, first, *rest = fh.readlines()
        qid, *values = first.split()
        values = [value] * len(values) if whole_row else [value, *values[1:]]
        first = " ".join([qid, *values]) + "\n"
        (work / "embeddings.txt").write_text("".join([header, first, *rest]))
        args[args.index("--embeddings") + 1] = str(work / "embeddings.txt")
    code = main([*args, *flags, "--config-file", str(work / "config.json")])
    err = capsys.readouterr().err
    assert code in (0, 3, 4)
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == (code != 0)
