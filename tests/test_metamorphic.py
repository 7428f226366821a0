"""Metamorphic contracts: changes to the inputs that must leave the outputs as they are.

Each test rewrites the small synthetic corpus in a way the README says
cannot matter, links the original and the rewrite through the CLI, and
compares the artifacts byte for byte. The only difference allowed is the
echo of the input paths in ``metrics.json``.
"""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlink.cli import main
from eigenlink.dataset import load_dataset
from eigenlink.index import tokenize
from eigenlink.pipeline import METHODS
from tests.conftest import read_catalog, with_candidates

INPUTS = {
    "--dataset": "dataset.jsonl",
    "--catalog": "catalog.jsonl",
    "--embeddings": "embeddings.txt",
    "--words": "words.txt",
    "--descriptions": "descriptions.jsonl",
}
# Every method, plus eigen under both context weightings.
SETUPS = [(method, "degree_rr") for method in METHODS] + [
    ("eigen", "local_ctxt_rr"),
    ("eigen", "global_ctxt_rr"),
]


def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def link_outputs(corpus_dir, out, method, weighting) -> tuple[bytes, bytes]:
    """``predictions.csv`` and ``metrics.json`` of a link run, with ``corpus_dir`` masked."""
    args = ["link", "--method", method, "--weighting", weighting, "--out", str(out)]
    for flag, name in INPUTS.items():
        args += [flag, f"{corpus_dir}/{name}"]
    assert main(args) == 0
    with open(f"{out}/predictions.csv", "rb") as fh:
        predictions = fh.read()
    with open(f"{out}/metrics.json", "rb") as fh:
        metrics = fh.read().replace(str(corpus_dir).encode(), b"<corpus>")
    return predictions, metrics


def mention_tokens(corpus_dir) -> set[str]:
    docs = load_dataset(f"{corpus_dir}/dataset.jsonl")
    return {tok for doc in docs for m in doc.mentions for tok in tokenize(m.surface)}


def unreachable_lines(corpus_dir, degrees: list[int]) -> dict[str, list[str]]:
    """Catalog, embedding and description lines of one unreachable record per degree.

    No name or alias token of these records is a mention token, so no
    mention can reach them, however large their degree.
    """
    dim = int(read_lines(f"{corpus_dir}/embeddings.txt")[0].split()[1])
    words = [line.split(" ", 1)[0] for line in read_lines(f"{corpus_dir}/words.txt")[1:]]
    rng = np.random.default_rng(len(degrees))
    added = {"catalog.jsonl": [], "embeddings.txt": [], "descriptions.jsonl": []}
    for i, degree in enumerate(degrees):
        qid = f"U{i}"
        record = {"qid": qid, "name": f"unreached u{i}", "aliases": [f"far u{i}"]}
        added["catalog.jsonl"].append(json.dumps({**record, "degree": degree}) + "\n")
        vector = " ".join(f"{x:.9g}" for x in rng.standard_normal(dim))
        added["embeddings.txt"].append(f"{qid} {vector}\n")
        description = " ".join(words[(7 * i + j) % len(words)] for j in range(4))
        added["descriptions.jsonl"].append(json.dumps({"qid": qid, "description": description}) + "\n")
    return added


def rewrite_corpus(src, dst, shuffle: random.Random, added: dict[str, list[str]]) -> None:
    """Copy the corpus with ``added`` lines appended and every input but the dataset shuffled.

    Embedding and word files keep their header first, with the row count
    fixed for the added rows.
    """
    dst.mkdir()
    write_lines(dst / "dataset.jsonl", read_lines(f"{src}/dataset.jsonl"))
    for name in ("catalog.jsonl", "embeddings.txt", "words.txt", "descriptions.jsonl"):
        lines = read_lines(f"{src}/{name}")
        header = lines.pop(0).split() if name.endswith(".txt") else None
        lines += added.get(name, [])
        shuffle.shuffle(lines)
        if header:
            lines.insert(0, f"{len(lines)} {header[1]}\n")
        write_lines(dst / name, lines)


@pytest.fixture(scope="module")
def original_outputs(small_corpus, tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("original_outputs")
    return {
        setup: link_outputs(small_corpus.dir, out / "-".join(setup), *setup) for setup in SETUPS
    }


def test_line_order_and_unreachable_additions_leave_outputs_unchanged(
    small_corpus, original_outputs, tmp_path
):
    tokens = mention_tokens(small_corpus.dir)
    runs = itertools.count()

    @settings(max_examples=6, deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(st.integers(0, 10**9), max_size=4))
    def check(shuffle, degrees):
        added = unreachable_lines(small_corpus.dir, degrees)
        for line in added["catalog.jsonl"]:
            record = json.loads(line)
            assert tokens.isdisjoint(tokenize(" ".join([record["name"], *record["aliases"]])))
        corpus = tmp_path / f"corpus{next(runs)}"
        rewrite_corpus(small_corpus.dir, corpus, shuffle, added)
        for setup in SETUPS:
            got = link_outputs(corpus, corpus / ("out-" + "-".join(setup)), *setup)
            assert got == original_outputs[setup], setup

    check()


def tie_degrees(corpus_dir, dst) -> None:
    """Copy the corpus with every degree one of two values, so most candidates tie."""
    dst.mkdir()
    for name in INPUTS.values():
        write_lines(dst / name, read_lines(f"{corpus_dir}/{name}"))
    records = [json.loads(line) for line in read_lines(f"{corpus_dir}/catalog.jsonl")]
    for record in records:
        record["degree"] = 5 if int(record["qid"][1:]) % 3 else 9
    write_lines(dst / "catalog.jsonl", [json.dumps(r) + "\n" for r in records])


def test_degree_ties_are_ordered_by_qid_whatever_the_catalog_order(small_corpus, tmp_path):
    forward, backward = tmp_path / "forward", tmp_path / "backward"
    tie_degrees(small_corpus.dir, forward)
    tie_degrees(small_corpus.dir, backward)
    write_lines(backward / "catalog.jsonl", read_lines(forward / "catalog.jsonl")[::-1])

    docs = load_dataset(f"{forward}/dataset.jsonl")
    lists = []
    for corpus in (forward, backward):
        catalog = read_catalog(f"{corpus}/catalog.jsonl")
        attached = with_candidates(catalog, docs)
        lists.append([m.candidates for doc in attached for m in doc.mentions])
    assert lists[0] == lists[1]
    degree_of = {line.qid: line.degree for line in catalog}
    degrees = [[degree_of[q] for q in c.candidates] for c in lists[0]]
    assert any(len(set(d)) < len(d) for d in degrees)  # the ties are real
    for candidates, degree in zip(lists[0], degrees):
        order = list(zip((-x for x in degree), candidates.candidates))
        assert order == sorted(order)

    for setup in SETUPS:
        name = "-".join(setup)
        assert link_outputs(forward, forward / name, *setup) == link_outputs(
            backward, backward / name, *setup
        ), setup
