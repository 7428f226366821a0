"""Benchmark workloads and the corpus generator behind them.

Each workload is a synthetic corpus made by ``eigenlink.synth.generate``
from the benchmark's seed, plus the ``eigenlink link`` flags run on it.
Run as a script, this module writes one workload's corpus:

    python3 perfbench/workloads.py --src src --workload eigen-d64 --seed 1 --out DIR

It runs in its own process so that generating a large corpus does not
leave its memory in the process that times the link runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict

WORKLOADS = {
    "eigen-d64": {
        "why": (
            "Subspace-bound path: 80x64 document matrices (more rows than columns), "
            "so the truncated SVD dominates link_s."
        ),
        "synth": {"d": 64, "docs": 10, "mentions_per_doc": 8, "candidates_per_mention": 10},
        "slice_docs": None,
        "link": ["--method", "eigen", "--weighting", "degree_rr"],
        "text": False,
    },
    "eigen-d300-ctx": {
        "why": (
            "d=300 with context weighting: 80x300 matrices (fewer rows than columns) "
            "and the description store plus context ranking in the weighting layer."
        ),
        "synth": {"d": 300, "docs": 1, "mentions_per_doc": 8, "candidates_per_mention": 10},
        "slice_docs": None,
        "link": ["--method", "eigen", "--weighting", "local_ctxt_rr"],
        "text": True,
    },
    "bulk-avg": {
        "why": (
            "No subspace: 80k-entity catalog and embeddings with a 250-document slice, "
            "so loading, candidates, avg scoring and the bootstrap dominate and only "
            "a quarter of the embedding rows are used."
        ),
        "synth": {"d": 64, "docs": 1000, "mentions_per_doc": 8, "candidates_per_mention": 10},
        "slice_docs": 250,
        "link": ["--method", "avg", "--weighting", "degree_rr"],
        "text": False,
    },
}


def planted_counts(documents: list[dict]) -> dict[str, int]:
    """Bucket counts the candidate generator must reproduce from the manifest.

    Every synthetic candidate list is shorter than the default T, so a
    mention is not_found exactly when the generator dropped its gold alias.
    """
    counts = {"easy": 0, "hard": 0, "not_found": 0}
    for doc in documents:
        for m in doc["mentions"]:
            if m["missed"]:
                counts["not_found"] += 1
            else:
                counts["easy" if m["easy"] else "hard"] += 1
    counts["total"] = sum(counts.values())
    counts["unlabeled"] = 0
    return counts


def corpus_key(src: str, name: str, seed: int) -> dict:
    """What a corpus on disk must have been made from to be reused.

    It names the seed, the workload's corpus definition and a digest of
    the generator's source, so a resized workload or a changed generator
    never reuses an older corpus.
    """
    workload = WORKLOADS[name]
    with open(os.path.join(src, "eigenlink", "synth.py"), "rb") as fh:
        generator = hashlib.sha256(fh.read()).hexdigest()
    return {
        "seed": seed,
        "synth": workload["synth"],
        "slice_docs": workload["slice_docs"],
        "text": workload["text"],
        "generator": generator,
    }


def make_corpus(src: str, name: str, seed: int, out: str) -> dict:
    """Generate the workload's corpus into ``out`` and describe it in corpus.json.

    The files are written to a temporary sibling first and renamed, so an
    interrupted run never leaves a partial corpus behind to be reused.
    """
    sys.path.insert(0, os.path.abspath(src))
    from eigenlink.synth import SynthConfig, generate

    workload = WORKLOADS[name]
    cfg = SynthConfig(seed=seed, **workload["synth"])
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    manifest = generate(cfg, tmp)

    n_docs = workload["slice_docs"] or len(manifest["documents"])
    documents = manifest["documents"][:n_docs]
    dataset = "dataset.jsonl"
    if n_docs < len(manifest["documents"]):
        dataset = "slice.jsonl"
        with open(os.path.join(tmp, "dataset.jsonl"), encoding="utf-8") as fin, open(
            os.path.join(tmp, dataset), "w", encoding="utf-8"
        ) as fout:
            for _, line in zip(range(n_docs), fin):
                fout.write(line)

    files = {"dataset": dataset, "catalog": "catalog.jsonl", "embeddings": "embeddings.txt"}
    if workload["text"]:
        files.update(words="words.txt", descriptions="descriptions.jsonl")
    counts = planted_counts(documents)
    with open(os.path.join(tmp, "catalog.jsonl"), encoding="utf-8") as fh:
        entities = sum(1 for _ in fh)
    corpus = {
        "workload": name,
        "key": corpus_key(src, name, seed),
        "synth": asdict(cfg),
        "documents": n_docs,
        "mentions": counts["total"],
        "entities": entities,
        "counts": counts,
        "files": files,
    }
    with open(os.path.join(tmp, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the eigenlink package")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    make_corpus(args.src, args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
