"""Deterministic synthetic corpora with planted low-rank gold structure.

Each document samples an orthonormal basis; gold-entity embeddings are
unit-normalized noisy points inside that span while distractors are
isotropic on the sphere (or, in adversarial mode, partly drawn from a
competing planted cluster). Names and aliases are constructed so the
inverted index reproduces exactly the intended candidate sets, and
degrees are assigned so each mention is easy or hard as drawn. The
manifest records the planted truth for every document.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import jsonl
from .embeddings import EmbeddingStore, write_embeddings
from .errors import ConfigError

MANIFEST_FORMAT = "eigenlink-synth-manifest"
MANIFEST_VERSION = 1


@dataclass
class SynthConfig:
    seed: int = 17
    d: int = 64
    rank: int = 3
    subclusters: int = 1
    docs: int = 50
    mentions_per_doc: int = 8
    candidates_per_mention: int = 10
    noise_amplitude: float = 0.3
    easy_fraction: float = 0.4
    miss_fraction: float = 0.0
    distractors_per_doc: int | None = None
    adversarial: bool = False
    vocab_size: int = 200
    doc_length: int = 120
    word_dim: int = 16

    def validate(self) -> None:
        clusters = self.subclusters + (1 if self.adversarial else 0)
        if self.rank < 1 or self.subclusters < 1:
            raise ConfigError("rank and subclusters must be >= 1")
        if clusters * self.rank >= self.d:
            raise ConfigError(
                f"planted rank {clusters * self.rank} must stay below dimension {self.d}"
            )
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ConfigError(f"easy_fraction must lie in [0, 1], got {self.easy_fraction}")
        if not 0.0 <= self.miss_fraction <= 1.0:
            raise ConfigError(f"miss_fraction must lie in [0, 1], got {self.miss_fraction}")
        if not 0.0 <= self.noise_amplitude < math.inf:
            raise ConfigError(f"noise_amplitude must lie in [0, inf), got {self.noise_amplitude}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.word_dim < 1:
            raise ConfigError(f"word_dim must be >= 1, got {self.word_dim}")
        if self.docs < 1 or self.mentions_per_doc < 1:
            raise ConfigError("docs and mentions_per_doc must be >= 1")
        if self.candidates_per_mention < 2:
            raise ConfigError("candidates_per_mention must be >= 2")
        if (
            self.distractors_per_doc is not None
            and self.distractors_per_doc < self.candidates_per_mention - 1
        ):
            raise ConfigError(
                f"distractor pool of {self.distractors_per_doc} cannot fill lists of "
                f"{self.candidates_per_mention - 1} distractors"
            )
        if self.vocab_size < 10 or self.doc_length < 2 * self.mentions_per_doc:
            raise ConfigError("vocabulary too small or documents too short")


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _orthonormal_columns(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return q[:, :k]


def _planted_point(
    rng: np.random.Generator, basis: np.ndarray, noise: float, d: int
) -> np.ndarray:
    point = basis @ _unit(rng, basis.shape[1])
    if noise > 0.0:
        point = point + noise * _unit(rng, d)
    return point / np.linalg.norm(point)


def _distractor_vector(
    rng: np.random.Generator,
    cfg: SynthConfig,
    adversary_basis: np.ndarray | None,
    j: int,
) -> np.ndarray:
    # Adversarial mode plants every other distractor in a coherent
    # competing cluster instead of drawing it isotropically.
    if adversary_basis is not None and j % 2 == 0:
        return _planted_point(rng, adversary_basis, cfg.noise_amplitude, cfg.d)
    return _unit(rng, cfg.d)


def generate(cfg: SynthConfig, out_dir: str) -> dict:
    """Write catalog, embeddings, words, descriptions, dataset and manifest.

    Returns the manifest as a dict. Identical configs produce
    byte-identical files.
    """
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    vocab = [f"w{i:03d}" for i in range(cfg.vocab_size)]
    word_store = EmbeddingStore(cfg.word_dim)
    word_store.add_rows(vocab, [rng.standard_normal(cfg.word_dim) for _ in vocab])

    catalog_rows: list[dict] = []
    row_of: dict[str, dict] = {}
    entity_vectors: list[np.ndarray] = []  # one per catalog row, in draw order
    descriptions: list[dict] = []
    dataset_rows: list[dict] = []
    manifest_docs: list[dict] = []

    qid_counter = 0
    alias_counter = 0

    def new_entity(vector: np.ndarray, degree: int) -> str:
        nonlocal qid_counter
        qid_counter += 1
        qid = f"Q{qid_counter}"
        row = {"qid": qid, "name": f"entity q{qid_counter}", "aliases": [], "degree": degree}
        catalog_rows.append(row)
        row_of[qid] = row
        entity_vectors.append(vector)
        n_words = int(rng.integers(3, 9))
        words = [vocab[int(i)] for i in rng.integers(0, cfg.vocab_size, size=n_words)]
        descriptions.append({"qid": qid, "description": " ".join(words)})
        return qid

    def add_alias(qid: str, mention_token: str) -> None:
        nonlocal alias_counter
        alias_counter += 1
        row_of[qid]["aliases"].append(f"{mention_token} a{alias_counter}")

    n_distractors = cfg.candidates_per_mention - 1
    for di in range(cfg.docs):
        doc_id = f"d{di}"
        total_rank = cfg.subclusters * cfg.rank + (cfg.rank if cfg.adversarial else 0)
        basis_all = _orthonormal_columns(rng, cfg.d, total_rank)
        cluster_bases = [
            basis_all[:, c * cfg.rank : (c + 1) * cfg.rank] for c in range(cfg.subclusters)
        ]
        adversary_basis = (
            basis_all[:, cfg.subclusters * cfg.rank :] if cfg.adversarial else None
        )

        pool: list[str] = []
        if cfg.distractors_per_doc is not None:
            for j in range(cfg.distractors_per_doc):
                vec = _distractor_vector(rng, cfg, adversary_basis, j)
                pool.append(new_entity(vec, degree=10 * (j + 1)))

        mentions_manifest = []
        dataset_mentions = []
        tokens = [vocab[int(i)] for i in rng.integers(0, cfg.vocab_size, size=cfg.doc_length)]
        for mi in range(cfg.mentions_per_doc):
            surface = f"m{di}x{mi}"
            position = (mi + 1) * cfg.doc_length // (cfg.mentions_per_doc + 1)
            tokens[position] = surface

            if cfg.distractors_per_doc is not None:
                picked = [
                    pool[int(i)]
                    for i in rng.choice(len(pool), size=n_distractors, replace=False)
                ]
            else:
                picked = [
                    new_entity(
                        _distractor_vector(rng, cfg, adversary_basis, j),
                        degree=10 * (mi * (n_distractors + 1) + j + 1),
                    )
                    for j in range(n_distractors)
                ]
            for qid in picked:
                add_alias(qid, surface)

            cluster = cluster_bases[mi % cfg.subclusters]
            gold_vec = _planted_point(rng, cluster, cfg.noise_amplitude, cfg.d)
            easy = bool(rng.random() < cfg.easy_fraction)
            missed = bool(rng.random() < cfg.miss_fraction)
            degrees = sorted((row_of[q]["degree"] for q in picked), reverse=True)
            # Degrees within a candidate list are distinct multiples of 10;
            # offsets 1..9 slot the gold strictly between them, never on them.
            offset = 1 + mi % 9
            if easy:
                gold_degree = degrees[0] + offset
            else:
                j = int(rng.integers(1, n_distractors + 1))
                gold_degree = degrees[j - 1] - offset
            gold_qid = new_entity(gold_vec, degree=gold_degree)
            if not missed:
                add_alias(gold_qid, surface)

            members = picked + ([] if missed else [gold_qid])
            members.sort(key=lambda q: (-row_of[q]["degree"], q))
            mentions_manifest.append(
                {
                    "surface": surface,
                    "gold_qid": gold_qid,
                    "easy": easy,
                    "missed": missed,
                    "candidates": members,
                }
            )
            dataset_mentions.append(
                {"surface": surface, "gold_qid": gold_qid, "position": position}
            )

        dataset_rows.append(
            {"doc_id": doc_id, "mentions": dataset_mentions, "tokens": tokens}
        )
        manifest_docs.append(
            {
                "doc_id": doc_id,
                "basis": [[float("%.9g" % x) for x in row] for row in basis_all.tolist()],
                "mentions": mentions_manifest,
            }
        )

    paths = {
        "catalog": os.path.join(out_dir, "catalog.jsonl"),
        "embeddings": os.path.join(out_dir, "embeddings.txt"),
        "words": os.path.join(out_dir, "words.txt"),
        "descriptions": os.path.join(out_dir, "descriptions.jsonl"),
        "dataset": os.path.join(out_dir, "dataset.jsonl"),
        "manifest": os.path.join(out_dir, "manifest.json"),
    }
    entity_store = EmbeddingStore(cfg.d)
    entity_store.add_rows([row["qid"] for row in catalog_rows], entity_vectors)
    jsonl.write_rows(paths["catalog"], catalog_rows)
    write_embeddings(entity_store, paths["embeddings"])
    write_embeddings(word_store, paths["words"])
    jsonl.write_rows(paths["descriptions"], descriptions)
    jsonl.write_rows(paths["dataset"], dataset_rows)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "config": asdict(cfg),
        "documents": manifest_docs,
    }
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest
