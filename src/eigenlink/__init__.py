"""Unsupervised entity linking via per-document low-rank subspaces."""

from .dataset import DocumentTask, Mention, attach_candidates, load_dataset
from .eigenthemes import (
    DocumentMatrix,
    LinkResult,
    build_document_matrix,
    learn_subspace,
    link_document,
    score_candidate,
)
from .embeddings import EmbeddingStore, load_embeddings, unit_normalize
from .index import CandidateList, candidate_lists, tokenize
from .kg import catalog_lines, compute_degrees
from .linalg import Subspace, truncated_svd
from .pipeline import LinkContext, RunConfig, link_one, run_documents
from .synth import SynthConfig, generate
from .weighting import WeightScheme, degree_ranking, mention_weights, reciprocal_rank_weight

__version__ = "0.1.0"

__all__ = [
    "CandidateList",
    "DocumentMatrix",
    "DocumentTask",
    "EmbeddingStore",
    "LinkContext",
    "LinkResult",
    "Mention",
    "RunConfig",
    "Subspace",
    "SynthConfig",
    "WeightScheme",
    "attach_candidates",
    "build_document_matrix",
    "candidate_lists",
    "catalog_lines",
    "compute_degrees",
    "degree_ranking",
    "generate",
    "learn_subspace",
    "link_document",
    "link_one",
    "load_dataset",
    "load_embeddings",
    "mention_weights",
    "reciprocal_rank_weight",
    "run_documents",
    "score_candidate",
    "tokenize",
    "truncated_svd",
    "unit_normalize",
]
