"""Non-subspace linking methods sharing the LinkResult contract.

NameMatch resolves by exact (case-insensitive, whitespace-collapsed)
name equality and degree. Degree takes the candidate generator's order
at face value. Both read only the lists attached to the mention, which
carry each entity's degree. Avg replaces the subspace by the weighted
centroid of the document matrix. LocalCtxt/GlobalCtxt rank by cosine
between entity descriptions and a context embedding.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import DocumentTask
from .embeddings import NORM_EPS, EmbeddingStore
from .eigenthemes import (
    DocumentMatrix,
    LinkResult,
    build_document_matrix,
    link_mentions,
    pools_from,
)
from .errors import EmptyDocumentError
from .index import CandidateList
from .weighting import WeightScheme, context_scores, document_contexts


def degree_baseline(entities: CandidateList) -> list[tuple[str, float]]:
    """The list's degree order, scored by the degrees themselves."""
    return [(qid, float(degree)) for qid, degree in zip(entities.candidates, entities.degrees)]


def avg_scores(dm: DocumentMatrix) -> np.ndarray:
    """Cosine of each document-matrix row against the weighted centroid of the rows.

    A (near-)zero centroid gives every row score 0, which the ranking
    tie-break resolves back to degree order. The rows are scored as one
    stack of (1, d) @ (d, 1) products, a dot product per row, so each
    score has the bits of scoring that row on its own.
    """
    total = float(np.sum(dm.weights))
    if total <= 0.0:
        centroid = np.zeros(dm.matrix.shape[1])
    else:
        centroid = (dm.weights[:, None] * dm.matrix).sum(axis=0) / total
    cnorm = math.sqrt(float(centroid @ centroid))
    if cnorm <= NORM_EPS:
        return np.zeros(len(dm.entity_ids))
    rows = dm.matrix[:, None, :]
    dots = np.matmul(rows, centroid[:, None])[:, 0, 0]
    enorms = np.sqrt(np.matmul(rows, dm.matrix[:, :, None])[:, 0, 0])
    return np.divide(dots, enorms * cnorm, out=np.zeros_like(dots), where=enorms > 0.0)


def link_document_degree(task: DocumentTask) -> LinkResult:
    pools = (degree_baseline(m.candidates) for m in task.mentions)
    return link_mentions(task, pools, degree_fallback=False)


def link_document_namematch(task: DocumentTask) -> LinkResult:
    """The pool is the mention's name matches, which need not be among its candidates."""
    pools = (degree_baseline(m.name_matches) for m in task.mentions)
    return link_mentions(task, pools, degree_fallback=False)


def link_document_avg(
    task: DocumentTask,
    store: EmbeddingStore,
    scheme: WeightScheme,
    word_store: EmbeddingStore | None = None,
    desc_store: EmbeddingStore | None = None,
    window: int = 5,
) -> LinkResult:
    try:
        dm = build_document_matrix(
            task, store, scheme, word_store=word_store, desc_store=desc_store, window=window
        )
        score_of = dict(zip(dm.entity_ids, avg_scores(dm).tolist()))
    except EmptyDocumentError:
        score_of = {}
    return link_mentions(task, pools_from(task, score_of), degree_fallback=True)


def link_document_context(
    task: DocumentTask,
    word_store: EmbeddingStore,
    desc_store: EmbeddingStore,
    mode: str = "local",
    window: int = 5,
) -> LinkResult:
    """LocalCtxt / GlobalCtxt: description-vs-context cosine ranking (see ``context_scores``)."""
    contexts = document_contexts(task, mode, word_store, window)
    pools = (context_scores(m.candidates, c, desc_store) for m, c in zip(task.mentions, contexts))
    return link_mentions(task, pools, degree_fallback=True)
