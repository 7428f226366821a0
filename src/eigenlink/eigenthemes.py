"""Collective disambiguation through a per-document low-rank subspace.

For each document: stack the unit-normalized embeddings of the union of
all mentions' candidates, learn the dominant right-singular subspace of
the (optionally weighted) row matrix, then score every candidate by the
strength-rescaled norm of its projection onto that subspace. The
subspace is shared by all mentions, so each mention's scores depend on
every other mention's candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataset import DocumentTask
from .embeddings import EmbeddingStore, unit_normalize_rows
from .errors import DimensionError, EmptyDocumentError, NumericalError
from .evaluation import MentionOutcome, build_outcomes
from .linalg import Subspace, truncated_svd
from .weighting import CONTEXT_KINDS, WeightScheme, document_contexts, mention_weights


@dataclass
class DocumentMatrix:
    """Candidate-space rows for one document: ids, unit rows, weights."""

    entity_ids: list[str]
    matrix: np.ndarray  # (n_D, d)
    weights: np.ndarray  # (n_D,)


@dataclass
class LinkResult:
    mentions: list[MentionOutcome]  # one per mention, in mention order
    effective_k: int | None = None


def build_document_matrix(
    task: DocumentTask,
    store: EmbeddingStore,
    scheme: WeightScheme,
    word_store: EmbeddingStore | None = None,
    desc_store: EmbeddingStore | None = None,
    window: int = 5,
) -> DocumentMatrix:
    """Union the candidate lists, embed and weight them.

    An entity proposed by several mentions appears once and takes the
    largest weight it earns anywhere. Entities without embeddings are
    left out entirely; if nothing remains the document is unusable.
    """
    contexts: list[np.ndarray | None] = [None] * len(task.mentions)
    if scheme.kind in CONTEXT_KINDS:
        contexts = document_contexts(task, CONTEXT_KINDS[scheme.kind], word_store, window)
    entity_ids: list[str] = []
    weight_of: dict[str, float] = {}
    for mention, context in zip(task.mentions, contexts):
        weights = mention_weights(scheme, mention.candidates, context, desc_store)
        for qid in mention.candidates.candidates:
            if qid not in store:
                continue
            w = weights[qid]
            if qid not in weight_of:
                entity_ids.append(qid)
                weight_of[qid] = w
            elif w > weight_of[qid]:
                weight_of[qid] = w

    if not entity_ids:
        raise EmptyDocumentError(
            f"document {task.doc_id!r} has no candidates with embeddings"
        )
    rows = unit_normalize_rows(store.rows(entity_ids))
    weights_vec = np.array([weight_of[qid] for qid in entity_ids], dtype=np.float64)
    return DocumentMatrix(entity_ids=entity_ids, matrix=rows, weights=weights_vec)


def learn_subspace(dm: DocumentMatrix, k: int) -> Subspace:
    """Dominant rank-k subspace of the weighted candidate rows."""
    return truncated_svd(dm.matrix, dm.weights, k)


def score_candidate(subspace: Subspace, e: np.ndarray, rescale: bool = True) -> float | np.ndarray:
    """Strength-weighted norm of a candidate's projection coefficients.

    ``e`` is one length-d vector, scored as a float, or an (n, d) stack of
    vectors, scored as an array of n floats. With rescale=False the plain
    projection norm is used instead; kept as an untuned variant.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim not in (1, 2) or e.shape[-1] != subspace.dim:
        raise DimensionError(
            f"candidate vector has shape {e.shape}, subspace dimension is {subspace.dim}"
        )
    coeffs = e @ subspace.basis
    if rescale:
        coeffs = coeffs * subspace.strengths
    scores = np.sqrt(np.sum(coeffs * coeffs, axis=-1))
    return float(scores) if e.ndim == 1 else scores


def link_mentions(
    task: DocumentTask,
    pools: Iterable[list[tuple[str, float]]],
    degree_fallback: bool,
    effective_k: int | None = None,
) -> LinkResult:
    """Rank each mention's scored pool: score descending, pool order breaking ties.

    ``pools`` gives each mention's pool, in mention order, as (qid, score)
    pairs in degree order. An empty pool gives no prediction. With
    ``degree_fallback``, a pool without any finite, non-zero score keeps its
    degree order and is reported as a degree fallback. Each mention's
    ranking and fallback become its outcome record (``build_outcomes``).
    """
    rankings, fallbacks = [], []
    for pool in pools:
        void = not any(math.isfinite(s) and s != 0.0 for _, s in pool)
        fallback = "degree" if pool and void and degree_fallback else None
        rankings.append(pool if fallback else sorted(pool, key=lambda pair: -pair[1]))
        fallbacks.append(fallback)
    return LinkResult(build_outcomes(task, rankings, fallbacks), effective_k)


def pools_from(
    task: DocumentTask, score_of: dict[str, float]
) -> Iterable[list[tuple[str, float]]]:
    """Each mention's candidates scored from one per-document dict; missing ones get -inf."""
    return (
        [(qid, score_of.get(qid, -math.inf)) for qid in m.candidates.candidates]
        for m in task.mentions
    )


def link_document(
    task: DocumentTask,
    store: EmbeddingStore,
    scheme: WeightScheme,
    k: int = 10,
    rescale: bool = True,
    word_store: EmbeddingStore | None = None,
    desc_store: EmbeddingStore | None = None,
    window: int = 5,
) -> LinkResult:
    """Learn one subspace for the document and score every mention against it.

    Mentions whose candidates all lack embeddings fall back to the
    top-degree candidate; mentions with no candidates get no prediction.
    A failed decomposition raises NumericalError naming the document.
    """
    effective_k: int | None = None
    score_of: dict[str, float] = {}
    try:
        dm = build_document_matrix(
            task, store, scheme, word_store=word_store, desc_store=desc_store, window=window
        )
        subspace = learn_subspace(dm, k)
        row_scores = score_candidate(subspace, dm.matrix, rescale)
        score_of = dict(zip(dm.entity_ids, row_scores.tolist()))
        effective_k = subspace.rank
    except EmptyDocumentError:
        pass
    except NumericalError as exc:
        raise NumericalError(f"document {task.doc_id!r}: {exc}") from exc
    pools = pools_from(task, score_of)
    return link_mentions(task, pools, degree_fallback=True, effective_k=effective_k)
