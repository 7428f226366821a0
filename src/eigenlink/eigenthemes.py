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

import numpy as np

from .dataset import DocumentTask
from .embeddings import EmbeddingStore, unit_normalize
from .errors import DimensionError, EmptyDocumentError, NumericalError
from .linalg import Subspace, truncated_svd
from .weighting import WeightScheme, mention_weights


@dataclass
class DocumentMatrix:
    """Candidate-space rows for one document: ids, unit rows, weights."""

    entity_ids: list[str]
    matrix: np.ndarray  # (n_D, d)
    weights: np.ndarray  # (n_D,)


@dataclass
class MentionLink:
    """Per-mention outcome: full scored ranking plus the argmax."""

    surface: str
    gold_qid: str | None
    candidates: list[str]  # degree order, as generated
    ranking: list[tuple[str, float]]  # score descending
    predicted_qid: str | None
    fallback: str | None = None  # "degree" when scores carried no signal


@dataclass
class LinkResult:
    doc_id: str
    method: str
    mentions: list[MentionLink]
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
    entity_ids: list[str] = []
    weight_of: dict[str, float] = {}
    for mention in task.mentions:
        if mention.candidates is None:
            raise ValueError(f"mention {mention.surface!r} has no candidate list attached")
        weights = mention_weights(
            scheme,
            mention.candidates,
            mention_position=mention.position,
            doc_tokens=task.tokens,
            word_store=word_store,
            desc_store=desc_store,
            window=window,
            nouns=task.nouns,
        )
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
    rows = np.stack([unit_normalize(store.get(qid)) for qid in entity_ids])
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


def _rank_mention(
    candidates: list[str],
    scores: dict[str, float],
) -> list[tuple[str, float]]:
    """Sort score descending; the candidate list's degree order breaks ties."""
    order = sorted(range(len(candidates)), key=lambda i: (-scores[candidates[i]], i))
    return [(candidates[i], scores[candidates[i]]) for i in order]


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
    subspace: Subspace | None = None
    score_of: dict[str, float] = {}
    try:
        dm = build_document_matrix(
            task, store, scheme, word_store=word_store, desc_store=desc_store, window=window
        )
        subspace = learn_subspace(dm, k)
        row_scores = score_candidate(subspace, dm.matrix, rescale)
        score_of = dict(zip(dm.entity_ids, row_scores.tolist()))
    except EmptyDocumentError:
        pass
    except NumericalError as exc:
        raise NumericalError(f"document {task.doc_id!r}: {exc}") from exc

    mentions: list[MentionLink] = []
    for mention in task.mentions:
        cands = mention.candidates.candidates if mention.candidates else []
        if not cands:
            mentions.append(
                MentionLink(
                    surface=mention.surface,
                    gold_qid=mention.gold_qid,
                    candidates=[],
                    ranking=[],
                    predicted_qid=None,
                )
            )
            continue
        scores = {qid: score_of.get(qid, -math.inf) for qid in cands}
        any_scored = any(qid in score_of for qid in cands)
        ranking = _rank_mention(cands, scores)
        mentions.append(
            MentionLink(
                surface=mention.surface,
                gold_qid=mention.gold_qid,
                candidates=cands,
                ranking=ranking,
                predicted_qid=ranking[0][0],
                fallback=None if any_scored else "degree",
            )
        )
    return LinkResult(
        doc_id=task.doc_id,
        method="eigen",
        mentions=mentions,
        effective_k=subspace.rank if subspace is not None else None,
    )
